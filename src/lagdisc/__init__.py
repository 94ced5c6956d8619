"""Numerical toolkit for free-boundary Hamiltonian stationary Lagrangian
discs in C^2: closed-form example families, disc meshes with weak-form
residual operators, admissible Hamiltonian test functions, boundary
condition checks, and a variational rigidity experiment.

``solver`` is imported on first access, because it is the one module that
loads scipy.
"""

import importlib

from . import algebra, domains, families, hamiltonians, mesh, residuals

__version__ = "0.1.0"

__all__ = ["algebra", "domains", "families", "hamiltonians", "mesh",
           "residuals", "solver", "__version__"]


def __getattr__(name):
    if name == "solver":
        return importlib.import_module(".solver", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
