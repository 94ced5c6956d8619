"""Guards for the names the benchmark's span recorder wraps.

``bench/spans.py`` patches public names of every module from outside the
package (``bench/run.py --trace 1``); a rename under ``src/`` breaks it
without failing any other test.  This loads the recorder from its file,
installs and uninstalls it around a few calls, and checks that every
``__all__`` entry of every module resolves.  It also checks that the
package defines no exception class but the CLI's ``ConfigError``, and
that importing the CLI loads no ``scipy.interpolate``.
"""

import importlib
import importlib.util
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import lagdisc
from lagdisc import domains as dom
from lagdisc import families as fam
from lagdisc import hamiltonians as hams
from lagdisc import mesh as msh

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("lagdisc_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_recorder_installs_and_uninstalls():
    rec = _load_spans().Recorder()
    try:
        rec.install()
        originals = list(rec._patches)
        assert originals
        msh.build_polar_mesh(2, 8)
        f = hams.z1_arc_hamiltonian(0.45, 0.35)
        f.hessian(np.array([[0.9, 0.4, 0.0, 0.0]]))
        nm = fam.nonminimal_map()
        th = np.linspace(0.0, 2 * np.pi, 37, endpoint=False)
        dom.curve_domain_from_map(nm).normal_at(nm.value(np.ones_like(th), th))
    finally:
        rec.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
    totals = rec.totals()
    assert totals["mesh.build_polar_mesh"]["calls"] == 1
    assert totals["mesh.validate"]["calls"] == 1
    assert totals["hamiltonians.hessian.z1_arc"]["calls"] == 1
    assert totals["hamiltonians.hessian.z1_arc"]["points"] == 1
    # one batched curve lookup is one span carrying every query point
    assert totals["domains.curve.normal_at"]["calls"] == 1
    assert totals["domains.curve.normal_at"]["points"] == 37


def test_recorder_times_the_solver_layers(monkeypatch):
    """The preconditioner factor must come from ``solver.spla`` and the
    gradients from ``solver.element_gradient``, or their per-layer metrics
    silently read 0.  The recorder's ``splu`` must also forward the
    factor's options, or the timed solves are those of another factor."""
    from dataclasses import replace

    from lagdisc import solver as sol

    u0 = fam.sample(fam.flat_disc(np.eye(2)), msh.build_polar_mesh(6, 24))
    noise = 0.01 * np.random.default_rng(0).normal(size=u0.values.shape)
    u = replace(u0, values=u0.values + noise, source=None)
    splu, built = sol.spla.splu, []

    def capturing(A, *args, **kwargs):
        built.append((A, splu(A, *args, **kwargs)))
        return built[-1][1]

    monkeypatch.setattr(sol.spla, "splu", capturing)
    rec = _load_spans().Recorder()
    try:
        rec.install()
        sol.minimize(u, dom.unit_ball(), sol.SolverConfig(max_iters=2))
    finally:
        rec.uninstall()
    totals = rec.totals()
    assert totals["solver.precond_solve"]["calls"] >= 1
    assert totals["mesh.element_gradient"]["calls"] >= 1
    # the symmetric factor minimize asks for: 2276 nonzeros at 6x24,
    # against 4500 for splu's defaults
    (A, factor), = built
    default = splu(A)
    assert factor.L.nnz + factor.U.nnz <= 0.55 * (default.L.nnz + default.U.nnz)


def test_every_public_name_resolves():
    names = [m.name for m in pkgutil.iter_modules(lagdisc.__path__)]
    assert {"hamiltonians", "mesh", "residuals", "solver"} <= set(names)
    for name in names:
        module = importlib.import_module(f"lagdisc.{name}")
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), f"lagdisc.{name}.{public}"


def test_config_error_is_the_only_exception_class_and_one_eps():
    """The library raises builtin exceptions with a message; the one class
    of its own is the CLI's ConfigError, which maps to exit 1."""
    from lagdisc import algebra, cli
    defined = []
    for info in pkgutil.iter_modules(lagdisc.__path__):
        module = importlib.import_module(f"lagdisc.{info.name}")
        defined += [obj for _, obj in inspect.getmembers(module, inspect.isclass)
                    if obj.__module__ == module.__name__
                    and issubclass(obj, BaseException)]
    assert defined == [cli.ConfigError]
    assert hams.EPS is algebra.EPS and msh.EPS is algebra.EPS


def test_cli_import_loads_no_scipy_interpolate():
    """Curve domains evaluate their closed forms: no process that imports
    the CLI pays for ``scipy.interpolate``."""
    src = str(Path(lagdisc.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import lagdisc.cli; "
            "assert 'scipy.interpolate' not in sys.modules, 'loaded'")
    subprocess.run([sys.executable, "-c", code], check=True)
