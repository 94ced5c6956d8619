"""Span recording around the public entry points of each lagdisc module.

Wrappers are installed from outside the package, at the name each
consumer binds (``lagdisc.solver.energy_and_gradient``,
``lagdisc.cli.build_polar_mesh``, ``DiscMesh.validate``, ...), so the
program under test is unchanged.  Spans stay in memory as
``[name, start, end, parent, points]`` rows and are written once, when
the run ends.  ``lagdisc.algebra`` is deliberately not wrapped: it is
called on small arrays thousands of times per iteration, and its cost
shows in its callers' self time.
"""

from __future__ import annotations

import functools
import time

import numpy as np

NAME, START, END, PARENT, POINTS = range(5)


def _n_points(z, width):
    return int(np.asarray(z).size // width)


class Recorder:
    """In-memory span log with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []          # (owner, attribute, original)
        self.minimize_histories = []

    # -- spans -----------------------------------------------------------
    def wrap(self, name, fn, points=None, on_return=None):
        """Time ``fn`` as span ``name``.

        A call nested directly inside a span of the same name (the
        per-row recursion of ``CurveNormalDomain.normal_at``, the terms of
        a combined Hamiltonian) is passed through unrecorded, so counts,
        times and points are those of the outermost call.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            pts = points(args, kwargs) if points else 0
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, pts])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = time.perf_counter()
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def patch(self, owner, attr, name, points=None, on_return=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, points, on_return))

    def set_attr(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- installation ------------------------------------------------------
    def install(self):
        import lagdisc.cli as cli
        import lagdisc.domains as domains
        import lagdisc.families as families
        import lagdisc.hamiltonians as hams
        import lagdisc.mesh as mesh
        import lagdisc.residuals as residuals
        import lagdisc.solver as solver

        # mesh, at every module it is called through (the localized
        # operations of the benchmark build their mesh via lagdisc.mesh)
        for mod in (cli, mesh):
            self.patch(mod, "build_polar_mesh", "mesh.build_polar_mesh")
        self.patch(mesh.DiscMesh, "validate", "mesh.validate")
        for mod in (solver, residuals, mesh):
            self.patch(mod, "element_gradient", "mesh.element_gradient")
        self.patch(residuals, "weak_divergence_residual",
                   "mesh.weak_divergence_residual")
        self.patch(residuals, "boundary_trace_pairing",
                   "mesh.boundary_trace_pairing")
        self.patch(mesh.DiscMesh, "locate", "mesh.locate",
                   points=lambda a, k: _n_points(a[1], 2))

        # solver
        self.patch(solver, "minimize", "solver.minimize",
                   on_return=lambda out: self.minimize_histories.append(out[1]))
        self.patch(solver, "energy_and_gradient", "solver.energy_and_gradient")
        self.patch(solver, "perturb_by_hamiltonian_flows",
                   "solver.perturb_by_hamiltonian_flows")
        self.set_attr(solver, "spla", _SplaProxy(solver.spla, self))

        # residuals
        for fn in ("full_report", "structural_residual", "angle_harmonicity",
                   "boundary_conditions_report"):
            self.patch(residuals, fn, f"residuals.{fn}")
        self.patch(residuals, "stationarity_test", "residuals.stationarity_test",
                   points=lambda a, k: len(a[2] if len(a) > 2 else k["fs"]))

        # hamiltonians: wrap the callables of every Hamiltonian as it is
        # built; the curve-adapted factory relabels its finite-difference
        # Hessian
        rec = self
        ham_init = hams.Hamiltonian.__init__
        per_point = lambda a, k: _n_points(a[0], 4)  # noqa: E731

        def init(h, *args, **kwargs):
            ham_init(h, *args, **kwargs)
            h.gradient = rec.wrap("hamiltonians.gradient", h.gradient, per_point)
            h.hessian = rec.wrap("hamiltonians.hessian.closed", h.hessian,
                                 per_point)

        self.set_attr(hams.Hamiltonian, "__init__", init)
        z1_arc = hams.z1_arc_hamiltonian

        def z1_arc_hamiltonian(*args, **kwargs):
            h = z1_arc(*args, **kwargs)
            h.hessian = rec.wrap("hamiltonians.hessian.z1_arc",
                                 h.hessian.__wrapped__, per_point)
            return h

        self.set_attr(hams, "z1_arc_hamiltonian", z1_arc_hamiltonian)

        # domains
        self.patch(domains.CurveNormalDomain, "normal_at",
                   "domains.curve.normal_at",
                   points=lambda a, k: _n_points(a[1], 4))
        self.patch(domains.LevelSetDomain, "project_to_boundary",
                   "domains.levelset.project_to_boundary")

        # families and the front end
        for mod in (cli, residuals, solver, families):
            self.patch(mod, "sample", "families.sample")
        self.patch(cli, "main", "cli.main")

    # -- aggregation ---------------------------------------------------------
    def totals(self):
        """Per span name: calls, seconds, self seconds and points."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        out = {}
        for s, covered in zip(self.spans, child_time):
            t = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                         "points": 0})
            dur = s[END] - s[START]
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - covered
            t["points"] += s[POINTS]
        return out

    def span_rows(self, t0):
        """Spans as JSON-ready rows with times relative to ``t0``."""
        return [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[POINTS]]
                for s in self.spans]


class _SplaProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``lagdisc.solver`` so the
    factor returned by ``splu`` has a timed ``solve`` (the preconditioner
    solve at the solver -> scipy boundary)."""

    def __init__(self, spla, recorder):
        self._spla = spla
        self._rec = recorder

    def __getattr__(self, attr):
        return getattr(self._spla, attr)

    def splu(self, *args, **kwargs):
        return _TimedFactor(self._spla.splu(*args, **kwargs), self._rec)


class _TimedFactor:
    def __init__(self, factor, recorder):
        self._factor = factor
        self.solve = recorder.wrap("solver.precond_solve", factor.solve)

    def __getattr__(self, attr):
        return getattr(self._factor, attr)
