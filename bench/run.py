#!/usr/bin/env python3
"""lagdisc benchmark: time to verdict for the three workloads a user waits on.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  Each workload is a
closed loop with one caller: it runs one operation at a time (a CLI
command through ``lagdisc.cli.main(argv)``, or one localized stationarity
test) and waits for its verdict before starting the next.  A pass is one
sweep over the workload's operations; the run repeats passes until
``--seconds`` have elapsed (at least one pass) and reports medians.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``wall_s`` and ``cpu_s`` per pass, ``peak_rss_mb`` of this process,
``setup_s`` (fresh interpreter until ``import lagdisc.cli`` returns,
median over several processes) and ``ok_frac`` (operations that passed
every check, over those attempted; ``failed_frac`` is printed above it).
With ``--trace 1`` it runs one untraced and one traced pass and reports
per-layer metrics from the spans (see ``spans.py``) plus the tracing
overhead.  ``--smoke`` shrinks every mesh so a run takes seconds; it
checks the harness, not the program's speed.

Every run also writes ``bench/out/<workload>-seed<N>-trace<T>.json`` with
the machine description, the generated inputs, every timing sample and
the answer numbers (residuals per level, fitted orders, exit codes, the
rigidity report), so "faster" and "same answer" are checked in one file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 3


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------
class Op:
    """One operation of a pass.

    ``run()`` returns ``(exit_code, answers, problems)``; the operation
    fails when it raises, exits non-zero or reports a problem (a broken
    paper-claim check).  ``known_defect`` names the defect an expected
    failure comes from; ``expect`` says how that failure shows
    (``"exit 2"`` or an exception class name).
    """

    def __init__(self, name, run, known_defect=None, expect=None):
        self.name = name
        self.run = run
        self.known_defect = known_defect
        self.expect = expect


def cli_op(name, argv, check, known_defect=None):
    def run():
        out = OUT / "work" / name
        out.mkdir(parents=True, exist_ok=True)
        summary = out / "summary.json"
        summary.unlink(missing_ok=True)
        import lagdisc.cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = lagdisc.cli.main(argv + ["--out", str(out)])
        if summary.is_file():
            answers, problems = check(json.loads(summary.read_text()))
        else:
            answers, problems = {}, ["no summary.json"]
        answers["exit_code"] = code
        if code != 0:
            problems.append(f"exit {code}: {buf.getvalue().strip()[-300:]}")
        return code, answers, problems
    return Op(name, run, known_defect, "exit 2" if known_defect else None)


def fit_order(hs, values, floor=1e-13):
    """Least-squares slope of log(value) against log(h)."""
    v = np.maximum(np.asarray(values, float), floor)
    if np.all(v <= floor):
        return float("inf")
    return float(np.polyfit(np.log(hs), np.log(v), 1)[0])


# -- rigidity-48 ------------------------------------------------------------
def check_rigidity(summary):
    problems = []
    rep = dict(summary["results"][0])
    rep.pop("config", None)
    if not rep["passed"]:
        problems.append("rigidity report did not pass")
    for key, tol in (("flat_disc_distance", 1e-3), ("angle_variance", 1e-6),
                     ("circle_defect", 1e-3)):
        if not rep[key] <= tol:
            problems.append(f"{key} {rep[key]:.3e} > {tol:g}")
    return rep, problems


def rigidity_workload(rng, smoke):
    # One fixed case, rigidity seed 1, whatever the workload seed: the
    # descent's iteration count differs by seed (66-79 s over seeds 1-5 on
    # 2 cores), and that spread would swamp the wall-time bound.
    mesh = "6,24,1.0" if smoke else "48,192,1.0"
    inputs = {"rigidity_seed": 1, "mesh": mesh}
    argv = ["--command", "rigidity", "--mesh", mesh, "--seed", "1"]
    return inputs, lambda: [cli_op("rigidity", argv, check_rigidity)]


# -- verify-ball ------------------------------------------------------------
BALL_CONES = ((1, 2), (2, 3), (3, 4))
INVALID_LOOP = ("HalfPlane cuts whose end points miss a mesh node raise "
                "InvalidLoop: interior_boundary_samples puts points on the "
                "circle outside the polygonal mesh")


def check_ball_verify(summary):
    levels = summary["levels"]
    fin = levels[-1]
    problems = []
    for key, tol in (("legendrian", 1e-12), ("conormal", 1e-12),
                     ("neumann_trace", 1e-8)):
        if not fin[key] <= tol:
            problems.append(f"finest {key} {fin[key]:.3e} > {tol:g}")
    hs = [lv["h"] for lv in levels]
    orders = {k: fit_order(hs, [lv[k] for lv in levels])
              for k in ("structural", "angle_div", "angle_perp_div")}
    for k, o in orders.items():
        if not o >= 1.0:
            problems.append(f"{k} order {o:.3f} < 1.0")
    answers = {"levels": levels, "orders": orders}
    return answers, problems


def check_stationarity(min_order):
    def check(summary):
        order = summary["order"]
        answers = {"h": summary["hs"], "stationarity": summary["values"],
                   "order": order}
        problems = []
        if order is not None and not order >= min_order:
            problems.append(f"stationarity order {order:.3f} < {min_order}")
        return answers, problems
    return check


def clear_bumps(cone, cut, rng, count=8):
    """Seeded interior bumps centred on the image of {x > c}, supported
    inside the ball and clear of the image of the cut."""
    import lagdisc.hamiltonians as hams
    from lagdisc.residuals import HalfPlane
    cut_pts = HalfPlane(cut).interior_boundary_samples()
    cut_img = cone.value_xy(cut_pts[:, 0], cut_pts[:, 1])
    out = []
    while len(out) < count:
        r, th = rng.uniform(0.1, 0.85), rng.uniform(-np.pi / 2, np.pi / 2)
        x, y = r * np.cos(th), r * np.sin(th)
        if x <= cut:
            continue
        center = cone.value_xy(np.array([x]), np.array([y]))[0]
        gap = float(np.min(np.linalg.norm(cut_img - center, axis=1)))
        radius = min(0.3, 0.8 * gap, 0.9 - float(np.linalg.norm(center)))
        if radius < 0.05:
            continue
        out.append(hams.interior_bump(center, radius,
                                      rng.uniform(0.5, 1.5)
                                      * rng.choice([-1.0, 1.0])))
    return out


def _misses_node(cut, n_sectors):
    """Whether the end points of the cut x = c miss every boundary node."""
    k = np.arccos(cut) * n_sectors / (2 * np.pi)
    return abs(k - round(k)) > 1e-9


def localized_ops(p, q, cuts, bump_seed, mesh_size):
    """Localized stationarity tests on one sampled cone, one op per cut."""
    import lagdisc.families as fam
    import lagdisc.mesh as mesh
    import lagdisc.residuals as res
    from lagdisc.domains import unit_ball
    state = {}

    def op(i, cut):
        def run():
            if not state:
                state["cone"] = cone = fam.sw_cone(p, q)
                state["u"] = fam.sample(cone, mesh.build_polar_mesh(*mesh_size))
                state["ball"] = unit_ball()
            rng = np.random.default_rng([bump_seed, i])
            fs = clear_bumps(state["cone"], cut, rng)
            v = res.stationarity_test(state["u"], state["ball"], fs,
                                      subdomain=res.HalfPlane(cut))
            return 0, {"cut": cut, "stationarity": v, "functions": len(fs)}, []
        known = INVALID_LOOP if _misses_node(cut, mesh_size[1]) else None
        return Op(f"localized[{i}]", run, known, "InvalidLoop" if known else None)

    return [op(i, c) for i, c in enumerate(cuts)]


def ball_workload(rng, smoke):
    p, q = BALL_CONES[int(rng.integers(len(BALL_CONES)))]
    batch_seed = int(rng.integers(1, 10_000))
    # c = 0 is the control that reaches the Hessian batches; the drawn cuts
    # exercise the InvalidLoop defect
    cuts = [0.0] + [round(float(rng.uniform(-0.5, 0.5)), 6) for _ in range(2)]
    bump_seed = int(rng.integers(1, 10_000))
    mesh, levels, local = ("6,24,1.0", "2", (12, 48)) if smoke \
        else ("24,96,1.0", "4", (96, 384))
    inputs = {"example": f"sw:{p},{q}", "mesh": mesh, "refinements": levels,
              "stationarity_seed": batch_seed, "cuts": cuts,
              "bump_seed": bump_seed, "localized_mesh": list(local)}
    common = ["--example", f"sw:{p},{q}", "--mesh", mesh, "--refinements", levels]

    def ops():
        return [
            cli_op("verify-example", ["--command", "verify-example"] + common,
                   check_ball_verify),
            cli_op("stationarity",
                   ["--command", "stationarity", "--seed", str(batch_seed)] + common,
                   check_stationarity(0.8)),
        ] + localized_ops(p, q, cuts, bump_seed, local)
    return inputs, ops


# -- verify-curve -----------------------------------------------------------
CURVE_FLAT = ("nonminimal/curve stationarity flattens at about 1.1-1.3e-4 from "
              "48x192 to 96x384 (order about 0.56, independent of the batch "
              "seed), so the command exits 2")


def check_curve_boundary(summary):
    levels = summary["levels"]
    fin = levels[-1]
    problems = []
    if not fin["legendrian"] >= 0.5:
        problems.append(f"finest legendrian {fin['legendrian']:.3e} < 0.5")
    if not fin["neumann_trace"] >= 1.0:
        problems.append(f"finest neumann_trace {fin['neumann_trace']:.3e} < 1.0")
    return {"levels": levels}, problems


def check_curve_verify(summary):
    return {"levels": summary["levels"], "failures": summary["failures"]}, []


def curve_workload(rng, smoke):
    batch_seed = int(rng.integers(1, 10_000))
    mesh = "6,24,1.0" if smoke else "24,96,1.0"
    inputs = {"example": "nonminimal", "domain": "curve", "mesh": mesh,
              "stationarity_seed": batch_seed}
    common = ["--example", "nonminimal", "--domain", "curve", "--mesh", mesh]

    def ops():
        return [
            cli_op("boundary-report", ["--command", "boundary-report"] + common,
                   check_curve_boundary),
            cli_op("stationarity",
                   ["--command", "stationarity", "--seed", str(batch_seed)] + common,
                   check_stationarity(1.0), known_defect=CURVE_FLAT),
            cli_op("verify-example", ["--command", "verify-example"] + common,
                   check_curve_verify, known_defect=CURVE_FLAT),
        ]
    return inputs, ops


WORKLOADS = {
    "rigidity-48": rigidity_workload,
    "verify-ball": ball_workload,
    "verify-curve": curve_workload,
}


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------
def _cpu():
    """User plus system time of this process, all threads included."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(ops):
    """Run each operation in turn; returns wall, cpu and per-op records."""
    records = []
    c0, t0 = _cpu(), time.perf_counter()
    for op in ops:
        rec = {"op": op.name}
        t = time.perf_counter()
        try:
            code, rec["answers"], problems = op.run()
            rec["failure"] = "; ".join(problems) or None
            rec["failed_as"] = f"exit {code}" if code else None
        except Exception as exc:  # an operation that raises is a failure
            rec["failure"] = f"{type(exc).__name__}: {exc}"
            rec["failed_as"] = type(exc).__name__
        rec["wall_s"] = time.perf_counter() - t
        if rec["failure"]:
            rec["known_defect"] = op.known_defect
            rec["expected"] = (op.known_defect is not None
                               and rec["failed_as"] == op.expect)
        records.append(rec)
    return {"wall_s": time.perf_counter() - t0, "cpu_s": _cpu() - c0,
            "ops": records}


def measure_setup(n):
    """Wall time of fresh interpreters that only ``import lagdisc.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(n):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lagdisc.cli"], env=env,
                       check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t)
    return samples


def machine():
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)

    def blas(mod):
        with contextlib.suppress(KeyError, TypeError):
            b = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{b['name']} {b['version']}"
        return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_numpy": blas(np), "blas_scipy": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def spread_note(samples):
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    note = f"median of {n} pass(es)"
    if n > 10:
        pct = 100 * (n - 10) // n
        note += f", p{pct} {statistics.quantiles(samples, n=100)[pct - 1]:.4f}"
    return note


def layer_metrics(rec, t_untraced, t_traced):
    """Per-layer metrics named as in BENCHMARK.json's ``per_layer``."""
    tot = rec.totals()
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def span(name, extra=()):
        t = tot.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0})
        put(f"{name}.calls", t["calls"], "count")
        put(f"{name}.s", t["s"], "s")
        for key, metric, unit in extra:
            put(f"{name}.{metric}", t[key], unit)
        return t

    self_s = (("self_s", "self_s", "s"),)
    points = (("points", "points", "count"),)
    for name in ("mesh.build_polar_mesh", "mesh.validate", "mesh.element_gradient",
                 "mesh.weak_divergence_residual", "mesh.boundary_trace_pairing"):
        span(name)
    span("mesh.locate", points)
    span("solver.minimize", self_s)
    evals = span("solver.energy_and_gradient")["calls"]
    span("solver.precond_solve")
    span("solver.perturb_by_hamiltonian_flows")
    hists = rec.minimize_histories
    iters = sum(len(h["rows"]) for h in hists)
    put("solver.iterations", iters, "count")
    for k in (1, 2, 3):
        put(f"solver.stage_iters.{k}",
            sum(h["stages"][k - 1]["iters"] for h in hists
                if len(h["stages"]) >= k), "count")
    put("solver.energy_evals_per_iter", evals / iters if iters else 0.0, "ratio")
    for name in ("residuals.full_report", "residuals.structural_residual",
                 "residuals.angle_harmonicity",
                 "residuals.boundary_conditions_report"):
        span(name)
    span("residuals.stationarity_test", (("points", "functions", "count"),))
    for name in ("hamiltonians.hessian.closed", "hamiltonians.hessian.z1_arc",
                 "hamiltonians.gradient", "domains.curve.normal_at"):
        span(name, points)
    span("domains.levelset.project_to_boundary")
    span("families.sample")
    span("cli.main", self_s)
    put("trace.overhead_s", t_traced - t_untraced, "s")
    return m


def answer_metrics(passes):
    """Rigidity answer numbers reported next to the per-layer timings."""
    rep = next((r["answers"] for r in passes[-1]["ops"]
                if r["op"] == "rigidity" and "answers" in r), {})
    return {"solver.flat_distance": {"value": rep.get("flat_disc_distance", 0.0),
                                     "unit": "1"},
            "solver.angle_variance": {"value": rep.get("angle_variance", 0.0),
                                      "unit": "rad2"}}


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------
def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny meshes: checks the harness, not speed")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lagdisc" / "cli.py").is_file():
        print(f"error: no lagdisc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lagdisc.cli
    if Path(lagdisc.cli.__file__).resolve().parent != SRC / "lagdisc":
        print(f"error: imported lagdisc from {lagdisc.cli.__file__}", file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    inputs, make_ops = WORKLOADS[args.workload](rng, args.smoke)
    info = machine()
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {args.workload} seed {args.seed}: {json.dumps(inputs)}")

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "machine": info, "inputs": inputs}
    if args.trace:
        from spans import Recorder
        untraced = run_pass(make_ops())
        rec = Recorder()
        rec.install()
        t0 = time.perf_counter()
        try:
            traced = run_pass(make_ops())
        finally:
            rec.uninstall()
        passes = [untraced, traced]
        metrics = layer_metrics(rec, untraced["wall_s"], traced["wall_s"])
        metrics.update(answer_metrics(passes))
        result["spans"] = {"columns": ["name", "start", "end", "parent", "points"],
                           "rows": rec.span_rows(t0)}
    else:
        setup = measure_setup(SETUP_SAMPLES)
        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < args.seconds:
            passes.append(run_pass(make_ops()))
        result["setup_samples"] = setup
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes),
                       "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] for p in passes),
                      "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }

    records = [r for p in passes for r in p["ops"]]
    failed = [r for r in records if r["failure"]]
    unexpected = [r for r in failed if not r["expected"]]
    attempted = len(records)
    if not args.trace:
        metrics["ok_frac"] = {"value": 1.0 - len(failed) / attempted, "unit": "1"}
    result.update(passes=passes, metrics=metrics, attempted=attempted,
                  failed=len(failed), unexpected_failures=len(unexpected))

    for r in records:
        state = "ok" if not r["failure"] else \
            ("known defect" if r["expected"] else "UNEXPECTED FAILURE")
        print(f"op {r['op']}: {state} ({r['wall_s']:.2f} s)"
              + (f" -- {r['failure']}" if r["failure"] else ""))
    for name, m in metrics.items():
        note = f"  ({spread_note([p[name] for p in passes])})" \
            if name in ("wall_s", "cpu_s") else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(f"failed_frac {len(failed) / attempted:.6g} 1  "
          f"({len(failed)} failed of {attempted} attempted, "
          f"{len(unexpected)} unexpected)")

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
