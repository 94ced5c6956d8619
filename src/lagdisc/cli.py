"""Command-line front end.

Commands
--------
verify-example   residual report across refinement levels, with the
                 decrease-or-floor assertion on every check
boundary-report  the three boundary-condition residuals per level
stationarity     stationarity residual per level plus its fitted order
masses           degree/flux record of the angle field at the origin
rigidity         the flat-disc rigidity experiment over a seed list
dump-mesh        write the mesh as JSON

Outputs land in --out as report.csv / summary.json / mesh.json.  Exit
codes: 0 success, 1 usage or configuration error, 2 a built-in check
failed, 3 the pipeline raised (the message names the exception class).
A JSON config file supplies defaults; flags override it.  Identical
config and seed produce bitwise-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import residuals as res
from .domains import curve_domain_from_map, unit_ball
from .families import flat_disc, nonminimal_map, sample, sw_cone
from .mesh import build_polar_mesh
from .solver import SolverConfig, rigidity_experiment

COMMANDS = ("verify-example", "boundary-report", "stationarity", "masses",
            "rigidity", "dump-mesh")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str = ""
    example: str = "sw:1,2"
    domain: str = "ball"
    mesh: tuple = (24, 96, 1.0)
    refinements: int = 3
    seeds: list = field(default_factory=lambda: [1])
    output_dir: str = "out"
    eps: float = 0.05

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"command: unknown command {self.command!r}")
        for key in ("example", "domain", "output_dir"):
            if not isinstance(getattr(self, key), str):
                raise ConfigError(f"{key}: must be a string")
        kind = self.example.split(":")[0]
        if kind not in ("flat", "sw", "nonminimal"):
            raise ConfigError(f"example: unknown example {self.example!r}")
        if self.domain not in ("ball", "curve"):
            raise ConfigError(f"domain: unknown domain {self.domain!r}")
        if self.domain == "curve" and kind != "nonminimal":
            raise ConfigError("domain: curve domain is only valid with the "
                              "nonminimal example")
        if kind == "nonminimal" and self.domain != "curve":
            raise ConfigError("example: the nonminimal example requires the "
                              "curve domain")
        if not (isinstance(self.mesh, (list, tuple)) and len(self.mesh) == 3):
            raise ConfigError("mesh: expected R,S,G")
        R, S, G = self.mesh
        if not (_is_int(R) and _is_int(S) and R >= 2 and S >= 8):
            raise ConfigError("mesh: R and S must be integers with R >= 2 "
                              "and S >= 8")
        if not (_is_real(G) and 0.2 <= G <= 1.0):
            raise ConfigError("mesh: G must be a number in [0.2, 1]")
        if self.command == "rigidity" and S % 4:
            raise ConfigError("mesh: rigidity needs S % 4 == 0 (odd maps)")
        if not (_is_int(self.refinements) and self.refinements >= 1):
            raise ConfigError("refinements: must be an integer >= 1")
        if not (isinstance(self.seeds, list) and self.seeds
                and all(_is_int(s) for s in self.seeds)):
            raise ConfigError("seeds: must be a non-empty list of integers")
        if not (_is_real(self.eps) and 0.0 <= self.eps <= 0.1):
            raise ConfigError("eps: must be a number in [0, 0.1]")
        return self

    def build_example(self):
        kind = self.example.split(":")[0]
        if kind == "flat":
            return flat_disc(np.eye(2))
        if kind == "sw":
            try:
                p, q = (int(t) for t in self.example.split(":")[1].split(","))
            except (IndexError, ValueError):
                raise ConfigError(f"example: cannot parse {self.example!r}")
            return sw_cone(p, q)
        return nonminimal_map()

    def build_domain(self, example):
        if self.domain == "ball":
            return unit_ball()
        return curve_domain_from_map(example)

    def meshes(self, levels=None):
        """The first ``levels`` refinement levels (default: all of them)."""
        R, S, G = int(self.mesh[0]), int(self.mesh[1]), float(self.mesh[2])
        return [build_polar_mesh(R * 2 ** lev, S * 2 ** lev, G)
                for lev in range(self.refinements if levels is None else levels)]


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x):
    return _is_int(x) or isinstance(x, float)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(c) if isinstance(c, float) else c for c in row])


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _cmd_verify_example(cfg, out):
    example = cfg.build_example()
    domain = cfg.build_domain(example)
    reports = [res.full_report(example, m, domain) for m in cfg.meshes()]
    rows = [r for rep in reports for r in rep.csv_rows()]
    _write_csv(out / "report.csv", ("example", "domain", "h", "check", "value"),
               rows)
    failures = []
    floor = 1e-12
    persistent = {"legendrian", "conormal", "neumann_trace"} \
        if example.kind == "nonminimal" else set()
    for check in res.ResidualReport.CHECKS:
        vals = [getattr(rep, check) for rep in reports]
        if check in persistent:
            continue
        for a, b in zip(vals, vals[1:]):
            if not (b <= a or b <= floor):
                failures.append(f"{check} did not decrease: {a} -> {b}")
    summary = {
        "command": cfg.command, "example": cfg.example, "domain": cfg.domain,
        "levels": [rep.to_dict() for rep in reports],
        "failures": failures, "pass": not failures,
    }
    _write_json(out / "summary.json", summary)
    return 0 if not failures else 2


def _cmd_boundary_report(cfg, out):
    example = cfg.build_example()
    domain = cfg.build_domain(example)
    rows, levels = [], []
    for m in cfg.meshes():
        u = sample(example, m)
        leg, con, neu = res.boundary_conditions_report(u, domain)
        levels.append({"h": m.h_max, "legendrian": leg, "conormal": con,
                       "neumann_trace": neu})
        for check, v in (("legendrian", leg), ("conormal", con),
                         ("neumann_trace", neu)):
            rows.append((cfg.example, cfg.domain, m.h_max, check, v))
    _write_csv(out / "report.csv", ("example", "domain", "h", "check", "value"),
               rows)
    _write_json(out / "summary.json",
                {"command": cfg.command, "example": cfg.example,
                 "domain": cfg.domain, "levels": levels, "pass": True})
    return 0


def _cmd_stationarity(cfg, out):
    example = cfg.build_example()
    domain = cfg.build_domain(example)
    if domain.kind == "levelset":
        fs = res.ball_mixed_batch(domain, seed=cfg.seeds[0])
    else:
        fs = res.curve_report_batch(domain, example, seed=cfg.seeds[0])
    rows, vals, hs = [], [], []
    for m in cfg.meshes():
        u = sample(example, m)
        v = res.stationarity_test(u, domain, fs)
        rows.append((cfg.example, cfg.domain, m.h_max, "stationarity", v))
        vals.append(v)
        hs.append(m.h_max)
    order = res.fit_order(hs, vals)
    _write_csv(out / "report.csv", ("example", "domain", "h", "check", "value"),
               rows)
    ok = bool(order >= 0.8 or np.isinf(order))
    _write_json(out / "summary.json",
                {"command": cfg.command, "example": cfg.example,
                 "domain": cfg.domain, "values": vals, "hs": hs,
                 "order": None if np.isinf(order) else order, "pass": ok})
    return 0 if ok else 2


def _cmd_masses(cfg, out):
    example = cfg.build_example()
    if not example.singular_points:
        raise ConfigError("example: no singular point to measure")
    rec = res.singular_masses(example.angle_flux_field, example.singular_points[0],
                              radii=(0.2, 0.35, 0.5))
    ok = bool(rec.near_integer and rec.degree_spread <= 1e-8
              and abs(rec.flux_mass) <= 1e-8)
    _write_json(out / "summary.json",
                {"command": cfg.command, "example": cfg.example,
                 "degree": rec.degree, "flux_mass": rec.flux_mass,
                 "degree_spread": rec.degree_spread,
                 "flux_spread": rec.flux_spread,
                 "radii": list(rec.radii_used), "pass": ok})
    return 0 if ok else 2


def _cmd_rigidity(cfg, out):
    mesh = cfg.meshes(1)[0]
    rows, results = [], []
    for seed in cfg.seeds:
        rep, _, hist = rigidity_experiment(seed, cfg.eps, mesh, SolverConfig())
        results.append(rep.to_dict())
        for r in hist["rows"]:
            rows.append((seed, r["iter"], r["E"], r["grad_norm"],
                         r["lagrangian"], r["boundary_violation"]))
    _write_csv(out / "report.csv",
               ("seed", "iter", "E", "grad_norm", "lagrangian",
                "boundary_violation"), rows)
    ok = all(r["passed"] for r in results)
    _write_json(out / "summary.json",
                {"command": cfg.command, "eps": cfg.eps,
                 "seeds": list(cfg.seeds), "results": results, "pass": ok})
    return 0 if ok else 2


def _cmd_dump_mesh(cfg, out):
    mesh = cfg.meshes(1)[0]
    mesh.dump_json(out / "mesh.json")
    _write_json(out / "summary.json",
                {"command": cfg.command, "nodes": len(mesh.nodes),
                 "triangles": len(mesh.triangles),
                 "boundary_edges": len(mesh.boundary_edges), "pass": True})
    return 0


_DISPATCH = {
    "verify-example": _cmd_verify_example,
    "boundary-report": _cmd_boundary_report,
    "stationarity": _cmd_stationarity,
    "masses": _cmd_masses,
    "rigidity": _cmd_rigidity,
    "dump-mesh": _cmd_dump_mesh,
}


def run(cfg: RunConfig) -> int:
    """Execute one validated command; returns the process exit code."""
    cfg.validate()
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    code = _DISPATCH[cfg.command](cfg, out)
    print(f"{cfg.command}: exit {code} ({time.time() - t0:.1f}s), "
          f"outputs in {out}")
    return code


def parse_args(argv=None) -> RunConfig:
    ap = argparse.ArgumentParser(prog="lagdisc", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", type=str, default=None, help="JSON config file")
    ap.add_argument("--command", type=str, default=None, choices=COMMANDS)
    ap.add_argument("--example", type=str, default=None,
                    help="flat | sw:p,q | nonminimal")
    ap.add_argument("--domain", type=str, default=None, help="ball | curve")
    ap.add_argument("--mesh", type=str, default=None, help="R,S,G")
    ap.add_argument("--refinements", type=int, default=None)
    ap.add_argument("--seed", type=int, action="append", default=None,
                    help="repeatable")
    ap.add_argument("--eps", type=float, default=None)
    ap.add_argument("--out", type=str, default=None)
    ns = ap.parse_args(argv)

    data = {}
    if ns.config:
        try:
            with open(ns.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: {exc}")
        if not isinstance(data, dict):
            raise ConfigError(f"config: expected a JSON object, got "
                              f"{type(data).__name__}")
    cfg = RunConfig()
    keys = ("command", "example", "domain", "mesh", "refinements", "seeds",
            "output_dir", "eps")
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")
    for key in keys:
        if key in data:
            setattr(cfg, key, data[key])

    if ns.command:
        cfg.command = ns.command
    if ns.example:
        cfg.example = ns.example
    if ns.domain:
        cfg.domain = ns.domain
    if ns.mesh:
        try:
            r, s, g = ns.mesh.split(",")
            cfg.mesh = (int(r), int(s), float(g))
        except ValueError:
            raise ConfigError(f"mesh: cannot parse {ns.mesh!r}")
    if ns.refinements is not None:
        cfg.refinements = ns.refinements
    if ns.seed:
        cfg.seeds = list(ns.seed)
    if ns.eps is not None:
        cfg.eps = ns.eps
    if ns.out:
        cfg.output_dir = ns.out
    if not cfg.command:
        raise ConfigError("command: required (flag --command or config file)")
    return cfg


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv)
        return run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a pipeline raised: not a failed check
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
