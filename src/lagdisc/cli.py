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

Every command writes summary.json to --out: its numbers, the config keys
it read, "command" and "pass".  All but masses and dump-mesh also write
the per-level table report.csv; dump-mesh writes mesh.json.  Exit codes:
0 success, 1 usage or configuration error (a flag argparse rejects, a
negative seed, an --out that is a file or lies under one, an example
other than flat, nonminimal or an sw:p,q with a coprime positive pair,
one refinement level for verify-example or stationarity, a verify-example
level with no weak-residual test function, and more than one stationarity
seed included), 2 a built-in check failed, 3 the pipeline raised (the
message names the exception class); --out is created only once the
command has returned, so exits 1 and 3 create no directory.  A JSON
config file supplies defaults; flags override it.  Identical config and
seed produce bitwise-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import residuals as res
from .domains import curve_domain_from_map, unit_ball
from .families import flat_disc, nonminimal_map, sample, sw_cone
from .mesh import _test_set, build_polar_mesh


class ConfigError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):       # exit 1, not argparse's 2 (a failed check)
        raise ConfigError(message)


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
            if not (isinstance(getattr(self, key), str) and getattr(self, key)):
                raise ConfigError(f"{key}: must be a non-empty string")
        out = Path(self.output_dir)
        if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
            raise ConfigError(f"output_dir: {out} is a file or lies under one")
        kind = self.build_example().kind
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
        if not (_is_int(self.refinements) and self.refinements >= 1):
            raise ConfigError("refinements: must be an integer >= 1")
        if (self.command in ("verify-example", "stationarity")
                and self.refinements < 2):
            raise ConfigError(f"refinements: {self.command} needs at least 2")
        if not (isinstance(self.seeds, list) and self.seeds
                and all(_is_int(s) and s >= 0 for s in self.seeds)):
            raise ConfigError("seeds: must be a non-empty list of integers "
                              ">= 0")
        if self.command == "stationarity" and len(self.seeds) > 1:
            raise ConfigError("seeds: stationarity takes exactly one seed")
        if not (_is_real(self.eps) and 0.0 <= self.eps <= 0.1):
            raise ConfigError("eps: must be a number in [0, 0.1]")
        return self

    def build_example(self):
        """The example named by exactly ``flat``, ``nonminimal`` or ``sw:p,q``."""
        if self.example == "flat":
            return flat_disc(np.eye(2))
        if self.example == "nonminimal":
            return nonminimal_map()
        kind, _, pq = self.example.partition(":")
        try:
            if kind != "sw":
                raise ValueError("unknown example")
            p, q = (int(t) for t in pq.split(","))
            return sw_cone(p, q)
        except ValueError as exc:
            raise ConfigError(f"example: {self.example!r}: {exc}")

    def meshes(self, levels=None):
        """The first ``levels`` refinement levels (default: all of them)."""
        R, S, G = int(self.mesh[0]), int(self.mesh[1]), float(self.mesh[2])
        return [build_polar_mesh(R * 2 ** lev, S * 2 ** lev, G)
                for lev in range(self.refinements if levels is None else levels)]


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x):
    return _is_int(x) or isinstance(x, float)


_BOUNDARY_CHECKS = ("legendrian", "conormal", "neumann_trace")
_LEVEL_HEADER = ("example", "domain", "h", "check", "value")


def _cmd_verify_example(cfg, example, domain):
    meshes, exclude = cfg.meshes(), res._report_exclusions(example)
    for m in meshes:
        if not np.any(_test_set(m, exclude)[1]):
            raise ConfigError("mesh: the {n_rings},{n_sectors},{grading} level "
                              "leaves no weak-residual test function clear of "
                              "the singular points".format(**m.polar_info))
    reports = [res.full_report(example, m, domain) for m in meshes]
    rows = [(cfg.example, cfg.domain, rep.h, check, getattr(rep, check))
            for rep in reports for check in res.ResidualReport.CHECKS]
    failures = []
    floor = 1e-12
    persistent = set(_BOUNDARY_CHECKS) if example.kind == "nonminimal" else set()
    for check in res.ResidualReport.CHECKS:
        vals = [getattr(rep, check) for rep in reports]
        if check in persistent:
            continue
        for a, b in zip(vals, vals[1:]):
            if not (b <= a or b <= floor):
                failures.append(f"{check} did not decrease: {a} -> {b}")
    return ((_LEVEL_HEADER, rows),
            {"levels": [rep.to_dict() for rep in reports], "failures": failures},
            not failures)


def _cmd_boundary_report(cfg, example, domain):
    levels = []
    for m in cfg.meshes():
        values = res.boundary_conditions_report(sample(example, m), domain)
        levels.append({"h": m.h_max, **dict(zip(_BOUNDARY_CHECKS, values))})
    rows = [(cfg.example, cfg.domain, lev["h"], check, lev[check])
            for lev in levels for check in _BOUNDARY_CHECKS]
    return (_LEVEL_HEADER, rows), {"levels": levels}, True


def _cmd_stationarity(cfg, example, domain):
    if domain.kind == "levelset":
        fs = res.ball_mixed_batch(seed=cfg.seeds[0])
    else:
        fs = res.curve_report_batch(domain, example, seed=cfg.seeds[0])
    meshes = cfg.meshes()
    vals = [res.stationarity_test(sample(example, m), domain, fs) for m in meshes]
    hs = [m.h_max for m in meshes]
    rows = [(cfg.example, cfg.domain, h, "stationarity", v)
            for h, v in zip(hs, vals)]
    order = res.fit_order(hs, vals)
    return ((_LEVEL_HEADER, rows),
            {"values": vals, "hs": hs,
             "order": None if np.isinf(order) else order},
            bool(order >= 0.8 or np.isinf(order)))


def _cmd_masses(cfg, example, domain):
    if not example.singular_points:
        raise ConfigError("example: no singular point to measure")
    rec = res.singular_masses(example.angle_flux_field, example.singular_points[0],
                              radii=(0.2, 0.35, 0.5))
    return (None,
            {"degree": rec.degree, "flux_mass": rec.flux_mass,
             "degree_spread": rec.degree_spread, "flux_spread": rec.flux_spread,
             "radii": list(rec.radii_used)},
            bool(rec.near_integer and rec.degree_spread <= 1e-8
                 and abs(rec.flux_mass) <= 1e-8))


def _cmd_rigidity(cfg, mesh):
    from .solver import rigidity_experiment     # the one command that loads scipy

    rows, results = [], []
    for seed in cfg.seeds:
        rep, _, hist = rigidity_experiment(seed, cfg.eps, mesh)
        results.append(rep.to_dict())
        for r in hist["rows"]:
            rows.append((seed, r["iter"], r["E"], r["grad_norm"],
                         r["lagrangian"], r["boundary_violation"]))
    return ((("seed", "iter", "E", "grad_norm", "lagrangian",
              "boundary_violation"), rows),
            {"results": results}, all(r["passed"] for r in results))


def _cmd_dump_mesh(cfg, mesh):
    return (None,
            {"nodes": len(mesh.nodes), "triangles": len(mesh.triangles),
             "boundary_edges": len(mesh.boundary_edges)},
            True)


# command -> (function, the RunConfig fields summary.json echoes).  A command
# that echoes "example" is called with the example and the domain (None
# unless it echoes "domain" too); the others with the first-level mesh.
_COMMANDS = {
    "verify-example": (_cmd_verify_example, ("example", "domain")),
    "boundary-report": (_cmd_boundary_report, ("example", "domain")),
    "stationarity": (_cmd_stationarity, ("example", "domain", "seeds")),
    "masses": (_cmd_masses, ("example",)),
    "rigidity": (_cmd_rigidity, ("eps", "seeds")),
    "dump-mesh": (_cmd_dump_mesh, ()),
}
COMMANDS = tuple(_COMMANDS)


def run(cfg: RunConfig) -> int:
    """Execute one validated command, write its files; returns the exit code."""
    cfg.validate()
    t0 = time.time()
    command, keys = _COMMANDS[cfg.command]
    if "example" in keys:
        example = cfg.build_example()
        domain = None
        if "domain" in keys:
            domain = (unit_ball() if cfg.domain == "ball"
                      else curve_domain_from_map(example))
        table, summary, ok = command(cfg, example, domain)
    else:
        mesh = cfg.meshes(1)[0]
        table, summary, ok = command(cfg, mesh)
    # only now: a command that raises leaves no directory behind
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.command == "dump-mesh":
        mesh.dump_json(out / "mesh.json")
    if table is not None:
        header, rows = table
        with open(out / "report.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([repr(float(c)) if isinstance(c, float) else c for c in row]
                        for row in rows)
    summary.update({key: getattr(cfg, key) for key in ("command",) + keys})
    summary["pass"] = ok
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")
    code = 0 if ok else 2
    print(f"{cfg.command}: exit {code} ({time.time() - t0:.1f}s), "
          f"outputs in {out}")
    return code


def parse_args(argv=None) -> RunConfig:
    ap = _ArgumentParser(prog="lagdisc", description=__doc__,
                         formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", type=str, help="JSON config file")
    ap.add_argument("--command", type=str, choices=COMMANDS)
    ap.add_argument("--example", type=str, help="flat | sw:p,q | nonminimal")
    ap.add_argument("--domain", type=str, help="ball | curve")
    ap.add_argument("--mesh", type=str, help="R,S,G")
    ap.add_argument("--refinements", type=int)
    ap.add_argument("--seed", dest="seeds", type=int, action="append",
                    help="repeatable")
    ap.add_argument("--eps", type=float)
    ap.add_argument("--out", dest="output_dir", type=str)
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
    if ns.mesh is not None:
        try:
            r, s, g = ns.mesh.split(",")
            ns.mesh = (int(r), int(s), float(g))
        except ValueError:
            raise ConfigError(f"mesh: cannot parse {ns.mesh!r}")
    keys = [f.name for f in fields(RunConfig)]
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")
    cfg = RunConfig()
    for key in keys:            # a flag overrides the config file
        if getattr(ns, key) is not None:
            setattr(cfg, key, getattr(ns, key))
        elif key in data:
            setattr(cfg, key, data[key])
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
