import csv
import gc
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from lagdisc import cli, solver
from lagdisc import mesh as msh
from lagdisc.mesh import build_polar_mesh, exclusion_masks


def run_cli(*args):
    return cli.main(list(args))


def test_dump_mesh(tmp_path):
    out = tmp_path / "o"
    code = run_cli("--command", "dump-mesh", "--mesh", "2,8,1.0",
                   "--out", str(out))
    assert code == 0
    data = json.loads((out / "mesh.json").read_text())
    assert len(data["nodes"]) == 17
    assert len(data["triangles"]) == 24
    assert len(data["boundary_edges"]) == 8


def test_invalid_combination_exits_1(tmp_path, capsys):
    code = run_cli("--command", "verify-example", "--example", "nonminimal",
                   "--domain", "ball", "--out", str(tmp_path / "o"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_command_exits_1(tmp_path):
    # from a config file and from the flag, which argparse rejects
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "frobnicate"}))
    assert run_cli("--config", str(cfg)) == 1
    assert run_cli("--command", "frobnicate") == 1


@pytest.mark.parametrize("argv", [["--seed", "abc"], ["--refinements", "x"],
                                  ["--command", "bogus"], ["--foo", "1"]])
def test_argparse_usage_errors_exit_1(tmp_path, capsys, argv):
    # not argparse's own exit 2, which would read as a failed check
    out = tmp_path / "o"
    assert run_cli("--command", "dump-mesh", *argv, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    assert "Exit codes" in capsys.readouterr().out


def test_unknown_config_key_exits_1(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "dump-mesh", "bogus": 1}))
    assert run_cli("--config", str(cfg)) == 1


def test_missing_command_exits_1(tmp_path):
    assert run_cli("--out", str(tmp_path / "o")) == 1


def test_verify_example_sw(tmp_path):
    out = tmp_path / "o"
    code = run_cli("--command", "verify-example", "--example", "sw:1,2",
                   "--mesh", "8,32,1.0", "--refinements", "3",
                   "--out", str(out))
    assert code == 0
    lines = (out / "report.csv").read_text().strip().splitlines()
    # header + 3 levels x 9 checks
    assert len(lines) == 1 + 27
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    assert len(summary["levels"]) == 3


def test_masses_sw(tmp_path):
    out = tmp_path / "o"
    assert run_cli("--command", "masses", "--example", "sw:2,3",
                   "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["degree"] == pytest.approx(-1.0, abs=1e-8)
    assert abs(summary["flux_mass"]) <= 1e-8


def test_masses_flat_is_config_error(tmp_path):
    # the error is found while the command builds its inputs: no --out yet
    assert run_cli("--command", "masses", "--example", "flat",
                   "--out", str(tmp_path / "o")) == 1
    assert not (tmp_path / "o").exists()


def test_boundary_report_nonminimal_curve(tmp_path):
    out = tmp_path / "o"
    code = run_cli("--command", "boundary-report", "--example", "nonminimal",
                   "--domain", "curve", "--mesh", "8,32,1.0",
                   "--refinements", "1", "--out", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["levels"][0]["legendrian"] >= 0.5


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "dump-mesh", "mesh": [2, 8, 1.0],
                               "output_dir": str(tmp_path / "a")}))
    code = run_cli("--config", str(cfg), "--out", str(tmp_path / "b"))
    assert code == 0
    assert (tmp_path / "b" / "mesh.json").exists()
    assert not (tmp_path / "a").exists()


def test_string_refinements_exits_1(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "dump-mesh", "refinements": "3"}))
    assert run_cli("--config", str(cfg), "--out", str(tmp_path / "o")) == 1
    assert "refinements" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-example", "stationarity"])
def test_single_refinement_level_exits_1(tmp_path, capsys, command):
    # one level leaves no decrease to check and no order to fit
    code = run_cli("--command", command, "--mesh", "8,32,1.0",
                   "--refinements", "1", "--out", str(tmp_path / "o"))
    assert code == 1
    assert "refinements:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_stationarity_takes_one_seed_and_echoes_it(tmp_path, capsys):
    argv = ("--command", "stationarity", "--mesh", "4,16,1.0",
            "--refinements", "2", "--seed", "7")
    assert run_cli(*argv, "--seed", "8", "--out", str(tmp_path / "a")) == 1
    assert "seeds:" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()
    run_cli(*argv, "--out", str(tmp_path / "b"))
    summary = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert summary["seeds"] == [7]


@pytest.mark.parametrize("example,mesh", [("sw:1,2", "2,8,1.0"),
                                          ("sw:2,3", "2,8,1.0"),
                                          ("sw:1,2", "2,8,0.2"),
                                          ("sw:2,3", "2,8,0.2"),
                                          ("sw:1,2", "3,8,0.2")])
def test_verify_example_without_weak_test_functions_exits_1(
        tmp_path, capsys, example, mesh):
    # on the first level every interior hat function's support meets the
    # ball around the cone point that the weak residuals exclude
    out = tmp_path / "o"
    assert run_cli("--command", "verify-example", "--example", example,
                   "--mesh", mesh, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mesh: ") and mesh in err
    assert not out.exists()


def test_verify_example_with_weak_test_functions_runs(tmp_path):
    assert run_cli("--command", "verify-example", "--example", "sw:1,2",
                   "--mesh", "3,8,0.5", "--out", str(tmp_path / "o")) == 0


def test_verify_example_computes_each_test_set_once(tmp_path, monkeypatch):
    # the CLI's pre-check, the structural residual and both angle residuals
    # of a level share one computation of its exclusion masks
    computed = []

    def counted(mesh, exclude):
        computed.append(len(mesh.nodes))
        return exclusion_masks(mesh, exclude)

    monkeypatch.setattr(msh, "exclusion_masks", counted)
    assert run_cli("--command", "verify-example", "--example", "sw:1,2",
                   "--mesh", "12,48,1.0", "--refinements", "2",
                   "--out", str(tmp_path / "o")) == 0
    assert computed == [1 + 12 * 48, 1 + 24 * 96]


@pytest.mark.parametrize("mesh", ["1,8,1.0", "2,7,1.0", "4,16,0.1"])
def test_mesh_out_of_bounds_exits_1(tmp_path, capsys, mesh):
    code = run_cli("--command", "dump-mesh", "--mesh", mesh,
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert "mesh" in capsys.readouterr().err


def test_rigidity_runs_on_a_mesh_without_half_turn_symmetry(tmp_path):
    # 50 sectors: the triangulation is not invariant under x -> -x
    out = tmp_path / "o"
    code = run_cli("--command", "rigidity", "--mesh", "12,50,1.0",
                   "--out", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [s["reason"] for s in summary["results"][0]["stages"]] \
        == ["converged"] * 3


@pytest.mark.parametrize("bad", [
    {"seeds": 3}, {"seeds": [1.5]}, {"seeds": [-1]}, {"eps": "0.05"},
    {"eps": 0.5}, {"mesh": 5}, {"example": 5}, {"output_dir": 5},
    {"output_dir": ""}, {"output_dir": "c.json"}, {"output_dir": "c.json/o"},
    5, [[1]],
], ids=["seeds-int", "seeds-float", "seeds-negative", "eps-string",
        "eps-large", "mesh-int", "example-int", "output_dir-int",
        "output_dir-empty", "output_dir-file", "output_dir-under-file",
        "not-object-int", "not-object-list"])
def test_config_type_errors_exit_1(tmp_path, monkeypatch, capsys, bad):
    """A wrongly typed key, an output directory that is (or lies under) an
    existing file, or a file whose JSON is not an object at all, is a
    configuration error naming its culprit."""
    monkeypatch.chdir(tmp_path)          # no --out: it would mask output_dir
    cfg = tmp_path / "c.json"
    if isinstance(bad, dict):
        cfg.write_text(json.dumps({"command": "rigidity", **bad}))
        culprit = next(iter(bad))
    else:
        cfg.write_text(json.dumps(bad))
        culprit = "config"
    assert run_cli("--config", str(cfg)) == 1
    assert f"{culprit}:" in capsys.readouterr().err


@pytest.mark.parametrize("example", ["sw:2,4", "sw:0,1", "flat:junk",
                                     "nonminimal:3", "sw", "sw:1,2,3"])
def test_invalid_sw_example_exits_1(tmp_path, capsys, example):
    # exactly flat, nonminimal or sw:p,q with coprime positive p, q
    code = run_cli("--command", "masses", "--example", example,
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert f"example: {example!r}" in capsys.readouterr().err


def _fake_rigidity(seed, eps, mesh):
    report = SimpleNamespace(to_dict=lambda: {"seed": seed, "passed": True})
    return report, None, {"rows": []}


def test_failing_check_exits_2(tmp_path, monkeypatch):
    def failing(seed, eps, mesh):
        report = SimpleNamespace(to_dict=lambda: {"seed": seed, "passed": False})
        return report, None, {"rows": []}

    monkeypatch.setattr(solver, "rigidity_experiment", failing)
    out = tmp_path / "o"
    assert run_cli("--command", "rigidity", "--mesh", "4,16,1.0",
                   "--out", str(out)) == 2
    assert json.loads((out / "summary.json").read_text())["pass"] is False


def test_pipeline_exception_exits_3(tmp_path, monkeypatch, capsys):
    def raising(seed, eps, mesh):
        raise FloatingPointError("descent diverged")

    monkeypatch.setattr(solver, "rigidity_experiment", raising)
    assert run_cli("--command", "rigidity", "--mesh", "4,16,1.0",
                   "--out", str(tmp_path / "o")) == 3
    assert not (tmp_path / "o").exists()
    assert "FloatingPointError: descent diverged" in capsys.readouterr().err


def test_stationarity_nan_level_exits_3(tmp_path, monkeypatch, capsys):
    # a NaN level once gave "order": NaN in summary.json (not JSON) and exit 2
    values = iter([1e-2, float("nan")])
    monkeypatch.setattr(cli.res, "stationarity_test", lambda *a: next(values))
    out = tmp_path / "o"
    assert run_cli("--command", "stationarity", "--mesh", "4,16,1.0",
                   "--refinements", "2", "--out", str(out)) == 3
    assert not out.exists()
    assert "ValueError: fit_order" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rigidity", "dump-mesh"])
def test_single_level_commands_build_one_mesh(tmp_path, monkeypatch, command):
    built = []

    def build(*args):
        built.append(args)
        return build_polar_mesh(*args)

    monkeypatch.setattr(cli, "build_polar_mesh", build)
    monkeypatch.setattr(solver, "rigidity_experiment", _fake_rigidity)
    assert run_cli("--command", command, "--mesh", "4,16,1.0",
                   "--refinements", "3", "--out", str(tmp_path / "o")) == 0
    assert built == [(4, 16, 1.0)]


@pytest.mark.parametrize("argv", [
    ("verify-example", "--example", "sw:1,2"),
    ("stationarity", "--example", "sw:1,2", "--seed", "7"),
    ("boundary-report", "--example", "nonminimal", "--domain", "curve"),
], ids=["verify-example", "stationarity", "boundary-report"])
def test_level_commands_hold_one_mesh_at_a_time(tmp_path, monkeypatch, argv):
    # each level's mesh, and the map sampled on it, is dropped before the
    # next level is built (weak references: a DiscMesh is not hashable)
    refs, held = [], []

    def build(*args):
        gc.collect()
        held.append(sum(r() is not None for r in refs))
        mesh = build_polar_mesh(*args)
        refs.append(weakref.ref(mesh))
        return mesh

    monkeypatch.setattr(cli, "build_polar_mesh", build)
    assert run_cli("--command", *argv, "--mesh", "6,24,1.0", "--refinements", "3",
                   "--out", str(tmp_path / "o")) == 0
    assert held == [0, 0, 0]


@pytest.mark.parametrize("argv", [
    ("--command", "stationarity", "--example", "sw:1,2", "--mesh", "8,32,1.0",
     "--refinements", "2", "--seed", "7"),
    ("--command", "rigidity", "--mesh", "12,48,1.0", "--seed", "3",
     "--eps", "0.03"),
    # 4512 and 18240 elements: the Hessian batches cross block boundaries
    ("--command", "verify-example", "--example", "sw:1,2", "--mesh", "24,96,1.0",
     "--refinements", "2"),
    ("--command", "boundary-report", "--example", "nonminimal", "--domain",
     "curve", "--mesh", "8,32,1.0", "--refinements", "2"),
    ("--command", "masses", "--example", "sw:2,3"),
    ("--command", "dump-mesh", "--mesh", "3,8,1.0"),
], ids=["stationarity", "rigidity", "verify-example", "boundary-report",
        "masses", "dump-mesh"])
def test_determinism_bitwise(tmp_path, argv):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_cli(*argv, "--out", str(out)) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] == outs[1]


def test_determinism_across_processes(tmp_path):
    """Two fresh interpreters with different string-hash seeds write the
    same bytes, so no output depends on hash order."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    outs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(
                   [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
        subprocess.run([sys.executable, "-m", "lagdisc.cli", "--command",
                        "boundary-report", "--example", "nonminimal",
                        "--domain", "curve", "--mesh", "6,24,1.0",
                        "--out", str(out)], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert set(outs[0]) == {"report.csv", "summary.json"}
    assert outs[0] == outs[1]


def test_determinism_across_blas_threads(tmp_path):
    """Two fresh interpreters with one and with two BLAS threads write the
    same bytes, so no reduction's order of summation follows the thread
    count; OpenBLAS splits a reduction only when it is long, hence the
    96x384 level."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
        subprocess.run([sys.executable, "-m", "lagdisc.cli", "--command",
                        "verify-example", "--example", "sw:3,4",
                        "--mesh", "48,192,1.0", "--refinements", "2",
                        "--out", str(out)], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert set(outs[0]) == {"report.csv", "summary.json"}
    assert outs[0] == outs[1]


_FILES = {
    "verify-example": {"report.csv", "summary.json"},
    "boundary-report": {"report.csv", "summary.json"},
    "stationarity": {"report.csv", "summary.json"},
    "masses": {"summary.json"},
    "rigidity": {"report.csv", "summary.json"},
    "dump-mesh": {"mesh.json", "summary.json"},
}


def test_each_command_writes_its_files(tmp_path):
    assert set(_FILES) == set(cli.COMMANDS)
    for command, files in _FILES.items():
        out = tmp_path / command
        example = "sw:2,3" if command == "masses" else "sw:1,2"
        code = run_cli("--command", command, "--example", example,
                       "--mesh", "4,16,1.0", "--refinements", "2",
                       "--out", str(out))
        assert {p.name for p in out.iterdir()} == files, command
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == command
        assert code == (0 if summary["pass"] is True else 2), command


@pytest.fixture(scope="module")
def level_tables(tmp_path_factory):
    """The report.csv rows of each command that writes a per-level table."""
    tables = {}
    for command in ("verify-example", "boundary-report", "stationarity"):
        out = tmp_path_factory.mktemp(command) / "o"
        run_cli("--command", command, "--example", "sw:2,3", "--mesh", "4,16,1.0",
                "--refinements", "2", "--out", str(out))
        with open(out / "report.csv", newline="") as fh:
            tables[command] = list(csv.DictReader(fh))
    return tables


def test_level_table_cells_are_numbers(level_tables):
    for command, rows in level_tables.items():
        assert rows, command
        for row in rows:
            float(row["h"]), float(row["value"])   # not np.float64(...)


def test_level_tables_share_labels(level_tables):
    for command, rows in level_tables.items():
        labels = {(r["example"], r["domain"]) for r in rows}
        assert labels == {("sw:2,3", "ball")}, command


def test_rigidity_command(tmp_path):
    out = tmp_path / "o"
    code = run_cli("--command", "rigidity", "--mesh", "12,48,1.0",
                   "--seed", "3", "--eps", "0.03", "--out", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    result, = summary["results"]
    assert math.isfinite(result["stationarity_certificate"])
    assert [s["reason"] for s in result["stages"]] == ["converged"] * 3
    assert all(set(s) == {"lam1", "lam2", "iters", "reason", "energy_evals",
                          "restarts"} for s in result["stages"])
    assert result["config"] == {"grad_tol": 1e-07, "max_iters": 400, "stages": [
        [10.0, 100.0], [100.0, 1000.0], [1000.0, 10000.0]]}
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "seed,iter,E,grad_norm,lagrangian,boundary_violation"
