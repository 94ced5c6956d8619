import csv
import json
import math
from types import SimpleNamespace

import pytest

from lagdisc import cli
from lagdisc.mesh import build_polar_mesh


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
    # argparse rejects unknown choices with SystemExit(2): catch via config path
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "frobnicate"}))
    assert run_cli("--config", str(cfg)) == 1


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


def _fake_rigidity(seed, eps, mesh, cfg):
    report = SimpleNamespace(to_dict=lambda: {"seed": seed, "passed": True})
    return report, None, {"rows": []}


def test_failing_check_exits_2(tmp_path, monkeypatch):
    def failing(seed, eps, mesh, cfg):
        report = SimpleNamespace(to_dict=lambda: {"seed": seed, "passed": False})
        return report, None, {"rows": []}

    monkeypatch.setattr(cli, "rigidity_experiment", failing)
    out = tmp_path / "o"
    assert run_cli("--command", "rigidity", "--mesh", "4,16,1.0",
                   "--out", str(out)) == 2
    assert json.loads((out / "summary.json").read_text())["pass"] is False


def test_pipeline_exception_exits_3(tmp_path, monkeypatch, capsys):
    def raising(seed, eps, mesh, cfg):
        raise FloatingPointError("descent diverged")

    monkeypatch.setattr(cli, "rigidity_experiment", raising)
    assert run_cli("--command", "rigidity", "--mesh", "4,16,1.0",
                   "--out", str(tmp_path / "o")) == 3
    assert not (tmp_path / "o").exists()
    assert "FloatingPointError: descent diverged" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rigidity", "dump-mesh"])
def test_single_level_commands_build_one_mesh(tmp_path, monkeypatch, command):
    built = []

    def build(*args):
        built.append(args)
        return build_polar_mesh(*args)

    monkeypatch.setattr(cli, "build_polar_mesh", build)
    monkeypatch.setattr(cli, "rigidity_experiment", _fake_rigidity)
    assert run_cli("--command", command, "--mesh", "4,16,1.0",
                   "--refinements", "3", "--out", str(tmp_path / "o")) == 0
    assert built == [(4, 16, 1.0)]


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
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "seed,iter,E,grad_norm,lagrangian,boundary_violation"
