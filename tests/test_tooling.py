"""Guards for the names the benchmark's span recorder wraps.

``bench/spans.py`` patches public names of every module from outside the
package (``bench/run.py --trace 1``); a rename under ``src/`` breaks it
without failing any other test.  This loads the recorder from its file,
installs and uninstalls it around a few calls, and checks that every
``__all__`` entry of every module resolves.  It also checks that the
package defines no exception class but the CLI's ``ConfigError``, that
importing the CLI loads no scipy module and that only the rigidity
command does, that no module, test or demo imports a name it never uses,
and that the package reads every private function, class and module
constant it defines, and that every command line README.md shows parses.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

import lagdisc
from lagdisc import domains as dom
from lagdisc import families as fam
from lagdisc import hamiltonians as hams
from lagdisc import mesh as msh

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


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
        monkeypatch.setattr(sol, "MAX_ITERS", 2)
        sol.minimize(u, dom.unit_ball())
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


def _run_fresh(code, **kwargs):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    package, with ``scipy_loaded()`` listing the scipy modules it holds."""
    src = str(Path(lagdisc.__file__).resolve().parent.parent)
    prelude = (f"import sys\nsys.path.insert(0, {src!r})\n"
               "def scipy_loaded():\n"
               "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n")
    subprocess.run([sys.executable, "-c", prelude + code], check=True, **kwargs)


def test_cli_import_loads_no_scipy():
    """Only the rigidity descent factors a sparse matrix: no process that
    imports the CLI pays for any scipy module."""
    _run_fresh("import lagdisc.cli\n"
               "assert not scipy_loaded(), scipy_loaded()\n")


def test_only_the_rigidity_command_loads_scipy(tmp_path):
    """The five verification commands run on numpy alone, while rigidity
    still loads the sparse solver; every ``lagdisc.__all__`` name resolves
    after a bare ``import lagdisc``, ``solver`` on first access."""
    _run_fresh(f"""
from lagdisc import cli
out = {str(tmp_path)!r}
for command, example in [("verify-example", "sw:1,2"), ("stationarity", "sw:1,2"),
                         ("boundary-report", "sw:1,2"), ("masses", "sw:2,3"),
                         ("dump-mesh", "sw:1,2")]:
    code = cli.main(["--command", command, "--example", example, "--mesh", "4,16,1.0",
                     "--refinements", "2", "--out", f"{{out}}/{{command}}"])
    assert code in (0, 2), (command, code)
    assert not scipy_loaded(), (command, scipy_loaded())
code = cli.main(["--command", "rigidity", "--mesh", "4,16,1.0",
                 "--out", f"{{out}}/rigidity"])
assert code in (0, 2), code
assert "scipy.sparse.linalg" in sys.modules, scipy_loaded()
""", stdout=subprocess.DEVNULL)
    _run_fresh("import lagdisc\n"
               "assert 'lagdisc.solver' not in sys.modules\n"
               "for name in lagdisc.__all__:\n"
               "    getattr(lagdisc, name)\n"
               "assert lagdisc.solver is sys.modules['lagdisc.solver']\n")


def _unused_imports(path):
    """Names that a file imports but never reads; an ``__all__`` entry
    counts as a read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    files = [p for d in ("src/lagdisc", "tests", "demos")
             for p in sorted((ROOT / d).glob("*.py"))]
    assert len(files) > 20
    assert [u for p in files for u in _unused_imports(p)] == []


def test_no_unread_private_names():
    """Every ``_name`` function or class at module or class level, and every
    module-level UPPER_CASE constant, is read somewhere in ``src/lagdisc``
    as a loaded name or an attribute; code that only tests read goes."""
    defined, read = [], set()
    for path in sorted((ROOT / "src" / "lagdisc").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(ROOT)
        for body in [tree.body] + [n.body for n in tree.body
                                   if isinstance(n, ast.ClassDef)]:
            defined += [(f"{where}:{n.lineno}", n.name) for n in body
                        if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                        and re.fullmatch(r"_[^_].*", n.name)]
        for n in tree.body:
            targets = (n.targets if isinstance(n, ast.Assign)
                       else [n.target] if isinstance(n, ast.AnnAssign) else [])
            defined += [(f"{where}:{n.lineno}", t.id)
                        for target in targets
                        for t in ast.walk(target)
                        if isinstance(t, ast.Name)
                        and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    assert len(defined) > 50
    assert [f"{loc} {name}" for loc, name in defined if name not in read] == []


def test_readme_command_lines_parse():
    """Every ``lagdisc --command`` line of README.md's "Command line" block
    (with its backslash continuations joined) parses and validates, so the
    README cannot show a flag that the parser no longer has."""
    from lagdisc import cli
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line) for line in lines if line.startswith("lagdisc --command")]
    assert len(argvs) >= 4
    for argv in argvs:
        cli.parse_args(argv[1:]).validate()
