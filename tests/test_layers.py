"""Module boundaries.  The solver without its oracles: check-only code
lives in ``verify``, no solver module imports it, only ``vstates check``
loads it, and its names are read from ``verify`` alone (``specfun``
forwards only the benchmark gate's ``lambda_integral_oracle``).  The
branch JSON format has one owner, ``BranchRun``: ``cli`` keeps only the
file I/O.  Each public name is written once, in its layer's ``__all__``,
and the package's ``__all__`` is the union of the solver layers' and
``errors``'."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqg_vstates
from sqg_vstates import specfun, verify

PACKAGE = Path(sqg_vstates.__file__).resolve().parent

MOVED = ("pochhammer_ratio", "gauss_2f1", "gauss_2f1_euler", "contiguous_residuals",
         "lambda_integral_oracle")


def test_moved_oracles_are_defined_once_in_verify():
    for name in MOVED + ("adaptive_quad",):
        assert getattr(verify, name).__module__ == "sqg_vstates.verify"
        assert name in verify.__all__
    assert importlib.util.find_spec("sqg_vstates.quadrature") is None
    assert specfun.__all__ == ["s_sum", "lambda_coeff", "AnnulusConstants"]


@pytest.mark.parametrize("name", MOVED)
def test_specfun_names_resolve_to_verify(name):
    # specfun forwards only the oracle the benchmark's diagram gate reads
    assert name not in vars(specfun)
    if name == "lambda_integral_oracle":
        assert specfun.lambda_integral_oracle is verify.lambda_integral_oracle
    else:
        with pytest.raises(AttributeError, match=name):
            getattr(specfun, name)


@pytest.mark.parametrize("name", MOVED + ("CheckReport", "run_default_suite",
                                          "eigenvalue_monotonicity_scan"))
def test_package_names_resolve_to_verify(name):
    # the one package name of each oracle-suite object is sqg_vstates.verify.<name>
    assert getattr(sqg_vstates.verify, name) is getattr(verify, name)
    assert name not in sqg_vstates.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(sqg_vstates, name)


def test_package_defines_no_module_getattr():
    assert "__getattr__" not in vars(sqg_vstates)


PUBLIC = [
    "AnnulusConstants", "BoundaryCollision", "BranchPoint", "BranchRun", "KernelVector",
    "ModeMatrix", "NoConvergence", "NotAnEigenvalue", "NotSimple", "PatchPair",
    "PreconditionError", "ResidualSpectrum", "SingularJacobian", "Spectrum",
    "VStatesError", "annulus_patch", "bifurcation_row", "boundary_samples",
    "branch_continue", "discriminant", "kernel_vector", "lambda_coeff", "mode_matrix",
    "newton_correct", "quadratic_coeffs", "residual", "s_sum", "spectrum_columns",
    "threshold_N",
]


def test_package_all_is_the_union_of_the_layers():
    assert len(PUBLIC) == 29
    assert sqg_vstates.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(sqg_vstates, name) is not None


def test_spectrum_holds_no_check_only_code():
    tree = ast.parse((PACKAGE / "spectrum.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not {"eigenvalue_monotonicity_scan", "matrix"} & defined
    assert "bifurcation_row" in defined


@pytest.mark.parametrize("module", [sqg_vstates, specfun])
def test_unknown_attribute_still_raises(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def _verify_imports(path: Path) -> list[str]:
    """The top-level definition holding each import of ``verify`` in the
    module at ``path`` ("<module>" for a module-level import).  Counts
    ``import``/``from`` statements naming the module and any call of
    ``import_module`` or ``__import__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                names = ["verify"] if called in ("import_module", "__import__") else []
            else:
                continue
            if any(n.split(".")[-1] == "verify" for n in names):
                found.append(owner)
    return found


@pytest.mark.parametrize("module", ["spectrum", "contour", "errors"])
def test_solver_modules_never_import_verify(module):
    assert _verify_imports(PACKAGE / f"{module}.py") == []


def test_specfun_imports_verify_only_in_its_name_shim():
    assert _verify_imports(PACKAGE / "specfun.py") == ["__getattr__"]


def test_cli_imports_verify_only_in_cmd_check():
    assert _verify_imports(PACKAGE / "cli.py") == ["cmd_check"]


def test_only_check_loads_verify(tmp_path):
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    branch = tmp_path / "b.json"
    argvs = [["spectrum", "--b", "0.5", "--out", str(tmp_path / "s.csv")],
             ["threshold", "--b", "0.5"],
             ["branch", "--b", "0.6", "--m", "5", "--modes", "8", "--steps", "1",
              "--out", str(branch)],
             ["render", str(branch), "--out", str(tmp_path / "b.svg")],
             ["check", "--format", "json", "--out", str(tmp_path / "check.json")]]
    code = ("import json, sys\n"
            "from sqg_vstates.cli import main\n"
            "loaded = ['sqg_vstates.verify' in sys.modules]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "    loaded.append('sqg_vstates.verify' in sys.modules)\n"
            "print(json.dumps(loaded))\n")
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(done.stdout.splitlines()[-1]) == [False] * 5 + [True]


def test_cli_leaves_the_branch_format_to_branch_run():
    # every identifier cli.py names, uses, defines or imports
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = {getattr(node, key) for node in ast.walk(tree) for key in ("id", "attr", "name")
             if isinstance(getattr(node, key, None), str)}
    assert "PatchPair" not in names
    assert not [name for name in names if "SCHEMA" in name]
    assert not {"_branch_payload", "_validate_branch_json"} & names
    assert {"from_dict", "to_dict"} <= names


def test_cli_writes_output_in_one_place():
    # every file cli.py opens, and every write to standard output, by the
    # top-level definition holding it; print writes to stderr only
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    opened, stdout, prints = [], [], []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                opened.append((owner, [ast.literal_eval(m) for m in modes]))
            elif isinstance(func, ast.Name) and func.id == "print":
                prints.append(ast.unparse(next((k.value for k in node.keywords
                                                if k.arg == "file"), ast.Constant(None))))
            elif ast.unparse(func) == "sys.stdout.write":
                stdout.append(owner)
    assert sorted(opened) == [("_write", ["wb"]), ("cmd_render", ["r"])]
    assert stdout == ["_write"]
    assert prints and set(prints) == {"sys.stderr"}


def test_demos_write_files_in_binary():
    # a demo writes the bytes the command line writes: no write_text, and
    # no open() for writing in text mode, which translates line ends
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert demos
    text_writes = []
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                # builtin open(file, mode) or Path.open(mode)
                modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
                modes += [k.value for k in node.keywords if k.arg == "mode"]
                mode = ast.literal_eval(modes[0]) if modes else "r"
                text = bool(set(mode) & set("wax+")) and "b" not in mode
            if name == "write_text" or name == "open" and text:
                text_writes.append(f"{path.name}:{node.lineno}")
    assert text_writes == []
