"""Every module-level import of the package and of the tests is used, the
command line starts without ``scipy.stats`` or ``scipy.optimize``, no
module of the package imports ``scipy.optimize`` at all, only
``dataio`` makes temporary files and renames them into place, only
``nullsim.screen_windows`` and ``cli.cmd_nullsim`` get null models, only
``dataio`` reads a block's dosage store, and every exception class the
package defines is caught somewhere in it."""

import ast
import builtins
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "wavescreen").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_detects_an_unused_import():
    source = "import os\nimport re\nfrom math import pi, tau as t\nprint(re.sub, pi)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: t"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_cli_import_skips_scipy_stats():
    # scipy.stats takes about 0.6 s to import; scipy.special has every
    # distribution function the package evaluates. scipy.optimize, about
    # 0.24 s, is imported by nothing in the package.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, wavescreen.cli; "
            "print('scipy.stats' in sys.modules, 'scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out == "False False\n"


def optimize_imports(source: str) -> list[str]:
    """Lines of the source, at any depth, that import ``scipy.optimize``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == "scipy.optimize" or n.startswith("scipy.optimize.") for n in names):
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_detects_a_scipy_optimize_import():
    source = ("import scipy\nfrom scipy import optimize\ndef f():\n"
              "    from scipy.optimize import minimize\nimport scipy.optimize._minimize\n")
    assert optimize_imports(source) == ["line 2", "line 4", "line 5"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_package_never_imports_scipy_optimize(path):
    assert optimize_imports(path.read_text(encoding="utf-8")) == []


def test_cold_nullsim_skips_scipy_optimize(tmp_path):
    # a run into an empty cache simulates and fits the tail: 4000 draws
    # leave 40 exceedances above the 99% quantile, enough for the fit
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, wavescreen.cli as cli; "
            f"cli.main(['nullsim', '--lambda1', '0.9', '--depth', '3', '--m', '4000', "
            f"'--seed', '1', '--output-dir', {str(tmp_path)!r}]); "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert "shape xi" in out
    assert out.endswith("\nFalse\n")


def file_replacements(source: str) -> list[str]:
    """Lines of the source, at any depth, that name ``tempfile.mkstemp`` or
    ``os.replace``, or import either by name."""
    targets = {("tempfile", "mkstemp"), ("os", "replace")}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            hit = (node.value.id, node.attr) in targets
        elif isinstance(node, ast.ImportFrom):
            hit = any((node.module, alias.name) in targets for alias in node.names)
        else:
            continue
        if hit:
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_detects_a_file_replacement():
    source = ("import os, tempfile\nfd, tmp = tempfile.mkstemp()\ndef f():\n"
              "    os.replace(tmp, 'x')\nfrom os import replace\nos.rename(tmp, 'y')\n")
    assert file_replacements(source) == ["line 2", "line 4", "line 5"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "dataio.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_only_dataio_replaces_files(path):
    # dataio.replace_file writes both caches: a second writer is how the two
    # drifted apart before (one synced its file, the other did not)
    assert file_replacements(path.read_text(encoding="utf-8")) == []


def null_model_callers(source: str) -> list[str]:
    """Functions of the source, by their dotted names within it, that call
    ``load_or_build_null_model`` by name or as an attribute."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and any(
                        isinstance(n, ast.Call) and _name(n.func) == "load_or_build_null_model"
                        for n in ast.walk(child)):
                    found.append(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return sorted(found)


def test_detects_a_null_model_caller():
    source = ("def a():\n    nullsim.load_or_build_null_model(1, 2, 3, 4)\n"
              "def b():\n    return load_or_build_null_model\n"
              "class C:\n    def d(self):\n        def e():\n"
              "            load_or_build_null_model()\n        return e\n")
    assert null_model_callers(source) == ["C.d", "C.d.e", "a"]


def test_only_the_screen_path_and_nullsim_get_null_models():
    # one model per window depth, and how a failed tail fit is reported, is
    # decided in one place: a second caller is how screen and power came to
    # build and report them apart
    callers = [f"{path.stem}.{name}" for path in PACKAGE
               for name in null_model_callers(path.read_text(encoding="utf-8"))]
    assert callers == ["cli.cmd_nullsim", "nullsim.screen_windows"]


def _name(node) -> str:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def uncaught_exception_classes(sources: list[str]) -> list[str]:
    """Exception classes defined in the sources that no ``except`` clause in
    them names."""
    bases, caught = {}, set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [_name(b) for b in node.bases]
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught.update(_name(n) for n in ast.walk(node.type))

    def is_exception(name):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(is_exception(base) for base in bases.get(name, ()))

    return sorted(name for name in bases if is_exception(name) and name not in caught)


def test_detects_an_uncaught_exception_class():
    sources = ["class AError(ValueError):\n    pass\nclass BError(AError):\n    pass\n"
               "class CError(m.AError):\n    pass\nclass Block:\n    pass\n",
               "try:\n    f()\nexcept (m.AError, OSError):\n    pass\n"
               "try:\n    f()\nexcept Block:\n    pass\n"]
    assert uncaught_exception_classes(sources) == ["BError", "CError"]


def test_every_exception_class_is_caught():
    # a class that no except clause names tells callers nothing that
    # ValueError or RuntimeError does not
    assert uncaught_exception_classes([p.read_text(encoding="utf-8") for p in PACKAGE]) == []


def store_reads(source: str) -> list[str]:
    """Lines of the source that read a ``.store`` attribute."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "store"
            and isinstance(node.ctx, ast.Load)]


def test_detects_a_store_read():
    source = ("def f(block, other):\n    x = block.store[3:5]\n    other.store = x\n"
              "    return getattr(block, 'store'), block.dosages(), other.store.shape\n")
    assert store_reads(source) == ["line 2", "line 4"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "dataio.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_only_dataio_reads_the_dosage_store(path):
    # the store's format (codes or float64) is known to dataio alone; every
    # other module reads dosages through ChromosomeBlock.dosages
    assert store_reads(path.read_text(encoding="utf-8")) == []
