"""Every module-level import of the package and of the tests is used, and
the command line starts without ``scipy.stats`` or ``scipy.optimize``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "wavescreen").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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
    # 0.24 s, is imported by the tail fit, the first time one runs.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, wavescreen.cli; "
            "print('scipy.stats' in sys.modules, 'scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out == "False False\n"
