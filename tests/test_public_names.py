"""Every public top-level function and class of the package and the bench is used.

A name counts as used when some module other than its own definition's body
mentions it: as a name, an attribute or an imported name. Tests do not
count, so public API that only tests call fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "wavescreen").glob("*.py"), *(ROOT / "bench").glob("*.py")])


def _mentions(node: ast.AST) -> set[str]:
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def unused_public_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each public top-level def or class mentioned only in itself."""
    defined, mentioned = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = _mentions(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if not stmt.name.startswith("_"):
                    defined.append((module, stmt.name))
            mentioned |= names
    return [f"{module}.{name}" for module, name in defined if name not in mentioned]


def test_detects_an_unused_public_name():
    module_a = (
        "import os\n"
        "def used(x):\n"
        "    return os.sep + x\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def _private():\n"
        "    return 0\n"
        "class Lonely:\n"
        "    def make(self):\n"
        "        return Lonely()\n"
        "class Imported:\n"
        "    pass\n"
        "def called_as_attribute():\n"
        "    pass\n"
    )
    module_b = (
        "from a import Imported\n"
        "import a\n"
        "def main():\n"
        "    return a.used(a.called_as_attribute())\n"
        "if __name__ == '__main__':\n"
        "    main()\n"
    )
    assert unused_public_names({"a": module_a, "b": module_b}) == ["a.recursive", "a.Lonely"]


def test_every_public_name_is_used():
    sources = {
        f"{p.parent.name}/{p.stem}": p.read_text(encoding="utf-8") for p in SOURCES
    }
    assert unused_public_names(sources) == []
