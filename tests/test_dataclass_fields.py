"""Every field of a package dataclass is read as an attribute somewhere in the package."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "wavescreen").glob("*.py"))


def _is_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr == "dataclass"
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def unread_fields(sources: list[str]) -> list[str]:
    """``Class.field`` for each dataclass field that no source reads as ``x.field``."""
    trees = [ast.parse(source) for source in sources]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    read = {
        n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return [
        f"{cls.name}.{stmt.target.id}"
        for cls in nodes
        if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list))
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read
    ]


def test_detects_an_unread_field():
    module_a = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Kept:\n"
        "    read_here: int\n"
        "    only_stored: int\n"
        "    read_elsewhere: int = 0\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Frozen:\n"
        "    never: str\n"
        "class Plain:\n"
        "    annotated: int\n"
        "def use(k):\n"
        "    k.only_stored = k.read_here\n"
        "    return Kept(read_here=1, only_stored=2, never=3)\n"
    )
    module_b = "def other(k):\n    return k.read_elsewhere\n"
    assert unread_fields([module_a, module_b]) == ["Kept.only_stored", "Frozen.never"]


def test_every_dataclass_field_is_read():
    assert unread_fields([p.read_text(encoding="utf-8") for p in SOURCES]) == []
