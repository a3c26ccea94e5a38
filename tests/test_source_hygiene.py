"""Source hygiene: every dataclass field declared in the package is read.

A field that no code reads is carried by every constructor call and every
instance for nothing.  The scan is syntactic: a field counts as read when
some attribute of that name is loaded anywhere in ``src/histrio``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "histrio"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return ast.unparse(target).endswith("ClassVar")


def dataclass_fields(trees: dict) -> list[tuple[str, str, str]]:
    """(module, class, field) for every field of every dataclass."""
    out = []
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and not _is_classvar(stmt.annotation)):
                    out.append((path, cls.name, stmt.target.id))
    return out


def attributes_read(trees: dict) -> set[str]:
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read_somewhere():
    trees = {str(p.relative_to(SRC)): ast.parse(p.read_text())
             for p in sorted(SRC.rglob("*.py"))}
    read = attributes_read(trees)
    unread = [f"{path}: {cls}.{name}" for path, cls, name in dataclass_fields(trees)
              if name not in read]
    assert unread == []


def test_the_scan_sees_an_unread_field():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class P:\n"
        "    x: int\n"
        "    y: int\n"
        "def f(p):\n"
        "    return p.x\n")
    trees = {"m.py": tree}
    read = attributes_read(trees)
    assert [f for f in dataclass_fields(trees) if f[2] not in read] == [("m.py", "P", "y")]
