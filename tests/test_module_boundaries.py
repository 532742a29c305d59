"""Every module of memlqr reaches the others through their public names only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "memlqr"


def private_imports(path: Path) -> list[str]:
    """'file:line module.name' for each underscore-prefixed name that path imports."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [f"{node.module or ''}.{a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names if any(p.startswith("_") for p in a.name.split("."))]
        else:
            continue
        hits += [f"{path.name}:{node.lineno} {name}" for name in names]
    return hits


def test_no_module_imports_another_modules_private_name():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    assert [hit for path in modules for hit in private_imports(path)] == []


def unused_imports(path: Path) -> list[str]:
    """'file:line name' for each name that path imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__" or isinstance(node, ast.Import):
            bound = [(a.asname or a.name).split(".")[0] for a in node.names]
            hits += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    return hits


def test_no_module_but_the_package_imports_a_name_it_never_uses():
    # __init__ imports to re-export; every other module reads what it imports
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 7
    assert [hit for path in modules for hit in unused_imports(path)] == []
