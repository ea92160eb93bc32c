"""Every name a package module imports is read in that module: a name kept
only for outside code to find (a benchmark wrapper, say) is not part of
the module. ``__init__`` is left out, since re-exporting is its purpose."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "perronfem"


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "import a.b" binds a; "import a.b as c" and "from a import b
            # as c" bind c
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_every_imported_name_is_used():
    modules = sorted(p for p in SOURCE.glob("*.py")
                     if p.name != "__init__.py")
    assert len(modules) > 5
    unused = {p.stem: names for p in modules
              if (names := _unused_imports(p))}
    assert unused == {}
