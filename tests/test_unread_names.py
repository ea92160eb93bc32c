"""Every module-level function, class and constant of the package is read
somewhere in the package or its tests, apart from its own definition: a
name no caller reads is deleted rather than kept. ``__init__`` is left
out, since re-exporting is its purpose. Every module-level function and
class is also read by package code, so no library code lives for its
tests alone, apart from the named exceptions of ``TEST_READ_ONLY``. Every
dataclass field of the package is read as an attribute in the package,
its tests or the benchmarks; an ``InitVar`` is no field."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "perronfem"


def _defined(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _read(tree: ast.Module) -> set:
    """Names loaded bare or as an attribute; an import alone reads none."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_every_module_level_name_is_read():
    files = sorted(SOURCE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in files}
    read = set().union(*map(_read, trees.values()))
    modules = [p for p in trees
               if p.parent == SOURCE and p.name != "__init__.py"]
    assert len(modules) > 5
    unread = {p.stem: sorted(names) for p in modules
              if (names := _defined(trees[p]) - read)}
    assert unread == {}


#: functions and classes that no package code reads, each kept on purpose
TEST_READ_ONLY = {
    # the scalar reference that the vectorised ``_colors`` is tested against
    "svgplot._color",
    # reads the documented dump format; moving it to the tests only
    # moves lines
    "cli.read_kernel_dump",
    # the exported one-march entry points of ``PositivityScan`` and
    # ``WeakResidual``; ``perronfem parabolic`` feeds both from one march
    "parabolic.strong_positivity_check",
    "parabolic.very_weak_residual",
}


def test_every_function_and_class_is_read_by_the_package():
    readers, defined = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            name = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and path.name != "__init__.py":
                name = f"{path.stem}.{node.name}"
                defined.add(name)
            readers.append((name, _read(node)))
    assert len(defined) > 100
    unread = sorted(name for name in defined if not any(
        name.split(".")[1] in read
        for reader, read in readers if reader != name))
    assert unread == sorted(TEST_READ_ONLY)


def _fields(tree: ast.Module) -> set:
    """(class, field) of each dataclass field defined in the module."""
    return {(node.name, item.target.id)
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            and any(ast.unparse(d).split("(")[0] == "dataclass"
                    for d in node.decorator_list)
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            and not ast.unparse(item.annotation).startswith("InitVar[")}


def _attributes_read(tree: ast.Module) -> set:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    sources = sorted(SOURCE.glob("*.py"))
    readers = sources + sorted((ROOT / "tests").glob("*.py")) \
        + sorted((ROOT / "benchmarks").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in readers}
    read = set().union(*map(_attributes_read, trees.values()))
    fields = set().union(*(_fields(trees[p]) for p in sources))
    assert len(fields) > 50
    assert sorted(f"{cls}.{name}" for cls, name in fields
                  if name not in read) == []
