"""Every public name in src/estlab has a user outside its own definition.

A public module-level name (a function, class or constant not starting with
an underscore) must be referenced by some module under src/estlab, or else
by the benchmark harness in perfbench/.  The package ``__init__`` does not
count: re-exporting a name is not using it.  Likewise every public method or
property of a public class must be read as an attribute (``obj.name``) in
one of those modules.  A name that only its own tests call belongs in the
tests.  And no module imports another's underscore-prefixed (private) name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(p for p in (ROOT / "src" / "estlab").glob("*.py") if p.name != "__init__.py")
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defined(tree: ast.Module) -> set[str]:
    """Public names bound at module level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _referenced(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _members(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, member) for each public method or property of a public class."""
    return {
        (node.name, item.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    }


def _attributes_read(tree: ast.Module) -> set[str]:
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_member_is_read_outside_the_tests():
    trees = {path: _tree(path) for path in SRC}
    read = set()
    for tree in [*trees.values(), *map(_tree, PERFBENCH)]:
        read |= _attributes_read(tree)
    unread = sorted(
        f"{path.stem}.{cls}.{name}"
        for path, tree in trees.items()
        for cls, name in _members(tree)
        if name not in read
    )
    assert not unread, f"public members read by nothing outside the tests: {unread}"


def test_every_public_src_name_is_used_outside_its_definition():
    trees = {path: _tree(path) for path in SRC}
    used = set()
    for tree in [*trees.values(), *map(_tree, PERFBENCH)]:
        used |= _referenced(tree)
    unused = sorted(
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name in _defined(tree) - used
    )
    assert not unused, f"public names used by nothing outside their tests: {unused}"


def _private_imports(tree: ast.Module) -> set[str]:
    """Private names this module imports from estlab (``from .x import _y``); dunders are not private."""
    return {
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "estlab")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    }


def test_no_module_imports_a_private_name_of_another():
    reached = sorted(
        f"{path.stem} imports {name}"
        for path in SRC
        for name in _private_imports(_tree(path))
    )
    assert not reached, f"private names imported across modules: {reached}"
