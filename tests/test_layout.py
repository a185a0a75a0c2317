"""Every public name in src/estlab has a user outside its own definition.

A public module-level name (a function, class or constant not starting with
an underscore) must be referenced by some module under src/estlab, or else
by the benchmark harness in perfbench/.  Likewise every public method or
property of a public class must be read as an attribute (``obj.name``) in
one of those modules.  A name that only its own tests call belongs in the
tests.  And no module imports another's underscore-prefixed (private) name.
The package ``__init__`` binds nothing but ``__version__``: each name is
imported from its module.

The layout rules below each confine one kind of code to its home module:
dense factorizations to the test oracle in tests/conftest.py, covariance
contractions to covariance and fisher, 17-digit cell formats and result
tables to experiments, and the handling of estlab's errors to cli.  They
read the code, not its comments.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALL_SRC = sorted((ROOT / "src" / "estlab").glob("*.py"))
SRC = [p for p in ALL_SRC if p.name != "__init__.py"]
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


def test_package_binds_only_its_version():
    statements = [
        ast.unparse(node) for node in _tree(ROOT / "src" / "estlab" / "__init__.py").body
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
    ]
    assert len(statements) == 1 and statements[0].startswith("__version__ = "), (
        f"estlab/__init__.py binds more than __version__: {statements}")


def test_no_module_imports_a_private_name_of_another():
    reached = sorted(
        f"{path.stem} imports {name}"
        for path in SRC
        for name in _private_imports(_tree(path))
    )
    assert not reached, f"private names imported across modules: {reached}"


def _offenders(check, allowed: tuple[str, ...] = ()) -> list[str]:
    """``module:line`` of each node in src/estlab, outside ``allowed``, that ``check`` flags."""
    return [
        f"{path.stem}:{node.lineno}"
        for path in ALL_SRC
        if path.stem not in allowed
        for node in ast.walk(_tree(path))
        if check(node)
    ]


def _last_name(expr: ast.AST) -> str:
    """``f`` of ``f`` or ``a.b.f``, else ''."""
    return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", "")


def _callee(node: ast.AST) -> str:
    """The last name of a call's callee (``f`` in ``a.b.f(...)``), else ''."""
    return _last_name(node.func) if isinstance(node, ast.Call) else ""


def _imports_matkernel(node: ast.AST) -> bool:
    if not isinstance(node, (ast.Import, ast.ImportFrom)):
        return False
    words = (getattr(node, "module", None) or "").split(".")
    for alias in node.names:
        words += [*alias.name.split("."), alias.asname]
    return "matkernel" in words


def _dense_solve(node: ast.AST) -> bool:
    """A call of ``...cholesky``, ``...cho_solve`` or ``...linalg.solve``."""
    callee = _callee(node)
    return callee.endswith(("cholesky", "cho_solve")) or (
        callee == "solve" and isinstance(node.func, ast.Attribute)
        and _last_name(node.func.value).endswith("linalg"))


def test_dense_oracle_only_in_the_tests_and_matkernel_only_symmatrix():
    offenders = _offenders(lambda node: _imports_matkernel(node) or _dense_solve(node),
                           allowed=("matkernel",))
    assert not offenders, (
        "src factors covariances with covariance.Chain; the dense oracle lives in "
        f"tests/conftest.py, and matkernel holds only SymMatrix for the benchmark tracer: "
        f"{offenders}")


def test_study_contractions_only_through_fi_matched():
    offenders = _offenders(
        lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("quad", "form"),
        allowed=("covariance", "fisher"))
    assert not offenders, (
        "studies take (fi, iv) from fisher.fi_matched; only covariance and fisher "
        f"contract a covariance: {offenders}")


def test_csv_cells_formatted_only_in_experiments():
    offenders = _offenders(
        lambda node: isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes))
        and (".17g" if isinstance(node.value, str) else b".17g") in node.value,
        allowed=("experiments",))
    assert not offenders, (
        "results hold str, float and int cells; experiments.write_csv alone formats "
        f"them: {offenders}")


def test_result_tables_built_only_in_experiments():
    offenders = _offenders(lambda node: _callee(node).endswith("SweepResult"),
                           allowed=("experiments",))
    assert not offenders, (
        "every result table is an experiments function's; the CLI parses argv and "
        f"writes what that function returns: {offenders}")


def test_only_the_cli_catches_estlab_errors():
    errors = {node.name for node in _tree(ROOT / "src" / "estlab" / "errors.py").body
              if isinstance(node, ast.ClassDef)}
    offenders = _offenders(
        lambda node: isinstance(node, ast.ExceptHandler) and node.type is not None
        and any(_last_name(name) in errors for name in ast.walk(node.type)),
        allowed=("cli",))
    assert not offenders, (
        "library functions answer or raise; cli.main alone maps an estlab error to "
        f"its exit code: {offenders}")
