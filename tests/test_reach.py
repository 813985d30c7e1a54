"""Which library definitions no other library code names, and which imports no code uses.

A top-level function, class or constant of src/qmarkoff that no other
top-level statement of the package names (ignoring the re-exports of
__init__.py) is reached only from tests.  Such a definition either moves to
tests/oracles.py as a reference, or goes, unless it is allowlisted here.
The same holds for a method or property of a library class that no code
outside its own definition reads as an attribute; operator and other dunder
methods are pinned per class instead, since Python calls them by syntax.
A name a module imports and never uses is what such a move leaves behind.
A memo of the functools cache family sits only where it is allowlisted.
"""

import ast
from pathlib import Path

import qmarkoff

ALLOWED = {
    # the Markoff-property predicate, until a CLI command runs balance <=> Markoff property
    "has_markoff_property_periodic",
}

ALLOWED_MEMBERS = set()

# Every dunder method each library class defines: an operator joins a class only with a caller in src/ and an entry here.
DUNDERS = {
    "IntPolynomial": {"__init__", "__setattr__", "__bool__", "__eq__", "__hash__", "__neg__", "__add__", "__sub__",
                      "__str__", "__repr__"},
    "MarkoffTriple": {"__new__", "__str__"},
    "ChristoffelNode": {"__str__"},
    "Mechanical": {"__new__"},
    "Periodic": {"__new__"},
    "Characteristic": {"__new__"},
    "Skew": {"__new__"},
    "MonotonicityError": {"__init__"},
    "PeriodicCF": {"__new__"},
}

MEMO_DECORATORS = {"lru_cache", "cache", "cached_property"}

MEMOIZED = {
    # bench/tracer.py reads mu_q.cache_info for the morphism.matrix_steps and mu_q_* metrics
    "mu_q",
}

PACKAGE = Path(qmarkoff.__file__).parent


def _statements(package: Path) -> list[ast.stmt]:
    return [
        stmt
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]


def _defined(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a function, a class, or the targets of a constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}


def _unnamed_definitions(package: Path) -> set[str]:
    statements = _statements(package)
    names = [{node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)} for stmt in statements]
    return {
        name
        for i, stmt in enumerate(statements)
        for name in _defined(stmt)
        if not any(name in used for j, used in enumerate(names) if j != i)
    }


def test_definitions_no_library_code_names_are_exactly_the_allowlist():
    assert _unnamed_definitions(PACKAGE) == ALLOWED


def _classes(package: Path) -> list[ast.ClassDef]:
    return [stmt for stmt in _statements(package) if isinstance(stmt, ast.ClassDef)]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _unread_members(package: Path) -> set[str]:
    """Class.member for each method or property that no library code outside its own body reads."""
    reads = [node for stmt in _statements(package) for node in ast.walk(stmt) if isinstance(node, ast.Attribute)]
    unread = set()
    for cls in _classes(package):
        for member in cls.body:
            if isinstance(member, ast.FunctionDef) and not _is_dunder(member.name):
                own = {id(node) for node in ast.walk(member)}
                if not any(node.attr == member.name and id(node) not in own for node in reads):
                    unread.add(f"{cls.name}.{member.name}")
    return unread


def test_members_no_library_code_reads_are_exactly_the_allowlist():
    assert _unread_members(PACKAGE) == ALLOWED_MEMBERS


def test_dunders_of_each_class_are_pinned():
    defined = {
        cls.name: {m.name for m in cls.body if isinstance(m, ast.FunctionDef) and _is_dunder(m.name)}
        for cls in _classes(PACKAGE)
    }
    assert {name: dunders for name, dunders in defined.items() if dunders} == DUNDERS


def _memoized(package: Path) -> set[str]:
    """Class.function or function for each definition that a functools cache decorator wraps."""
    found = set()
    for stmt in _statements(package):
        members = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
        for member in members:
            if not isinstance(member, ast.FunctionDef):
                continue
            for decorator in member.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in MEMO_DECORATORS:
                    found.add(f"{stmt.name}.{member.name}" if member is not stmt else member.name)
    return found


def test_only_allowlisted_definitions_memoize():
    assert _memoized(PACKAGE) == MEMOIZED


def _unused_imports(path: Path) -> set[str]:
    """Names bound by an import in `path` that the rest of the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_library_import_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert {p.name: _unused_imports(p) for p in modules} == {p.name: set() for p in modules}
