"""Which library definitions no other library code names, and which imports no code uses.

A top-level function or class of src/qmarkoff that no other top-level
statement of the package names (ignoring the re-exports of __init__.py) is
reached only from tests.  Such a definition either moves to
tests/oracles.py as a reference, or goes, unless it is allowlisted here.
A name a module imports and never uses is what such a move leaves behind.
"""

import ast
from pathlib import Path

import qmarkoff

ALLOWED = {
    # the Markoff-property predicate, until a CLI command runs balance <=> Markoff property
    "has_markoff_property_periodic",
    # the exact values of the curves export; the CLI prints floats from curve_ratios, its one walk
    "curves_export",
    # the standard-word prefix that acceptance criterion 7 reads; enumerate_factors reads the window
    "characteristic_word",
}

PACKAGE = Path(qmarkoff.__file__).parent


def _unnamed_definitions(package: Path) -> set[str]:
    statements = [
        stmt
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    names = [{node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)} for stmt in statements]
    return {
        stmt.name
        for i, stmt in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not any(stmt.name in used for j, used in enumerate(names) if j != i)
    }


def test_definitions_no_library_code_names_are_exactly_the_allowlist():
    assert _unnamed_definitions(PACKAGE) == ALLOWED


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
