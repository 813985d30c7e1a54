"""Which library definitions no other library code names.

A top-level function or class of src/qmarkoff that no other top-level
statement of the package names (ignoring the re-exports of __init__.py) is
reached only from tests.  Such a definition either moves to
tests/oracles.py as a reference, or goes, unless it is allowlisted here.
"""

import ast
from pathlib import Path

import qmarkoff

ALLOWED = {
    # the lemma helpers, until a CLI command runs the lemma suite
    "flip_matrix", "flip_delta", "flip_prefix_delta", "delta_last_letter", "delta_wrap", "positivity_report",
    # the Markoff-property predicate, until a CLI command runs balance <=> Markoff property
    "has_markoff_property_periodic",
    # the word orders that radix_key and plain string comparison realise
    "lex_cmp", "radix_cmp",
}


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
    assert _unnamed_definitions(Path(qmarkoff.__file__).parent) == ALLOWED
