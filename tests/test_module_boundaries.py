"""The closed route stays inside invariants: no other module of the
library names the form tables, the form evaluator or the closed pair
coefficient in code (prose may mention them)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "steklov_zeta"

PRIVATE = {"_form_sum", "_form_table", "_table_block", "_pair_coeff_closed"}
# the campaign reaches the closed route through invariants._closed_forms
EXPLORER = PRIVATE | {"z2_coeff_closed", "ring"}


def _names(path: Path) -> set:
    """Every name, attribute and imported name the module's code uses."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
            found.add(node.asname)
    return found


@pytest.mark.parametrize("module", sorted(
    p.name for p in SRC.glob("*.py") if p.name != "invariants.py"))
def test_only_invariants_names_the_closed_route_internals(module):
    forbidden = EXPLORER if module == "explorer.py" else PRIVATE
    assert _names(SRC / module) & forbidden == set()


def test_explorer_imports_only_rational_complex_from_scalars():
    tree = ast.parse((SRC / "explorer.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "scalars" for alias in node.names]
    assert imported == ["RationalComplex"]
