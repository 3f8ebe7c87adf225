"""The public surface: every exported name has a caller outside its tests."""

import ast
from pathlib import Path

import wrilab

SRC = Path(wrilab.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# exported for the tests alone, each the independent route another result is
# checked against
REFERENCE_ORACLES = (
    # the point-source pressure and velocity at any (z, t); point_forward and
    # the impedance relation are checked against it
    "green_solution",
    # the distributed-source superposition by quadrature; it checks the delta
    # source against green_solution and the velocity sign flip
    "field_solution",
)


def referenced_names(path: Path) -> set:
    """Names read in a module, outside the top-level definition they name."""
    names = set()
    for top in ast.parse(path.read_text()).body:
        own = getattr(top, "name", None)
        names.update(node.id for node in ast.walk(top)
                     if isinstance(node, ast.Name) and node.id != own)
    return names


def test_every_export_has_a_caller():
    used = referenced_names(ACCEPTANCE)
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used |= referenced_names(path)
    uncalled = sorted(set(wrilab.__all__) - used - set(REFERENCE_ORACLES))
    assert uncalled == [], f"exported but reached only by their own tests: {uncalled}"
    assert set(REFERENCE_ORACLES) <= set(wrilab.__all__)
