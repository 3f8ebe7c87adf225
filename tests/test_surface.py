"""The public surface: every exported name and public method has a caller
outside its tests."""

import ast
from pathlib import Path

import wrilab

SRC = Path(wrilab.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
CALLER_FILES = [ACCEPTANCE] + [p for p in SRC.glob("*.py") if p.name != "__init__.py"]

# exported for the tests alone, each the independent route another result is
# checked against; a method is named Class.method
REFERENCE_ORACLES = (
    # the point-source pressure and velocity at any (z, t); point_forward and
    # the impedance relation are checked against it
    "green_solution",
    # the distributed-source superposition by quadrature; it checks the delta
    # source against green_solution and the velocity sign flip
    "field_solution",
    # the adjoint by direct evaluation (1/2c) e(t + |z_r - z|/c) with
    # interpolation; adjoint_block's slice transpose is checked against it
    "LinearMap.adjoint_sampling",
)


def referenced_names(path: Path) -> set:
    """Names read in a module, outside the top-level definition they name."""
    names = set()
    for top in ast.parse(path.read_text()).body:
        own = getattr(top, "name", None)
        names.update(node.id for node in ast.walk(top)
                     if isinstance(node, ast.Name) and node.id != own)
    return names


def attribute_reads(path: Path) -> set:
    """Attribute names read in a module, outside the function definition they name."""
    reads = set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr != own):
            reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(path.read_text()), None)
    return reads


def public_methods() -> set:
    """Class.method for every public def in the body of an exported class."""
    methods = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef) and top.name in wrilab.__all__:
                methods.update(f"{top.name}.{node.name}" for node in top.body
                               if isinstance(node, ast.FunctionDef)
                               and not node.name.startswith("_"))
    return methods


def test_every_export_has_a_caller():
    used = set().union(*map(referenced_names, CALLER_FILES))
    uncalled = sorted(set(wrilab.__all__) - used - set(REFERENCE_ORACLES))
    assert uncalled == [], f"exported but reached only by their own tests: {uncalled}"
    assert set(REFERENCE_ORACLES) <= set(wrilab.__all__) | public_methods()


def test_every_public_method_has_a_caller():
    read = set().union(*map(attribute_reads, CALLER_FILES))
    methods = public_methods()
    uncalled = sorted(m for m in methods - set(REFERENCE_ORACLES)
                      if m.split(".")[1] not in read)
    assert uncalled == [], f"public but reached only by their own tests: {uncalled}"
