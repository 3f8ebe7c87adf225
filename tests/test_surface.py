"""The public surface: every public module-level name and every public method
in the package has a caller outside its tests, and every private helper is
read in the package."""

import ast
from pathlib import Path

import wrilab

SRC = Path(wrilab.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CALLER_FILES = [ACCEPTANCE] + MODULES

def referenced_names(path: Path) -> set:
    """Names read in a module, outside the top-level definition they name."""
    names = set()
    for top in ast.parse(path.read_text()).body:
        own = getattr(top, "name", None)
        names.update(node.id for node in ast.walk(top)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                     and node.id != own)
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


def definitions(path: Path) -> set:
    """Module-level functions, classes and assigned names, dunder names aside."""
    names = set()
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(top.name)
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            names.update(node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def public_methods() -> set:
    """Class.method for every public def in the body of a class in the package."""
    methods = set()
    for path in MODULES:
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef):
                methods.update(f"{top.name}.{node.name}" for node in top.body
                               if isinstance(node, ast.FunctionDef)
                               and not node.name.startswith("_"))
    return methods


def test_every_public_name_has_a_caller():
    used = set().union(*map(referenced_names, CALLER_FILES))
    uncalled = sorted(f"{path.stem}.{name}" for path in MODULES
                      for name in definitions(path) - used
                      if not name.startswith("_"))
    assert uncalled == [], f"public but reached only by their own tests: {uncalled}"


def test_every_public_method_has_a_caller():
    read = set().union(*map(attribute_reads, CALLER_FILES))
    methods = public_methods()
    uncalled = sorted(m for m in methods if m.split(".")[1] not in read)
    assert uncalled == [], f"public but reached only by their own tests: {uncalled}"


def test_every_private_helper_is_read():
    read = set().union(*map(referenced_names, MODULES))
    orphans = sorted(f"{path.stem}.{name}" for path in MODULES
                     for name in definitions(path) - read
                     if name.startswith("_"))
    assert orphans == [], f"private but read nowhere in the package: {orphans}"
