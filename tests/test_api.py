"""The autograd module keeps only what the package runs: every public name
in ``tensor.py`` is imported by another module of the package, and
``Tensor`` has no arithmetic operators or helper methods that only tests
would call. Ops the tests need live in ``tests/oracles.py``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clustersum"

_ARITHMETIC = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "pow")
FORBIDDEN_MEMBERS = ({f"__{prefix}{op}__" for op in _ARITHMETIC for prefix in ("", "r", "i")}
                     | {"__neg__", "__pos__", "__abs__", "sum", "reshape", "zero_grad"})


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _bound_names(body) -> set[str]:
    """Names that the statements of ``body`` define: functions, classes and
    assignment targets."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _names_taken_from_tensor(tree: ast.Module) -> set[str]:
    """Names imported with ``from .tensor import ...`` or read as
    ``tensor.<name>``."""
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("tensor", "clustersum.tensor"):
            taken.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "tensor"):
            taken.add(node.attr)
    return taken


def test_every_public_tensor_name_is_imported_by_the_package():
    public = {n for n in _bound_names(_parse(PACKAGE / "tensor.py").body)
              if not n.startswith("_")}
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "tensor.py":
            used |= _names_taken_from_tensor(_parse(path))
    assert public, "no public names found in tensor.py"
    assert sorted(public - used) == []


def test_tensor_defines_no_arithmetic_or_test_only_methods():
    tree = _parse(PACKAGE / "tensor.py")
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Tensor"]
    assert sorted(_bound_names(cls.body) & FORBIDDEN_MEMBERS) == []
