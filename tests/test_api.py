"""Guards on the package's shape, read from its source.

The autograd module keeps only what the package runs: every public name
in ``tensor.py`` is imported by another module of the package, and
``Tensor`` has no arithmetic operators or helper methods that only tests
would call. Ops the tests need live in ``tests/oracles.py``. The package has one worker
thread, only ``tensor.py`` names a thread or an executor, and only ``tensor._beside``
hands the worker a job. Only ``checkpoint.atomic_write`` opens a file for
writing, so a mapped checkpoint is only ever replaced, never rewritten, and
only ``checkpoint.py`` parses JSON, so every file a stage reads is checked
the one way.

Every run setting has one home, ``PipelineConfig``: no other module gives
a parameter or dataclass field named after a setting a default of its own,
and every field is read by the package beyond the config's own checks.
Every other dataclass field is read by the package too, beyond the
dataclass's own checks, and so is every method and property of every
package class.

Each model job has one signature, with no flag that selects it: a forward
drops out exactly when it is given a generator, cached decoding is
``step``, and a float64 model is a ``Model.astype`` cast of a float32 one.
"""

import ast
from dataclasses import fields
from pathlib import Path

from clustersum.config import PipelineConfig

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


_THREAD_NAMES = {"ThreadPoolExecutor", "Thread"}


def _thread_names(tree: ast.Module) -> set[str]:
    """``ThreadPoolExecutor`` and ``Thread`` wherever ``tree`` names them: as
    a name, an attribute (``threading.Thread``) or an import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found & _THREAD_NAMES


def test_only_tensor_names_a_thread():
    for path in PACKAGE.glob("*.py"):
        if path.name != "tensor.py":
            assert sorted(_thread_names(_parse(path))) == [], path.name
    assert _thread_names(_parse(PACKAGE / "tensor.py")) == {"ThreadPoolExecutor"}


def _calls(tree: ast.Module):
    """(function, call) of every call in ``tree``, where function is the
    innermost function around the call, or ``<module>`` outside any."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                yield owner, child
            yield from visit(child, owner)

    yield from visit(tree, "<module>")


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _worker_callers(tree: ast.Module) -> set[str]:
    """The innermost function (``<module>`` outside any) around each call of
    ``_start_worker`` or of a ``submit`` method in ``tree``, and
    ``<import>`` where ``_start_worker`` is imported."""
    callers = {owner for owner, call in _calls(tree)
               if _called_name(call) in ("_start_worker", "submit")}
    if any(isinstance(node, ast.alias) and node.name == "_start_worker"
           for node in ast.walk(tree)):
        callers.add("<import>")
    return callers


def test_only_beside_hands_the_worker_a_job():
    """Every job reaches the worker through ``_beside``, which joins it
    before it returns, so the worker holds no job between ops."""
    found = {(path.name, owner) for path in PACKAGE.glob("*.py")
             for owner in _worker_callers(_parse(path))}
    assert found == {("tensor.py", "_beside")}


def _mode(call: ast.Call, index: int, default: str) -> str:
    """The mode ``call`` passes at position ``index`` or as ``mode=``, or
    ``default`` when it passes none; ``"w"`` when it is not a literal string,
    since a mode the source does not show may write."""
    node = call.args[index] if len(call.args) > index else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if node is None:
        return default
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else "w"


_NUMPY_SAVERS = {"save", "savez", "savez_compressed", "savetxt"}


def _opens_for_writing(call: ast.Call, yielded: set[str]) -> bool:
    """Whether ``call`` can open a file for writing: ``open`` (builtin,
    ``io.``, ``Path.``) or ``os.fdopen`` with a writing mode, ``os.open``,
    ``write_text``, ``write_bytes``, ``touch`` and ``tofile``, numpy's
    ``memmap`` in a writing mode, and numpy's savers given anything but a
    file that ``atomic_write`` yielded (a name in ``yielded``)."""
    name, func = _called_name(call), call.func
    module = func.value.id if isinstance(func, ast.Attribute) and isinstance(
        func.value, ast.Name) else None
    if name == "open" and module == "os":
        return True
    if name in ("open", "fdopen"):
        index = 1 if isinstance(func, ast.Name) or module in ("io", "os") else 0
        return bool(set(_mode(call, index, "r")) & set("wax+"))
    if name in ("write_text", "write_bytes", "touch", "tofile"):
        return True
    if module in ("np", "numpy") and name == "memmap":
        return _mode(call, 2, "r+") not in ("r", "c")
    if module in ("np", "numpy") and name in _NUMPY_SAVERS:
        target = call.args[0] if call.args else None
        return not (isinstance(target, ast.Name) and target.id in yielded)
    return False


def _atomic_write_files(tree: ast.Module) -> set[str]:
    """Every name bound by ``with atomic_write(...) as name`` in ``tree``."""
    return {item.optional_vars.id for node in ast.walk(tree) if isinstance(node, ast.With)
            for item in node.items
            if isinstance(item.context_expr, ast.Call)
            and _called_name(item.context_expr) == "atomic_write"
            and isinstance(item.optional_vars, ast.Name)}


def _file_writers(tree: ast.Module) -> set[str]:
    """The innermost function (``<module>`` outside any) around each call in
    ``tree`` that can open a file for writing."""
    yielded = _atomic_write_files(tree)
    return {owner for owner, call in _calls(tree) if _opens_for_writing(call, yielded)}


def test_only_atomic_write_opens_a_file_for_writing():
    """Every file the package writes is a new file that ``atomic_write``
    renames over the old one. A loaded checkpoint is a mapping of its file,
    so the file must only ever be replaced: a write into it in place would
    change the weights of every model still reading it."""
    found = {(path.name, owner) for path in PACKAGE.glob("*.py")
             for owner in _file_writers(_parse(path))}
    assert found == {("checkpoint.py", "atomic_write")}


def _json_parsers(tree: ast.Module) -> list[str]:
    """The innermost function (``<module>`` outside any) around each call of
    ``json.load`` or ``json.loads`` in ``tree``, or of either imported by name."""
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "json"
                for alias in node.names if alias.name in ("load", "loads")}
    found = []
    for owner, call in _calls(tree):
        func = call.func
        if (isinstance(func, ast.Attribute) and func.attr in ("load", "loads")
                and isinstance(func.value, ast.Name) and func.value.id == "json"):
            found.append(owner)
        elif isinstance(func, ast.Name) and func.id in imported:
            found.append(owner)
    return found


def test_only_checkpoint_parses_json():
    """``read_jsonl``, ``read_json`` and the checkpoint header are the only
    JSON readers, each checked by ``check_fields``: another module that
    parsed JSON itself would check its fields its own way, or not at all."""
    found = {(path.name, owner) for path in PACKAGE.glob("*.py")
             for owner in _json_parsers(_parse(path))}
    assert found == {("checkpoint.py", "_parse")}


def _setting_names() -> set[str]:
    """Every ``PipelineConfig`` field name, and each name without its
    ``mlm_``/``finetune_``/``decoder_`` prefix (``mlm_lr`` is also ``lr``)."""
    names = {f.name for f in fields(PipelineConfig)}
    for name in list(names):
        for prefix in ("mlm_", "finetune_", "decoder_"):
            if name.startswith(prefix):
                names.add(name[len(prefix):])
    return names


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _defaults(tree: ast.Module):
    """(qualified name, name) of every parameter and dataclass field that
    has a default."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):]
                with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                                 if d is not None]
                for arg in with_default:
                    yield f"{scope}{child.name}", arg.arg
                yield from visit(child, f"{scope}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    for item in child.body:
                        if (isinstance(item, ast.AnnAssign) and item.value is not None
                                and isinstance(item.target, ast.Name)):
                            yield f"{scope}{child.name}", item.target.id
                yield from visit(child, f"{scope}{child.name}.")
    yield from visit(tree, "")


def test_no_module_but_config_gives_a_setting_a_default():
    settings = _setting_names()
    assert {"lr", "batch_size", "top_k", "seed"} <= settings
    shadowed = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "config.py":
            continue
        shadowed += [f"{path.stem}.{owner}({name}=...)"
                     for owner, name in _defaults(_parse(path)) if name in settings]
    assert shadowed == []


MODEL_MODULES = ("layers.py", "encoder.py", "decoder.py")


def _job_flags(tree: ast.Module):
    """(function, parameter) of every parameter that selects a model job:
    ``dtype`` on a constructor, ``train`` or ``dropout_rate`` anywhere, and
    ``cache`` on a ``forward`` or ``__call__``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if ((arg.arg == "dtype" and node.name == "__init__")
                        or arg.arg in ("train", "dropout_rate")
                        or (arg.arg == "cache" and node.name in ("forward", "__call__"))):
                    yield f"{node.name}({arg.arg})"


def test_no_model_function_takes_a_job_flag():
    flags = [f"{name}:{flag}" for name in MODEL_MODULES
             for flag in _job_flags(_parse(PACKAGE / name))]
    assert flags == []


def _attributes_read(tree: ast.Module, skip: set[str]):
    """Every attribute name read in ``tree``, outside the bodies of the
    functions named in ``skip``."""
    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child.name in skip:
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                yield child.attr
            yield from visit(child)
    yield from visit(tree)


def test_every_setting_is_read_by_the_package():
    """A field that no stage reads is a setting with one value in use; the
    config's own checks and hash do not count as a use."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        skip = {"__post_init__", "canonical_string"} if path.name == "config.py" else set()
        read.update(_attributes_read(_parse(path), skip))
    assert sorted({f.name for f in fields(PipelineConfig)} - read) == []


def _dataclass_fields(tree: ast.Module):
    """(class, field) of every annotated field of every dataclass in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_dataclass_field_is_read_by_the_package():
    """A field that no module reads, outside the ``__post_init__`` checks, is
    state that is stored and never used.

    Like the settings guard it matches attribute names only, so a field
    whose name is also read on another object passes it: a ``doc_id`` field
    on a class nothing reads it from would hide behind
    ``EncodedDocument.doc_id``.
    """
    declared, read = [], set()
    for path in PACKAGE.glob("*.py"):
        tree = _parse(path)
        declared += _dataclass_fields(tree)
        read.update(_attributes_read(tree, {"__post_init__"}))
    assert ("EpochStats", "epoch") in declared
    assert sorted(f"{owner}.{name}" for owner, name in declared if name not in read) == []


def _methods(tree: ast.Module):
    """(class, name) of every method and property defined in a class body
    of ``tree``, dunders aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield node.name, item.name


def test_every_method_is_read_by_the_package():
    """A method or property that no module of the package reads as an
    attribute is an API only tests call. Like the field guards it matches
    names only, so a method whose name is read on another object passes."""
    declared, read = [], set()
    for path in PACKAGE.glob("*.py"):
        tree = _parse(path)
        declared += _methods(tree)
        read.update(_attributes_read(tree, set()))
    assert ("AdamW", "start_step") in declared
    assert sorted(f"{owner}.{name}" for owner, name in declared if name not in read) == []
