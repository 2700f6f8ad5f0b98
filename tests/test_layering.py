"""Package layering: no module reaches into another module's private names or file formats."""

import ast
from pathlib import Path

import samdistill

PACKAGE_DIR = Path(samdistill.__file__).resolve().parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_uses(path: Path) -> list[str]:
    """Leading-underscore names a module imports from, or reads off, a sibling module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    sibling_modules: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith(samdistill.__name__):
                continue
            for alias in node.names:
                if module in ("", samdistill.__name__):
                    # ``from . import nn``: binds a sibling module.
                    sibling_modules.add(alias.asname or alias.name)
                if _is_private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name} from {module or '.'}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(samdistill.__name__ + "."):
                    sibling_modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in sibling_modules
            and _is_private(node.attr)
        ):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5
    violations = {p.name: uses for p in modules if (uses := _private_uses(p))}
    assert violations == {}


def test_checker_catches_both_forms(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from . import nn\nfrom .train import _forward_tokens, lr_at\nnn._block\nnn.__name__\n"
    )
    assert _private_uses(module) == [
        "line 2: imports _forward_tokens from train",
        "line 3: reads nn._block",
    ]


BLOB_IO = {"write_blob", "read_blob"}


def _blob_io_uses(path: Path) -> list[str]:
    """Lines that name blobio's raw blob functions, which only its artifact pair may call."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        found += [f"line {node.lineno}: {name}" for name in names if name in BLOB_IO]
    return found


def test_only_blobio_touches_raw_blobs():
    modules = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "blobio.py")
    violations = {p.name: uses for p in modules if (uses := _blob_io_uses(p))}
    assert violations == {}
    assert _blob_io_uses(PACKAGE_DIR / "blobio.py")


def _offsets_names(path: Path) -> list[str]:
    """Function parameters and class fields named ``offsets`` or ``*_offsets``.

    A segment layout is one ``tensor.Segments`` value under every name, so
    no signature or field carries raw CSR offsets beside it.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            every = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
            names = [(arg.lineno, arg.arg) for arg in every if arg is not None]
        elif isinstance(node, ast.ClassDef):
            fields = [s for s in node.body if isinstance(s, (ast.AnnAssign, ast.Assign))]
            names = [
                (field.lineno, getattr(target, "id", ""))
                for field in fields
                for target in getattr(field, "targets", [getattr(field, "target", None)])
            ]
        else:
            continue
        found += [
            f"line {line}: {name}"
            for line, name in names
            if name == "offsets" or name.endswith("_offsets")
        ]
    return found


def test_no_parameter_or_field_is_named_offsets():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5
    violations = {p.name: names for p in modules if (names := _offsets_names(p))}
    assert violations == {}


def test_offsets_checker_catches_parameters_and_fields(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(x, *, scene_offsets=None):\n    offsets = x\n\n"
        "class C:\n    offsets: int\n    bounds = 0\n    member_offsets = None\n"
    )
    assert _offsets_names(module) == [
        "line 1: scene_offsets",
        "line 5: offsets",
        "line 7: member_offsets",
    ]
