"""Package layering: no module reaches into another module's private names or file formats."""

import ast
from dataclasses import fields, is_dataclass
from pathlib import Path

import samdistill
from samdistill import nn, report

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


def _file_writes(path: Path) -> list[str]:
    """Calls that open a file to write it or call ``write_text``/``write_bytes``, in source order.

    Each is named with the class it is in. An ``open`` mode that is not a
    string literal counts as a write.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    calls = sorted(
        (node for node in ast.walk(tree) if isinstance(node, ast.Call)),
        key=lambda node: (node.lineno, node.col_offset),
    )
    found = []
    for call in calls:
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name == "open":  # ``open(path, mode)`` or ``path.open(mode)``
            position = 0 if isinstance(func, ast.Attribute) else 1
            modes = [*call.args[position : position + 1]]
            modes += [k.value for k in call.keywords if k.arg == "mode"]
            writes = any(
                not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes
            )
        else:
            writes = name in ("write_text", "write_bytes")
        if writes:
            owners = [c.name for c in classes if c.lineno <= call.lineno <= c.end_lineno]
            found.append(f"{ast.unparse(func)} in {owners[-1] if owners else 'the module'}")
    return found


def test_only_blobio_writes_files():
    """Every file is put in place by blobio's one ``os.replace``, but the streamed metrics CSV."""
    modules = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "blobio.py")
    writes = {p.name: found for p in modules if (found := _file_writes(p))}
    assert writes == {"train.py": ["open in _MetricsWriter"]}
    assert _file_writes(PACKAGE_DIR / "blobio.py")


def test_file_write_checker_catches_every_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "open(p)\n"
        "open(p, 'rb')\n"
        "open(p, 'wb')\n"
        "class C:\n"
        "    def f(self):\n"
        "        p.open(mode='a')\n"
        "        p.open('r+')\n"
        "open(p, mode)\n"
        "p.read_text()\n"
        "p.write_text(s)\n"
        "q.write_bytes(b)\n"
    )
    assert _file_writes(module) == [
        "open in the module",
        "p.open in C",
        "p.open in C",
        "open in the module",
        "p.write_text in the module",
        "q.write_bytes in the module",
    ]


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


TRAINABILITY = ("set_trainable", "freeze_all")


def _trainability_calls(path: Path) -> list[str]:
    """Calls that change a model's trainability, other than a model's calls on ``self``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"line {node.lineno}: {node.func.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in TRAINABILITY
        and not (isinstance(node.func.value, ast.Name) and node.func.value.id == "self")
    ]


def test_only_the_training_loops_make_a_model_trainable():
    """Every model is built, copied and loaded frozen, so nothing in the package freezes one.

    The stages' shared run loop in ``train`` and the probe's fit in
    ``probe`` are the only places that make a model trainable.
    """
    calls = {p.name: _trainability_calls(p) for p in sorted(PACKAGE_DIR.glob("*.py"))}
    setters = {name for name, found in calls.items() if any("set_trainable" in c for c in found)}
    freezes = {name: c for name, found in calls.items() for c in found if "freeze_all" in c}
    assert setters == {"train.py", "probe.py"}
    assert freezes == {}


def test_trainability_checker_skips_calls_on_self(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "params.set_trainable(True)\n"
        "class M:\n"
        "    def freeze_all(self):\n"
        "        self.set_trainable(False)\n"
        "teacher.freeze_all()\n"
        "set_trainable = None\n"
    )
    assert _trainability_calls(module) == ["line 1: set_trainable", "line 5: freeze_all"]


def _requires_grad_writes(path: Path) -> list[str]:
    """Lines that assign an attribute named ``requires_grad``, whatever the object.

    ``ModelParams`` records its trainable ranges when ``set_trainable``
    changes a flag, so a direct write elsewhere would leave them stale.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets.append(node.target)
    found = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets += target.elts
        elif isinstance(target, ast.Attribute) and target.attr == "requires_grad":
            found.append(f"line {target.lineno}: {ast.unparse(target)}")
    return sorted(found)


def test_only_the_engine_and_the_parameter_store_set_requires_grad():
    writers = {p.name for p in PACKAGE_DIR.glob("*.py") if _requires_grad_writes(p)}
    assert writers == {"tensor.py", "nn.py"}


def test_requires_grad_checker_catches_every_assignment_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "t.requires_grad = True\n"
        "a, params.tensors[n].requires_grad = 1, False\n"
        "x.requires_grad |= y\n"
        "self.requires_grad: bool = False\n"
        "flag = t.requires_grad\n"
        "requires_grad = True\n"
    )
    assert _requires_grad_writes(module) == [
        "line 1: t.requires_grad",
        "line 2: params.tensors[n].requires_grad",
        "line 3: x.requires_grad",
        "line 4: self.requires_grad",
    ]


def _config_classes() -> set[type]:
    """``Arch`` and every dataclass reachable from ``PipelineConfig``'s fields."""
    found, todo = {nn.Arch}, [report.PipelineConfig()]
    while todo:
        config = todo.pop()
        found.add(type(config))
        todo += [v for f in fields(config) if is_dataclass(v := getattr(config, f.name))]
    return found


def test_every_config_checks_itself_when_it_is_built():
    """``dataclasses.replace`` re-runs ``__post_init__``, so no config needs a ``validate()``."""
    classes = _config_classes()
    assert {c.__name__ for c in classes} == {
        "PipelineConfig", "SceneSpec", "Arch", "TrainConfig", "Stage1Config", "Stage2Config",
    }
    for cls in classes:
        assert "__post_init__" in vars(cls), cls.__name__
        assert not hasattr(cls, "validate"), cls.__name__


def _validate_calls(path: Path) -> list[str]:
    """Calls of a ``validate`` attribute, each as its source text."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"line {node.lineno}: {ast.unparse(node.func)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "validate"
    ]


def test_only_scene_bundles_have_a_validate_call():
    """``SceneBundle.validate`` checks a bundle, not a config; nothing else is called so."""
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    calls = {p.name: found for p in modules if (found := _validate_calls(p))}
    assert set(calls) == {"scene.py"}
    assert all(call.endswith(": bundle.validate") for call in calls["scene.py"])


def test_validate_checker_catches_every_receiver(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("cfg.validate()\nx = validate\nself.arch.validate()\nvalidate()\n")
    assert _validate_calls(module) == ["line 1: cfg.validate", "line 3: self.arch.validate"]
