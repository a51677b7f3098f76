"""Every public function and class of fluxline is reached from outside its unit tests.

A name counts as reached when the code (an AST ``Name`` or ``Attribute``,
not text in a docstring or comment) of ``src/``, of ``scripts/`` or of the
acceptance suite uses it.  Annotations do not count: a class that only
types an argument, a return or a field is built by nothing.  A public
name that only its own unit tests call is dead weight: delete it, or
reach it from a command, a script or an acceptance criterion.  Every
private module-level name must be read in ``src/`` itself, so a kernel
cannot outlive its last caller behind a test, and every dataclass field
must be read outside its own ``__post_init__``.  The count of settable
values in ``src/`` and the package's import graph are pinned as well.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import fluxline

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(fluxline.__file__).resolve().parent

SOURCES = sorted(PACKAGE.glob("*.py"))


def exempt(qualname: str) -> bool:
    # A command is reached through cli._COMMANDS, which looks up cmd_<name> by string.
    return qualname.startswith("cli.cmd_")


def without_annotations(tree: ast.AST) -> ast.AST:
    """``tree`` with its argument, return and ``AnnAssign`` annotations cut."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            node.annotation = None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node.returns = None
        elif isinstance(node, ast.AnnAssign):
            node.annotation = ast.Constant(None)
    return tree


def used_names(files) -> set:
    """The names that the code of ``files`` reads: load-context ``Name`` ids
    and ``Attribute`` attrs."""
    names = set()
    for path in files:
        tree = without_annotations(ast.parse(path.read_text(), str(path)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def public_api():
    for name in (info.name for info in pkgutil.iter_modules(fluxline.__path__)):
        module = importlib.import_module(f"fluxline.{name}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                yield f"{name}.{attr}", attr


def test_every_public_name_is_reached():
    api = dict(public_api())
    used = used_names([*SOURCES, *(ROOT / "scripts").glob("*.py"),
                       ROOT / "tests" / "test_acceptance.py"])
    orphans = [qualname for qualname, attr in api.items()
               if attr not in used and not exempt(qualname)]
    assert not orphans, f"public names no command, script or acceptance criterion uses: {orphans}"


def private_module_names():
    """(module.name, name) of every function, class and assigned name at the
    top level of a module in src/ that starts with "_" and is no dunder."""
    for path in SOURCES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    yield f"{path.stem}.{name}", name


def test_every_private_name_is_read_in_src():
    names = list(private_module_names())
    assert len(names) > 20  # the walk finds the kernels at all
    used = used_names(SOURCES)
    unread = [qualname for qualname, name in names if name not in used]
    assert not unread, f"private names that nothing in src/ reads: {unread}"


def is_dataclass(node: ast.AST) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        "dataclass" in ast.unparse(d) for d in node.decorator_list)


# Settable values: the defaulted parameters of every function and lambda in
# src/ plus the defaulted fields of its dataclasses.  Each is an option a
# caller may set; an added one shows here as a changed number, to be
# justified by a caller that needs a second value.
SETTABLE_VALUES = 27


def settable_values() -> int:
    count = 0
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif is_dataclass(node):
                count += sum(isinstance(st, ast.AnnAssign) and st.value is not None
                             for st in node.body)
    return count


def test_settable_value_count_is_pinned():
    assert settable_values() == SETTABLE_VALUES


# QubitLoad.f_q is checked and never read; it goes together with the
# qubit.f_q_GHz key of the benchmark's filter-sweep config.
UNREAD_FIELDS = {"network.QubitLoad.f_q"}


def test_every_dataclass_field_is_read():
    # A read counts unless it stands in the __post_init__ of the field's own class.
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    reads = set()
    for tree in trees.values():
        owner = {id(node): cls.name for cls in filter(is_dataclass, ast.walk(tree))
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)
                 and fn.name == "__post_init__" for node in ast.walk(fn)}
        reads.update((node.attr, owner.get(id(node))) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    fields = [(f"{stem}.{cls.name}.{st.target.id}", cls.name, st.target.id)
              for stem, tree in trees.items() for cls in filter(is_dataclass, ast.walk(tree))
              for st in cls.body if isinstance(st, ast.AnnAssign)]
    assert len(fields) > 30  # the walk finds the fields at all
    unread = {qualname for qualname, cls, name in fields
              if not any(attr == name and where != cls for attr, where in reads)}
    assert unread == UNREAD_FIELDS


# Which package modules each module of src/ imports.  Thermometry and
# classification need no reset dynamics: the population row they share is
# a plain (4,) array.  Network and thermometry import fits for its one
# bracketed root finder, ``bracketed_roots``.  A new edge shows here, to be
# justified by the code that needs it.
IMPORT_GRAPH = {
    "__init__": {"classify", "dynamics", "errors", "fits", "network", "synth", "thermometry"},
    "classify": {"errors"},
    "cli": {"classify", "dynamics", "errors", "fits", "io", "network", "synth", "thermometry"},
    "dynamics": {"errors", "fits"},
    "errors": set(),
    "fits": {"errors"},
    "io": {"classify", "dynamics", "network", "thermometry"},
    "network": {"errors", "fits"},
    "synth": {"classify", "dynamics", "thermometry"},
    "thermometry": {"errors", "fits"},
}


def package_imports(path: Path) -> set:
    """The package modules that the ``from . import x`` and ``from .x import y``
    statements of ``path`` name, wherever in the file they stand."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                imported.update(alias.name for alias in node.names)
            else:
                imported.add(node.module.split(".")[0])
    return imported


def test_import_graph_is_pinned():
    graph = {path.stem: package_imports(path) for path in SOURCES}
    assert graph == IMPORT_GRAPH


# Level labels meet level indices at the I/O boundary alone: ``io.prep_levels``
# maps reset preparation labels to levels, and ``classify.LABEL_ORDER`` names
# them.  The reset dynamics and the generators work on the level indices.
LABEL_FREE = ("dynamics", "synth")


def test_no_level_label_in_the_label_free_modules():
    from fluxline.classify import LABEL_ORDER

    found = [f"{stem}:{node.lineno}: {node.value!r}" for stem in LABEL_FREE
             for node in ast.walk(ast.parse((PACKAGE / f"{stem}.py").read_text()))
             if isinstance(node, ast.Constant) and node.value in LABEL_ORDER]
    assert not found, f"level labels outside the I/O boundary: {found}"
