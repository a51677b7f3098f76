"""Every public function and class of fluxline is reached from outside its unit tests.

A name counts as reached when the code (an AST ``Name`` or ``Attribute``,
not text in a docstring or comment) of ``src/``, of ``scripts/`` or of the
acceptance suite uses it.  Annotations do not count: a class that only
types an argument, a return or a field is built by nothing.  A public
name that only its own unit tests call is dead weight: delete it, or
reach it from a command, a script or an acceptance criterion.  The count
of settable values in ``src/`` is pinned as well.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import fluxline

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(fluxline.__file__).resolve().parent

# network's one-row physics functions stay as the references that
# tests/test_network.py checks the batched sweep and the filter root against:
# perturbative_pull (test_inductor_near_open_end), current_profile
# (TestCurrentProfile, with _inductor_current_factor), input_impedance (its
# sign change at the root of filter_frequency_exact) and
# squid_critical_current (the SQUID's Ic(flux)).
REFERENCES = {"network.perturbative_pull", "network.current_profile",
              "network.input_impedance", "network.squid_critical_current"}


def exempt(qualname: str) -> bool:
    # A command is reached through cli._COMMANDS, which looks up cmd_<name> by string.
    return qualname.startswith("cli.cmd_") or qualname in REFERENCES


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


def used_names() -> set:
    files = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    names = set()
    for path in files:
        tree = without_annotations(ast.parse(path.read_text(), str(path)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
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
    assert REFERENCES <= set(api)
    used = used_names()
    orphans = [qualname for qualname, attr in api.items()
               if attr not in used and not exempt(qualname)]
    assert not orphans, f"public names no command, script or acceptance criterion uses: {orphans}"


# Settable values: the defaulted parameters of every function and lambda in
# src/ plus the defaulted fields of its dataclasses.  Each is an option a
# caller may set; an added one shows here as a changed number, to be
# justified by a caller that needs a second value.
SETTABLE_VALUES = 36


def settable_values() -> int:
    count = 0
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                count += sum(isinstance(st, ast.AnnAssign) and st.value is not None
                             for st in node.body)
    return count


def test_settable_value_count_is_pinned():
    assert settable_values() == SETTABLE_VALUES
