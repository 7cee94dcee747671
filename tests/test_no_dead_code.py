"""Every public top-level function or class in the package is reached from somewhere,
and every parameter with a default is set by some call.

A name counts as reached when the package itself, an acceptance criterion or a
pinned-output test refers to it outside its own definition. Unit tests do not
count: code that only its own unit tests call serves no command. A default that
no call in those files overrides is one value in use: a constant, not a parameter.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "specreason").glob("*.py"))
CALLERS = [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "test_pinned_outputs.py"]


def referenced_names(tree) -> Counter:
    """Each identifier read in tree, as a bare name or as an attribute, with its count."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def unreached_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + CALLERS}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unreached = []
    for path in PACKAGE:
        for node in trees[path].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and everywhere[node.name] == referenced_names(node)[node.name]):
                unreached.append(f"{path.stem}.{node.name}")
    return unreached


def test_every_public_name_is_reached():
    assert unreached_names() == []


def defaulted_parameters(tree):
    """(called name, parameter, position or None) of each parameter with a default.

    A method is called by its own name and __init__ by its class's, and its
    positions do not count self; a keyword-only parameter has no position.
    """
    methods = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        owner = methods.get(id(node))
        called = owner if node.name == "__init__" else node.name
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        skip = 0 if owner is None or static else 1
        positional = node.args.posonlyargs + node.args.args
        for k in range(len(positional) - len(node.args.defaults), len(positional)):
            yield called, positional[k].arg, k - skip
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield called, arg.arg, None


def sets(call: ast.Call, parameter: str, position) -> bool:
    """Whether call passes parameter: by keyword, at its position, or through * or **."""
    return (any(kw.arg in (parameter, None) for kw in call.keywords)
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or (position is not None and len(call.args) > position))


def unset_parameters() -> list[str]:
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + CALLERS]
    calls = {}
    for tree in trees:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)):
                name = call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                calls.setdefault(name, []).append(call)
    unset = []
    for tree in trees[:len(PACKAGE)]:
        for called, parameter, position in defaulted_parameters(tree):
            if not any(sets(call, parameter, position) for call in calls.get(called, ())):
                unset.append(f"{called}.{parameter}")
    return unset


def test_every_defaulted_parameter_is_set():
    assert sorted(set(unset_parameters())) == []
