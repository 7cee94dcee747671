"""Every public top-level function or class in the package is reached from somewhere.

A name counts as reached when the package itself, an acceptance criterion or a
pinned-output test refers to it outside its own definition. Unit tests do not
count: code that only its own unit tests call serves no command.
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
