import ast
from pathlib import Path

import polybergman


def _names_bound_by_init():
    """Public names that polybergman/__init__.py imports or assigns."""
    tree = ast.parse(Path(polybergman.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_all_lists_exactly_the_bound_public_names():
    assert len(polybergman.__all__) == len(set(polybergman.__all__))
    assert set(polybergman.__all__) == _names_bound_by_init()


def test_every_exported_name_resolves():
    for name in polybergman.__all__:
        assert hasattr(polybergman, name), name
