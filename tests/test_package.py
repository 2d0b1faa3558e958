import ast
from pathlib import Path

import schurblock

INIT = Path(schurblock.__file__)


def imported_public_names() -> set:
    """Names bound by the ``from .x import ...`` statements of __init__.py."""
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_name_in_all_resolves():
    assert len(schurblock.__all__) == len(set(schurblock.__all__))
    missing = [name for name in schurblock.__all__ if not hasattr(schurblock, name)]
    assert missing == []


def test_every_imported_public_name_is_in_all():
    assert sorted(imported_public_names() - set(schurblock.__all__)) == []
