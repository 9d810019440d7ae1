"""Public API surface: every exported name exists and is re-exported."""

import pytest

import treelayout
from treelayout import aware, cost, oblivious, tree


@pytest.mark.parametrize("module", [tree, aware, oblivious, cost],
                         ids=lambda m: m.__name__)
def test_all_names_resolve_and_are_reexported(module):
    for name in module.__all__:
        obj = getattr(module, name)
        assert getattr(treelayout, name, None) is obj, name
