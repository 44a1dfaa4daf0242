"""Every name a module exports through __all__ exists in it."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["boltzlab", "boltzlab.linearize",
                                  "boltzlab.reconstruct", "boltzlab.config"])
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
