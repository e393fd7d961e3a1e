"""Every name a ``repro`` module exports through ``__all__`` resolves.

A stale ``__all__`` entry breaks ``from module import *`` with an
``AttributeError`` only at the star import, which nothing else exercises.
"""

import importlib
import pkgutil

import pytest

import repro


def _module_names() -> list[str]:
    return sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    )


@pytest.mark.parametrize("name", _module_names())
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [
        export
        for export in getattr(module, "__all__", ())
        if not hasattr(module, export)
    ]
    assert missing == []

