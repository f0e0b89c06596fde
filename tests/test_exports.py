"""Every name a spraylie module exports in `__all__` exists in it."""

from __future__ import annotations

import importlib
import pkgutil

import spraylie


def test_every_exported_name_resolves():
    modules = [spraylie] + [
        importlib.import_module(f"spraylie.{info.name}") for info in pkgutil.iter_modules(spraylie.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
