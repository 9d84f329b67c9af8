"""Every name a module of the package exports exists on it."""

import importlib
import pkgutil

import pytest

import hybridfem

MODULES = [m.name for m in pkgutil.iter_modules(hybridfem.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    # the benchmark's tracer calls getattr on every entry of every __all__
    module = importlib.import_module(f"hybridfem.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def test_space_descriptor_is_one_class_under_every_name():
    assert hybridfem.SpaceDescriptor is hybridfem.methods.SpaceDescriptor is hybridfem.polyspaces.SpaceDescriptor
