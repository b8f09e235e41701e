"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import zpfspin

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(zpfspin.__path__))


@pytest.mark.parametrize("name", ["zpfspin", *(f"zpfspin.{m}" for m in SUBMODULES)])
def test_all_lists_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    for attr in exported:
        assert hasattr(module, attr), f"{name}.__all__ names missing {attr!r}"

