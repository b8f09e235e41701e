"""numpy, bound at import but loaded at its first attribute access.

The exact commands (slater, exchange-derive, antiphase, dichotomy) never
touch numpy, so they start without paying for its import; every other
command loads it on its first np.<name>. When numpy is already imported,
np is that module.
"""

import importlib.util
import sys

__all__ = ["np"]


class _Missing:
    """Stands in for a module that is not installed: any attribute access
    raises the ModuleNotFoundError that importing it would."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        raise ModuleNotFoundError(f"No module named {self._name!r}", name=self._name)


def lazy_import(name: str):
    """The module `name`, its body run at the first attribute access."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        return _Missing(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = lazy_import("numpy")
