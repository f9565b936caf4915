"""numpy for the float layer, loaded on its first attribute access.

The exact commands (``verify-catalog``, ``obstruction``, ``check``) never
touch floats, so ``import hermlie`` does not pay numpy's import.  ``np`` is
registered in ``sys.modules`` by the ``importlib.util.LazyLoader`` recipe of
the ``importlib`` documentation; once an attribute is read it is plain numpy.
"""
import importlib.util
import sys


def _lazy_import(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")
