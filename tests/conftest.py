import os, sys
sys.path.insert(0, os.path.dirname(__file__))

import pytest

from supertriplet import arith, characters, cli, fermion, modular, qseries, specialfn, suites, zhu

PACKAGE_MODULES = (arith, characters, cli, fermion, modular, qseries, specialfn, suites, zhu)


def _clear_package_caches():
    for obj in [getattr(module, name) for module in PACKAGE_MODULES for name in vars(module)]:
        if hasattr(obj, "cache_clear") and obj.__module__.startswith("supertriplet."):
            obj.cache_clear()


@pytest.fixture
def cleared_caches():
    """Every ``lru_cache`` of the package emptied before the test and after it."""
    _clear_package_caches()
    yield
    _clear_package_caches()
