import sys

import pytest


def _package_caches() -> list:
    # (module, name, wrapper) for every functools.lru_cache wrapper bound in
    # a loaded gkp_readout module; one wrapper can be bound in several.
    return [(module, name, value)
            for mod_name, module in list(sys.modules.items())
            if mod_name == "gkp_readout" or mod_name.startswith("gkp_readout.")
            for name, value in list(vars(module).items())
            if callable(getattr(value, "cache_clear", None))]


@pytest.fixture
def cold_caches():
    """Start the test with every package cache empty, and leave nothing it
    cached (possibly under a patched function) to later tests. Yields the
    (module, name, wrapper) bindings of the caches."""
    bindings = _package_caches()
    for _, _, cached in bindings:
        cached.cache_clear()
    yield bindings
    for _, _, cached in bindings:
        cached.cache_clear()
