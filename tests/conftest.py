import pytest

from almostabelian import cohomology


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with every functools cache of cohomology empty,
    so a test that counts calls or patches the walk's code sees no rank
    an earlier test cached, whichever caches the module keeps."""
    for value in list(vars(cohomology).values()):
        if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
            value.cache_clear()
