import pytest

from almostabelian import cohomology


@pytest.fixture(autouse=True)
def cold_shape_ranks():
    """Every test starts with no string core, chain piece or block product
    ranked, so a test that counts calls or patches the walk's code sees no
    rank an earlier test cached."""
    cohomology._core_rank.cache_clear()
    cohomology._chain_jordan.cache_clear()
    cohomology._shape_rank.cache_clear()
