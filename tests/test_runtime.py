"""The sweep map: order and run-to-run stability of its results."""

import pytest

from stepharm import find_resonances
from stepharm.runtime import parallel_map
from tests.conftest import make_config


# STEPHARM_THREADS no longer sizes a pool; a value left set by older
# setups must not change the result or its order.
@pytest.mark.parametrize("threads", ["1", "4"])
def test_parallel_map_preserves_order(monkeypatch, threads):
    monkeypatch.setenv("STEPHARM_THREADS", threads)
    assert parallel_map(lambda v: v * v, range(17)) == [v * v for v in range(17)]


def test_resonance_scan_independent_of_threading():
    # the scan runs serially; two runs must give identical results
    config = make_config(1.5)
    assert find_resonances(config, beta_max=8.0) == find_resonances(config, beta_max=8.0)
