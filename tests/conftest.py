import numpy as np
import pytest

import ambclink.montecarlo
from ambclink import load_scenario
from ambclink.channel import channel_table, draw_channels

FIXED_CHANNEL_SEED = 20240801


@pytest.fixture(scope="session")
def paper_params():
    return load_scenario({}, paper_defaults=True)


@pytest.fixture(scope="session")
def fixed_realization(paper_params):
    """One seeded channel draw shared by tests that need a fixed channel."""
    rng = np.random.default_rng(np.random.SeedSequence(FIXED_CHANNEL_SEED))
    return draw_channels(paper_params, rng)


@pytest.fixture(scope="session")
def fixed_table(paper_params):
    """fixed_realization's channel table: channel_table on the same six normals."""
    rng = np.random.default_rng(np.random.SeedSequence(FIXED_CHANNEL_SEED))
    return channel_table(paper_params, rng.standard_normal((6, 1)))


@pytest.fixture
def pool_at_any_size(monkeypatch):
    """Let a sweep of two tasks or more open a process pool at any size, as
    one above POOL_MIN_SAMPLES does, so that a small sweep tests the pool."""
    monkeypatch.setattr(ambclink.montecarlo, "POOL_MIN_SAMPLES", 0)


def rel_err(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0
