import pytest

import xorcast as xc


@pytest.fixture(scope="session")
def ref_model():
    """Two-state bursty channel used throughout: a calm state with rare
    erasures and a stormy state where erasures dominate."""
    transition = [[0.9, 0.1], [0.2, 0.8]]
    emission = [
        [0.81, 0.09, 0.09, 0.01],
        [0.04, 0.16, 0.16, 0.64],
    ]
    return xc.ChannelModel(transition, emission)


@pytest.fixture(scope="session")
def memoryless_model():
    """One-state model whose pattern distribution equals the stationary
    marginal of ref_model, so the two regions are directly comparable."""
    return xc.ChannelModel([[1.0]], [[1.66 / 3, 0.34 / 3, 0.34 / 3, 0.22]])


@pytest.fixture(scope="session")
def sticky_model():
    """ref_model's emission rows under a stickier chain: the calm state
    lasts 50 slots on average and the stormy one 20."""
    transition = [[0.98, 0.02], [0.05, 0.95]]
    emission = [
        [0.81, 0.09, 0.09, 0.01],
        [0.04, 0.16, 0.16, 0.64],
    ]
    return xc.ChannelModel(transition, emission)
