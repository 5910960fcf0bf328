import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from saris.channel import ChannelRealization, LinkState

settings.register_profile(
    "suite", deadline=None, max_examples=50, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def make_realization(bs_mats, user_mats, eta=0.9, direct=None) -> ChannelRealization:
    """Realization from explicit per-UAV matrices: bs_mats[l] is (N, M),
    user_mats[l] is (1, N), direct is (1, M) or None.  Every UAV link is
    recorded as LoS at unit gain and 100 m."""
    G = np.array(bs_mats, dtype=complex)
    h = np.array(user_mats, dtype=complex)[:, 0]
    links = 2 * len(G)
    return ChannelRealization(
        G=G,
        h=h,
        direct=np.asarray(direct, dtype=complex)[0] if direct is not None else None,
        eta_reflect=eta,
        states=[LinkState.LOS] * links,
        gains=[1.0] * links,
        distances=[100.0] * links,
    )


def unit_realization(L, N, M=1, eta=0.9) -> ChannelRealization:
    """All-ones links: every cascaded per-element contribution has magnitude
    eta, so the aligned objective is exactly (eta*L*N)^2 for M = 1."""
    return make_realization(
        [np.ones((N, M))] * L, [np.ones((1, N))] * L, eta=eta
    )


def random_realization(rng, L, N, M, direct=False, scale=1.0) -> ChannelRealization:
    def cg(shape):
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    return make_realization(
        [cg((N, M)) for _ in range(L)],
        [cg((1, N)) for _ in range(L)],
        direct=cg((1, M)) if direct else None,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
