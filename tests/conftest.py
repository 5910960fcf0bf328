import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from saris.channel import ChannelRealization, EnvParams, LinkState, _draw_links
from saris.geometry import distance

settings.register_profile(
    "suite", deadline=None, max_examples=50, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

# Dense-urban losses with an LoS-probability sigmoid that pins the link state.
# a = 200 keeps the LoS probability at most 8.4e-51 on (0, 90] degrees, so
# only a state uniform of exactly 0.0 (one chance in 2**53) would draw LoS;
# a = 1e-300 makes it exactly 1.0.  The state uniform is drawn either way, so
# the stream advances as for any link.
ALWAYS_NLOS = EnvParams(a=200.0, b=1.0, eta_los_db=1.6, eta_nlos_db=23.0)
ALWAYS_LOS = EnvParams(a=1e-300, b=1.0, eta_los_db=1.6, eta_nlos_db=23.0)


def draw_one_link(tx, rx, tx_n, rx_n, env, rng):
    """One link through the study's drawing path: its (rx_n, tx_n) matrix,
    state, large-scale gain and distance."""
    matrices, states, gains = _draw_links([(tx, rx)], rx_n, tx_n, env, rng)
    return matrices[0], states[0], gains[0], distance(tx, rx)


def make_realization(bs_mats, user_mats, eta=0.9, direct=None) -> ChannelRealization:
    """Realization from explicit per-UAV matrices: bs_mats[l] is (N, M),
    user_mats[l] is (1, N), direct is (1, M) or None.  Every UAV link is
    recorded as LoS."""
    G = np.array(bs_mats, dtype=complex)
    h = np.array(user_mats, dtype=complex)[:, 0]
    return ChannelRealization(
        G=G,
        h=h,
        direct=np.asarray(direct, dtype=complex)[0] if direct is not None else None,
        eta_reflect=eta,
        states=[LinkState.LOS] * (2 * len(G)),
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
