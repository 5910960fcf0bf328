import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from saris.beamforming import BfOptions
from saris.channel import (
    ChannelRealization,
    EnvParams,
    LinkState,
    _draw_links,
    path_loss_db,
)
from saris.deployment import Scenario, _draw_trial
from saris.geometry import Point3, distance
from saris.streams import substream

settings.register_profile(
    "suite", deadline=None, max_examples=50, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

# The beamformer settings a run takes when its config leaves the bf.* keys
# unset; the package's functions take them from their caller.
BF = BfOptions()

# Dense-urban losses with an LoS-probability sigmoid that pins the link state.
# a = 200 keeps the LoS probability at most 8.4e-51 on (0, 90] degrees, so
# only a state uniform of exactly 0.0 (one chance in 2**53) would draw LoS;
# a = 1e-300 makes it exactly 1.0.  The state uniform is drawn either way, so
# the stream advances as for any link.
ALWAYS_NLOS = EnvParams(a=200.0, b=1.0, eta_los_db=1.6, eta_nlos_db=23.0)
ALWAYS_LOS = EnvParams(a=1e-300, b=1.0, eta_los_db=1.6, eta_nlos_db=23.0)


def draw_one_link(tx, rx, tx_n, rx_n, env, rng):
    """One link through the study's drawing path: its (rx_n, tx_n) matrix,
    state, large-scale gain and distance.  The gain is the public path-loss
    formula at the drawn state, capped at unity as the drawing path caps it."""
    matrices, states = _draw_links([(tx, rx)], rx_n, tx_n, env, rng)
    d = distance(tx, rx)
    return matrices[0], states[0], min(1.0, 10.0 ** (-path_loss_db(d, states[0], env) / 10.0)), d


def elevation_angle_deg(ground: Point3, aerial: Point3) -> float:
    """Elevation of ``aerial`` seen from ``ground``, in (0, 90].

    Returns 90 when the aerial node is directly overhead.  Raises if the
    aerial node is not strictly above the ground node.
    """
    dz = aerial.z - ground.z
    if dz <= 0:
        raise ValueError("aerial node must be strictly above the ground node")
    return math.degrees(math.atan2(dz, math.hypot(ground.x - aerial.x, ground.y - aerial.y)))


def coefficient_counts(users, **scenario):
    """Channel coefficients to estimate for each of ``users`` users, read off
    their realizations under a terrestrial direct link: the cascade rows'
    entries plus the direct row's."""
    sc = Scenario(direct_link_mode="terrestrial_nlos", **scenario)
    rng = substream(5, "coefficients")
    trials = (_draw_trial(sc, sc.baseline_center, rng) for _ in range(users))
    return [r.rows.size + r.direct_row.size for r in trials]


def is_interior(gm, grid) -> bool:
    """Whether a grid search's argmax lies strictly inside its grid."""
    xs, zs = grid.x_values, grid.z_values
    x_star, z_star, _ = gm.best
    return (xs[0] < x_star < xs[-1]) and (zs[0] < z_star < zs[-1])


def boundary_max(gm) -> float:
    """Largest score on the outer rows and columns of a grid search's map."""
    m = gm.mean_gain_db
    return float(max(m[0, :].max(), m[-1, :].max(), m[:, 0].max(), m[:, -1].max()))


def make_realization(bs_mats, user_mats, eta=0.9, direct=None) -> ChannelRealization:
    """Realization from explicit per-UAV matrices: bs_mats[l] is (N, M),
    user_mats[l] is (1, N), direct is (1, M) or None.  Folded into rows as
    realize_channels folds its draws; every UAV link is recorded as LoS."""
    G = np.array(bs_mats, dtype=complex)
    h = np.array(user_mats, dtype=complex)
    rows = np.conj(h[:, 0])[:, :, None] * G
    rows *= eta
    return ChannelRealization(
        states=[LinkState.LOS] * (2 * len(G)),
        rows=rows.reshape(-1, G.shape[2]),
        direct_row=np.conj(np.asarray(direct, dtype=complex)[0]) if direct is not None else None,
    )


def unit_realization(L, N, M=1, eta=0.9) -> ChannelRealization:
    """All-ones links: every cascaded per-element contribution has magnitude
    eta, so the aligned objective is exactly (eta*L*N)^2 for M = 1."""
    return make_realization(
        [np.ones((N, M))] * L, [np.ones((1, N))] * L, eta=eta
    )


def _complex_gaussian(rng, shape, scale):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_links(rng, L, N, M, scale=1.0):
    """Complex Gaussian per-UAV matrices (bs_mats, user_mats), as
    make_realization takes them."""
    bs_mats = [_complex_gaussian(rng, (N, M), scale) for _ in range(L)]
    return bs_mats, [_complex_gaussian(rng, (1, N), scale) for _ in range(L)]


def random_realization(rng, L, N, M, direct=False, scale=1.0) -> ChannelRealization:
    bs_mats, user_mats = random_links(rng, L, N, M, scale)
    return make_realization(
        bs_mats, user_mats, direct=_complex_gaussian(rng, (1, M), scale) if direct else None
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
