"""Air-to-ground probabilistic LoS/NLoS channels and cascaded-link assembly.

Large-scale model: free-space path loss plus an environment-dependent excess
loss for LoS or NLoS, with the link state drawn per Monte Carlo trial from an
elevation-angle sigmoid.  Small-scale model: LoS links are a deterministic
rank-1 product of unit-modulus array responses; NLoS links are i.i.d.
zero-mean unit-variance complex Gaussian per entry.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point3, distance

SPEED_OF_LIGHT = 3.0e8


def dbm_to_watts(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class EnvParams:
    """Air-to-ground environment constants; the defaults are the dense-urban
    parameter set of Al-Hourani et al. (IEEE WCL 2014).

    a, b parameterize the elevation sigmoid of the LoS probability;
    eta_los_db / eta_nlos_db are the excess losses added to free-space path
    loss; f_c is the carrier frequency in Hz.
    """

    a: float = 12.08
    b: float = 0.11
    eta_los_db: float = 1.6
    eta_nlos_db: float = 23.0
    f_c: float = 2.0e9

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("sigmoid constants a, b must be > 0")
        if not (self.eta_nlos_db > self.eta_los_db >= 0):
            raise ValueError("excess losses must satisfy eta_nlos > eta_los >= 0")
        if not (self.f_c > 0):
            raise ValueError("carrier frequency must be > 0")


class LinkState(enum.Enum):
    LOS = "los"
    NLOS = "nlos"


@dataclass(slots=True)
class LinkChannel:
    """One realized link's state, as bs_to_uav and uav_to_user list it."""

    state: LinkState


@dataclass(eq=False)
class ChannelRealization:
    """One Monte Carlo draw of every link in the reflected system, as
    ``realize_channels`` folds it: one state per UAV link (the L BS->UAV links
    first), the (L*N, M) cascaded rows and the (M,) direct row, or None when
    the direct path is blocked (the dead-zone default); see ``cascade_rows``."""

    states: list[LinkState]
    rows: np.ndarray
    direct_row: np.ndarray | None

    @property
    def bs_to_uav(self) -> list[LinkChannel]:
        """The L BS->UAV links (the benchmark tracer reads their states)."""
        return list(map(LinkChannel, self.states[: len(self.states) // 2]))

    @property
    def uav_to_user(self) -> list[LinkChannel]:
        """The L UAV->user links."""
        return list(map(LinkChannel, self.states[len(self.states) // 2 :]))


def los_probability(theta_deg: float, env: EnvParams) -> float:
    """Sigmoid LoS probability for an air-to-ground link at elevation theta_deg."""
    # Kept: accepted configs reach it (grid.z_min_m = 5e-324 underflows theta to 0).
    if not (0 < theta_deg <= 90):
        raise ValueError(f"elevation angle must be in (0, 90], got {theta_deg}")
    try:
        return 1.0 / (1.0 + env.a * math.exp(-env.b * (theta_deg - env.a)))
    except OverflowError:
        return 0.0  # the sigmoid's limit where the exponential overflows


def path_loss_db(d: float, state: LinkState, env: EnvParams) -> float:
    """Free-space path loss plus the per-state excess loss, in dB."""
    if not (d > 0):
        raise ValueError(f"link distance must be > 0, got {d}")
    fspl = 20.0 * math.log10(4.0 * math.pi * env.f_c * d / SPEED_OF_LIGHT)
    excess = env.eta_los_db if state is LinkState.LOS else env.eta_nlos_db
    return fspl + excess


def terrestrial_path_loss_db(d: float, env: EnvParams) -> float:
    """Log-distance ground-to-ground path loss: 35 dB per decade beyond a 1 m
    free-space reference."""
    if not (d > 0):
        raise ValueError(f"link distance must be > 0, got {d}")
    ref = 20.0 * math.log10(4.0 * math.pi * env.f_c / SPEED_OF_LIGHT)
    return ref + 35.0 * math.log10(d)


def _phasors(steps: np.ndarray, count: int) -> np.ndarray:
    """np.exp(1j * step * np.arange(count)) for each phase step, one row each.

    The argument is purely imaginary, so np.exp of it is exactly (cos, sin)
    of its imaginary part; the real kernels give the same bits at a fraction
    of the cost.  (1j * step has imaginary part +0.0 for a step of -0.0;
    callers that need that sign pass +0.0.)
    """
    x = steps[:, None] * np.arange(count)
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _gain_from_pl(pl_db: float) -> float:
    # No amplification: a loss of at most 0 dB (a pathological sub-wavelength
    # distance) gives unit gain, decided before the power, which overflows a
    # double for a loss below about -3083 dB.
    return 1.0 if pl_db <= 0.0 else 10.0 ** (-pl_db / 10.0)


# Phase step per unit sin(angle) of a half-wavelength ULA.
_HALF_WAVE_STEP = 2.0 * math.pi * 0.5
# Unit-variance complex Gaussian entries are raw normal pairs scaled by this
# (the same bits as dividing the complex entries by sqrt(2)).
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _draw_links(
    pairs: list[tuple[Point3, Point3]],
    rx_n: int,
    tx_n: int,
    env: EnvParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[LinkState]]:
    """Draw air-to-ground links with equal element counts, in order.

    Returns the stacked matrices (len(pairs), rx_n, tx_n) and the per-link
    states.  The per-link scalars (geometry, the state draw, path loss,
    steering angles) are computed in ``math``: numpy's SIMD transcendentals
    differ from libm in the last bit.  The matrices are then built for all
    links at once.  Generator use per link: one uniform for the state
    (whatever the LoS probability), then, for an NLoS link, its fading
    normals.
    """
    states: list[LinkState] = []
    gains: list[float] = []
    los_rows: list[int] = []
    steps_rx: list[float] = []
    steps_tx: list[float] = []
    matrices = np.zeros((len(pairs), rx_n, tx_n), dtype=complex)
    # A row's float view holds (re, im) pairs as a (rx_n, tx_n, 2) array would.
    normals = matrices.view(np.float64)
    for i, (tx, rx) in enumerate(pairs):
        dx = tx.x - rx.x
        dy = tx.y - rx.y
        dz = tx.z - rx.z
        # Elevation of the higher end seen from the lower end.
        theta = math.degrees(math.atan2(abs(dz), math.hypot(dx, dy)))
        d = math.sqrt(dx**2 + dy**2 + dz**2)
        p_los = los_probability(theta, env)
        state = LinkState.LOS if rng.random() < p_los else LinkState.NLOS
        gains.append(_gain_from_pl(path_loss_db(d, state, env)))
        states.append(state)
        if state is LinkState.LOS:
            los_rows.append(i)
            # Arrival keyed to the signed elevation at rx, departure to the
            # azimuth at tx.
            steps_rx.append(_HALF_WAVE_STEP * math.sin(math.asin(dz / d)))
            steps_tx.append(_HALF_WAVE_STEP * math.sin(math.atan2(rx.y - tx.y, rx.x - tx.x)))
        else:
            rng.standard_normal(out=normals[i])

    normals *= _INV_SQRT2
    n_los = len(los_rows)
    if n_los:
        # Rank-1 LoS structure: outer product of the unit-modulus responses.
        responses = _phasors(np.array(steps_rx + steps_tx), max(rx_n, tx_n))
        matrices[los_rows] = responses[:n_los, :rx_n, None] * np.conj(responses[n_los:, None, :tx_n])
    return np.sqrt(gains)[:, None, None] * matrices, states


def realize_channels(
    bs: Point3,
    uavs: list[Point3],
    user: Point3,
    M: int,
    N: int,
    eta_reflect: float,
    env: EnvParams,
    rng: np.random.Generator,
    direct_link_mode: str,
) -> ChannelRealization:
    """Draw every link of one trial (L incident matrices G, L reflected
    vectors h, and optionally the direct path) and fold them into the
    cascaded rows.

    Draw order is fixed (all BS->UAV links, then all UAV->user links, then
    the direct link) so a given stream state reproduces the realization
    bit-for-bit.
    """
    G, states = _draw_links([(bs, uav) for uav in uavs], N, M, env, rng)
    h, h_states = _draw_links([(uav, user) for uav in uavs], 1, N, env, rng)
    rows = np.conj(h[:, 0])[:, :, None] * G
    rows *= eta_reflect
    direct_row = None
    if direct_link_mode == "terrestrial_nlos":
        # Ground-to-ground NLoS path: log-distance loss, i.i.d. complex Gaussian.
        gain = _gain_from_pl(terrestrial_path_loss_db(distance(bs, user), env))
        normals = rng.standard_normal((M, 2))
        normals *= _INV_SQRT2
        direct_row = np.conj(math.sqrt(gain) * normals.view(np.complex128)[:, 0])
    return ChannelRealization(states + h_states, rows.reshape(-1, M), direct_row)


def cascade_rows(r: ChannelRealization) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-element cascaded contribution rows.

    Returns (rows, direct_row): rows has shape (L*N, M) with row (l, n) equal
    to conj(h_l[n]) * eta * G_l[n, :]; direct_row is conj of the direct
    vector (or None).  For phases theta and unit precoder w the received
    scalar is sum_k exp(1j*theta_k) * rows[k] @ w (+ direct_row @ w), i.e. the
    row-form effective channel applied to w.  Built by ``realize_channels``.
    """
    return r.rows, r.direct_row


def effective_channel(r: ChannelRealization, phases: np.ndarray) -> np.ndarray:
    """Cascaded effective channel (row form, length M) for per-element phases.

    phases is a float array of shape (L*N,), in cascade-row order.  The
    returned vector e satisfies "received scalar = e @ w"; it is linear in
    each per-element phasor and additive over UAVs.
    """
    rows, direct_row = cascade_rows(r)
    e = np.exp(1j * phases) @ rows
    if direct_row is not None:
        e = e + direct_row
    return e
