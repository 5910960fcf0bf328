"""The simulation scenario, Monte Carlo evaluation of candidate swarm-center
positions, and exhaustive grid search over the (x, z) plane at y = 0.

Each grid cell is scored with an independent deterministic sub-stream keyed
by (master seed, cell index), so resizing the grid never perturbs other
cells and the full map reproduces from (scenario, grid, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .beamforming import BfOptions, alternating_optimize, quantize_phases
from .channel import (
    ChannelRealization,
    EnvParams,
    dbm_to_watts,
    effective_channel,
    realize_channels,
)
from .geometry import Point3, sample_cluster, sample_uniform_disk
from .streams import substream


BASELINE_ALTITUDE_M = 50.0  # swarm center height above the user-region center
BS_POSITION = Point3(0.0, 0.0, 0.0)  # at the origin: x_u_m is measured from the BS
MAX_GRID_CELLS = 1_000_000  # far past any study; stops a mistyped step from allocating 1e300 cells
# Bound on the magnitude of every placement input, in m: the coordinates a
# trial builds from them then differ by at most 4e150 m, whose square the
# link geometry takes as a finite double.
MAX_COORDINATE_M = 1e150


@dataclass(frozen=True)
class Scenario:
    """Full simulation scenario; field names mirror the config keys."""

    M: int = 16
    N: int = 20
    L: int = 10
    r_a_m: float = 10.0
    r_u_m: float = 100.0
    x_u_m: float = 200.0
    eta_reflect: float = 0.9
    env: EnvParams = field(default_factory=EnvParams)
    # Macro-BS class transmit power; at -80 dBm noise this puts the optimized
    # link in the O(1) bit/s/Hz regime where the rate trends are meaningful.
    p_tx_w: float = dbm_to_watts(43.0)
    noise_w: float = dbm_to_watts(-80.0)
    direct_link_mode: str = "blocked"
    trials: int = 1000
    seed: int = 42

    def __post_init__(self):
        if min(self.M, self.N, self.L) < 1:
            raise ValueError("element counts must be >= 1")
        if not (0 < self.r_a_m <= MAX_COORDINATE_M and 0 < self.r_u_m <= MAX_COORDINATE_M):
            raise ValueError(f"cluster radii must be in (0, {MAX_COORDINATE_M:g}] m")
        if not abs(self.x_u_m) <= MAX_COORDINATE_M:
            raise ValueError(f"user-region distance must be at most {MAX_COORDINATE_M:g} m in magnitude")
        if not (0 < self.eta_reflect <= 1):
            raise ValueError("reflection efficiency must be in (0, 1]")
        if not (self.noise_w > 0 and self.p_tx_w > 0):
            raise ValueError("power levels must be > 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.direct_link_mode not in ("blocked", "terrestrial_nlos"):
            raise ValueError(
                f"direct_link_mode must be 'blocked' or 'terrestrial_nlos', got {self.direct_link_mode!r}"
            )

    @property
    def baseline_center(self) -> Point3:
        return Point3(self.x_u_m, 0.0, BASELINE_ALTITUDE_M)


@dataclass(frozen=True)
class Grid2D:
    x_min: float = 0.0
    x_max: float = 400.0
    x_step: float = 10.0
    z_min: float = 10.0
    z_max: float = 300.0
    z_step: float = 10.0

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.z_min < self.z_max):
            raise ValueError("grid extents must satisfy min < max")
        if not (self.x_step > 0 and self.z_step > 0):
            raise ValueError("grid steps must be > 0")
        if not (self.z_min > 0):
            raise ValueError("swarm altitude grid must start above ground")
        if not max(-self.x_min, self.x_max, self.z_max) <= MAX_COORDINATE_M:
            raise ValueError(f"grid extents must be at most {MAX_COORDINATE_M:g} m in magnitude")
        nx = _axis_count(self.x_min, self.x_max, self.x_step)
        nz = _axis_count(self.z_min, self.z_max, self.z_step)
        if not nx * nz <= MAX_GRID_CELLS:
            raise ValueError(f"grid has {nx * nz:.7g} cells, more than {MAX_GRID_CELLS}")

    @property
    def x_values(self) -> np.ndarray:
        n = int(_axis_count(self.x_min, self.x_max, self.x_step))
        return self.x_min + self.x_step * np.arange(n)

    @property
    def z_values(self) -> np.ndarray:
        n = int(_axis_count(self.z_min, self.z_max, self.z_step))
        return self.z_min + self.z_step * np.arange(n)


def _axis_count(lo: float, hi: float, step: float) -> float:
    """Count of the values lo + k*step <= hi (1e-9 steps of slack), as a float for the cap."""
    return float(np.floor((hi - lo) / step + 1e-9)) + 1.0


@dataclass
class GainMap:
    mean_gain_db: np.ndarray  # (x, z) cell means of the objective: gain in dB, or a rate search's rate
    best: tuple[float, float, float]  # (x*, z*, gain*)


def _draw_trial(scenario: Scenario, center: Point3, rng: np.random.Generator) -> ChannelRealization:
    """Sample the user in its disk and the L UAVs in the swarm disk around
    ``center``, then realize every link.  Draw order: user, UAVs, links."""
    user = sample_uniform_disk(Point3(scenario.x_u_m, 0.0, 0.0), scenario.r_u_m, rng)
    uavs = sample_cluster(center, scenario.r_a_m, scenario.L, rng)
    return realize_channels(
        BS_POSITION,
        uavs,
        user,
        M=scenario.M,
        N=scenario.N,
        eta_reflect=scenario.eta_reflect,
        env=scenario.env,
        rng=rng,
        direct_link_mode=scenario.direct_link_mode,
    )


def simulate_trial(
    scenario: Scenario, center: Point3, rng: np.random.Generator, bf: BfOptions
) -> tuple[float, float]:
    """One Monte Carlo trial at a candidate swarm center.

    Draws the trial's links (see _draw_trial) and converges the joint
    beamformer.  Returns (channel power gain, achievable rate).
    """
    r = _draw_trial(scenario, center, rng)
    sol = alternating_optimize(r, bf.tol, bf.max_iter)
    if bf.phase_bits > 0:
        theta_q = quantize_phases(sol.phases, bf.phase_bits)
        e = effective_channel(r, theta_q)
        obj = float(np.vdot(e, e).real)  # |e @ w|^2 at the MRT precoder
        if not obj > 0:
            raise ValueError("MRT is undefined for a zero channel vector or a non-finite one")
    else:
        obj = sol.objective
    rate = math.log2(1.0 + scenario.p_tx_w * obj / scenario.noise_w)
    return obj, rate


def collect_metrics(
    scenario: Scenario, center: Point3, trials: int, rng: np.random.Generator, bf: BfOptions
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (gains, rates) arrays at a fixed swarm center."""
    gains = np.empty(trials)
    rates = np.empty(trials)
    for i in range(trials):
        gains[i], rates[i] = simulate_trial(scenario, center, rng, bf)
    return gains, rates


def evaluate_position(
    scenario: Scenario,
    center: Point3,
    trials: int,
    rng: np.random.Generator,
    bf: BfOptions,
    objective: str,
) -> float:
    """Mean channel power gain in dB at a candidate center (objective="gain"),
    or mean achievable rate in bit/s/Hz (objective="rate")."""
    gains, rates = collect_metrics(scenario, center, trials, rng, bf)
    if objective == "gain":
        return float(10.0 * np.log10(gains.mean()))
    return float(rates.mean())


def grid_search(
    scenario: Scenario,
    grid: Grid2D,
    trials: int,
    master_seed: int,
    bf: BfOptions,
    objective: str,
) -> GainMap:
    """Exhaustively score every (x, z) cell with evaluate_position and return
    the map plus argmax.

    Ties break toward the smallest x, then the smallest z.  A non-finite cell
    score raises ValueError naming the cell.
    """
    xs, zs = grid.x_values, grid.z_values
    values = np.empty((len(xs), len(zs)))
    for ix, x in enumerate(xs):
        for iz, z in enumerate(zs):
            cell_rng = substream(master_seed, "deploy-map", ix, iz)
            center = Point3(float(x), 0.0, float(z))
            v = float(evaluate_position(scenario, center, trials, cell_rng, bf, objective))
            if not math.isfinite(v):
                raise ValueError(f"non-finite score {v} at grid cell x={x:g} m, z={z:g} m")
            values[ix, iz] = v
    ix, iz = np.unravel_index(np.argmax(values), values.shape)
    best = (float(xs[ix]), float(zs[iz]), float(values[ix, iz]))
    return GainMap(mean_gain_db=values, best=best)
