"""Monte Carlo evaluation of candidate swarm-center positions and exhaustive
grid search over the (x, z) plane at y = 0.

Each grid cell is scored with an independent deterministic sub-stream keyed
by (master seed, cell index), so resizing the grid never perturbs other
cells and the full map reproduces from (scenario, grid, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamforming import BfOptions, alternating_optimize, mrt, quantize_phases
from .channel import ChannelRealization, effective_channel, realize_channels
from .geometry import DiskRegion, Point3, sample_cluster, sample_uniform_disk
from .streams import substream

__all__ = [
    "Grid2D",
    "GainMap",
    "simulate_trial",
    "collect_metrics",
    "evaluate_position",
    "grid_search",
]


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

    @property
    def x_values(self) -> np.ndarray:
        n = int(math.floor((self.x_max - self.x_min) / self.x_step + 1e-9)) + 1
        return self.x_min + self.x_step * np.arange(n)

    @property
    def z_values(self) -> np.ndarray:
        n = int(math.floor((self.z_max - self.z_min) / self.z_step + 1e-9)) + 1
        return self.z_min + self.z_step * np.arange(n)


@dataclass
class GainMap:
    grid: Grid2D
    mean_gain_db: np.ndarray  # (len(x_values), len(z_values))
    best: tuple[float, float, float]  # (x*, z*, gain*)

    def is_interior(self) -> bool:
        xs, zs = self.grid.x_values, self.grid.z_values
        x_star, z_star, _ = self.best
        return (xs[0] < x_star < xs[-1]) and (zs[0] < z_star < zs[-1])

    def boundary_max(self) -> float:
        m = self.mean_gain_db
        return float(max(m[0, :].max(), m[-1, :].max(), m[:, 0].max(), m[:, -1].max()))


def _draw_trial(scenario, center: Point3, rng: np.random.Generator) -> ChannelRealization:
    """Sample the user in its disk and the L UAVs in the swarm disk around
    ``center``, then realize every link.  Draw order: user, UAVs, links."""
    user = sample_uniform_disk(DiskRegion(Point3(scenario.x_u_m, 0.0, 0.0), scenario.r_u_m), rng)
    uavs = sample_cluster(DiskRegion(center, scenario.r_a_m), scenario.L, rng)
    return realize_channels(
        scenario.bs,
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
    scenario, center: Point3, rng: np.random.Generator, bf: BfOptions
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
        w = mrt(np.conj(e))
        obj = abs(e @ w) ** 2
    else:
        obj = sol.objective
    rate = math.log2(1.0 + scenario.p_tx_w * obj / scenario.noise_w)
    return obj, rate


def collect_metrics(
    scenario, center: Point3, trials: int, rng: np.random.Generator, bf: BfOptions | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (gains, rates) arrays at a fixed swarm center."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if center.y != 0.0:
        raise ValueError("swarm center must lie in the y = 0 plane")
    if not (center.z > 0):
        raise ValueError("swarm center altitude must be > 0")
    bf = bf or BfOptions()
    gains = np.empty(trials)
    rates = np.empty(trials)
    for i in range(trials):
        gains[i], rates[i] = simulate_trial(scenario, center, rng, bf)
    return gains, rates


def evaluate_position(
    scenario,
    center: Point3,
    trials: int,
    rng: np.random.Generator,
    bf: BfOptions | None = None,
    objective: str = "gain",
) -> float:
    """Mean channel power gain in dB at a candidate center (objective="gain"),
    or mean achievable rate in bit/s/Hz (objective="rate")."""
    gains, rates = collect_metrics(scenario, center, trials, rng, bf)
    if objective == "gain":
        return float(10.0 * np.log10(gains.mean()))
    if objective == "rate":
        return float(rates.mean())
    raise ValueError(f"unknown objective: {objective!r}")


def grid_search(
    scenario,
    grid: Grid2D,
    trials: int,
    master_seed: int,
    bf: BfOptions | None = None,
    objective: str = "gain",
    evaluate_fn=None,
) -> GainMap:
    """Exhaustively score every (x, z) cell and return the map plus argmax.

    Ties break toward the smallest x, then the smallest z.  A non-finite cell
    score raises ValueError naming the cell.  evaluate_fn is a test hook with
    the evaluate_position signature.
    """
    evaluate = evaluate_fn or (
        lambda sc, center, n, cell_rng: evaluate_position(sc, center, n, cell_rng, bf, objective)
    )
    xs, zs = grid.x_values, grid.z_values
    values = np.empty((len(xs), len(zs)))
    best = (float(xs[0]), float(zs[0]), -math.inf)
    for ix, x in enumerate(xs):
        for iz, z in enumerate(zs):
            cell_rng = substream(master_seed, "deploy-map", ix, iz)
            v = float(evaluate(scenario, Point3(float(x), 0.0, float(z)), trials, cell_rng))
            if not math.isfinite(v):
                raise ValueError(f"non-finite score {v} at grid cell x={x:g} m, z={z:g} m")
            values[ix, iz] = v
            if v > best[2]:
                best = (float(x), float(z), v)
    return GainMap(grid=grid, mean_gain_db=values, best=best)
