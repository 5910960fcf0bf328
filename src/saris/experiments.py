"""Experiment harness: scenario configuration, seeded Monte Carlo sweeps, and
CSV emission for the deployment surface, rate-trend, and estimation studies.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import estimation
from .beamforming import BfOptions
from .channel import ENV_PRESETS, EnvParams, dbm_to_watts
from .deployment import Grid2D, _draw_trial, collect_metrics, grid_search
from .geometry import Point3
from .streams import mix_seed, substream

__all__ = [
    "SweepError",
    "Scenario",
    "ResultTable",
    "write_csv",
    "run_deploy_map",
    "run_rate_vs_uavs",
    "run_rate_vs_radius",
    "run_estimation_sweep",
]

DEFAULT_SEARCH_TRIALS = 100
BASELINE_ALTITUDE_M = 50.0  # swarm center height above the user-region center

# Coarser grid for the per-point deployment searches inside the rate sweeps;
# the final rates are still measured at the full trial count.
DEFAULT_SEARCH_GRID = Grid2D(x_min=0.0, x_max=400.0, x_step=50.0, z_min=20.0, z_max=300.0, z_step=40.0)


@dataclass
class Scenario:
    """Full simulation scenario; field names mirror the config keys."""

    bs: Point3 = field(default_factory=lambda: Point3(0.0, 0.0, 0.0))
    M: int = 16
    N: int = 20
    L: int = 10
    r_a_m: float = 10.0
    r_u_m: float = 100.0
    x_u_m: float = 200.0
    eta_reflect: float = 0.9
    env: EnvParams = field(default_factory=lambda: ENV_PRESETS["dense_urban"])
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
        if not (self.r_a_m > 0 and self.r_u_m > 0):
            raise ValueError("cluster radii must be > 0")
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


class SweepError(ValueError):
    """An invalid sweep argument; raised before any Monte Carlo work starts."""


def _sweep_points(values, make) -> list:
    """``make(v)`` for every sweep value, all up front, so that a bad value
    fails before the first trial runs."""
    if not values:
        raise SweepError("sweep value lists must be nonempty")
    try:
        return [make(v) for v in values]
    except ValueError as exc:
        raise SweepError(str(exc)) from exc


def _check_search_trials(search_trials: int) -> None:
    if search_trials < 1:
        raise SweepError(f"search trials must be >= 1, got {search_trials}")


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[tuple]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def write_csv(path, columns, rows, seed: int, config_digest: str) -> None:
    """CSV with a comment line recording the seed and config digest.

    Floats serialize with 10 significant digits so repeated runs are
    byte-identical.
    """
    try:
        parent = os.path.dirname(os.fspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", newline="\n") as f:
            f.write(f"# seed={seed} config={config_digest}\n")
            f.write(",".join(columns) + "\n")
            for row in rows:
                f.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc


def _mean_ci(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and 95% normal-approximation confidence halfwidth."""
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    half = 1.96 * float(values.std(ddof=1)) / math.sqrt(values.size)
    return mean, half


def _optimized_center(
    scenario: Scenario,
    grid: Grid2D,
    search_trials: int,
    bf: BfOptions,
    stream_keys: tuple,
) -> Point3:
    """Grid-search the swarm center on the mean-rate objective."""
    gm = grid_search(
        scenario,
        grid,
        search_trials,
        master_seed=mix_seed(scenario.seed, *stream_keys),
        bf=bf,
        objective="rate",
    )
    return Point3(gm.best[0], 0.0, gm.best[1])


def run_deploy_map(
    scenario: Scenario,
    grid: Grid2D,
    bf: BfOptions | None = None,
) -> ResultTable:
    """Gain surface over the (x, z) grid, one row per cell, row-major in x
    then z; prints the argmax cell."""
    gm = grid_search(scenario, grid, scenario.trials, scenario.seed, bf=bf or BfOptions(), objective="gain")
    rows = [
        (float(x), float(z), float(gm.mean_gain_db[ix, iz]))
        for ix, x in enumerate(grid.x_values)
        for iz, z in enumerate(grid.z_values)
    ]
    x_star, z_star, gain_star = gm.best
    print(f"best cell: x={x_star:g} m, z={z_star:g} m, mean gain {gain_star:.3f} dB")
    return ResultTable(["x_m", "z_m", "mean_gain_db"], rows)


def run_rate_vs_uavs(
    scenario: Scenario,
    l_values: list[int],
    optimize_deployment: bool = True,
    grid: Grid2D | None = None,
    bf: BfOptions | None = None,
    search_trials: int = DEFAULT_SEARCH_TRIALS,
) -> ResultTable:
    """Mean achievable rate versus the swarm size L.

    The optimized center is found per L by a rate-objective grid search at
    reduced trial count, then rated at the full trial count; the baseline
    center sits 50 m above the user-region center.
    """
    scenarios = _sweep_points(l_values, lambda L: replace(scenario, L=int(L)))
    _check_search_trials(search_trials)
    bf = bf or BfOptions()
    grid = grid or DEFAULT_SEARCH_GRID
    rows = []
    for sc in scenarios:
        base_rng = substream(sc.seed, "rate-vs-uavs", "baseline", sc.L)
        _, base_rates = collect_metrics(sc, sc.baseline_center, sc.trials, base_rng, bf)
        base_mean, base_half = _mean_ci(base_rates)
        if optimize_deployment:
            center = _optimized_center(sc, grid, search_trials, bf, ("rate-vs-uavs", "search", sc.L))
            opt_rng = substream(sc.seed, "rate-vs-uavs", "optimized", sc.L)
            _, opt_rates = collect_metrics(sc, center, sc.trials, opt_rng, bf)
            mean, half = _mean_ci(opt_rates)
        else:
            mean, half = base_mean, base_half
        rows.append((sc.L, mean, base_mean, half))
    return ResultTable(["L", "mean_rate_bps_hz", "baseline_rate_bps_hz", "ci95"], rows)


def run_rate_vs_radius(
    scenario: Scenario,
    r_a_values: list[float],
    r_u_values: list[float],
    grid: Grid2D | None = None,
    bf: BfOptions | None = None,
    search_trials: int = DEFAULT_SEARCH_TRIALS,
) -> ResultTable:
    """Mean achievable rate over the (swarm radius, user radius) cross
    product, with the deployment re-optimized per point."""
    scenarios = _sweep_points(
        [(r_a, r_u) for r_a in r_a_values for r_u in r_u_values],
        lambda radii: replace(scenario, r_a_m=float(radii[0]), r_u_m=float(radii[1])),
    )
    _check_search_trials(search_trials)
    bf = bf or BfOptions()
    grid = grid or DEFAULT_SEARCH_GRID
    rows = []
    for sc in scenarios:
        r_a, r_u = sc.r_a_m, sc.r_u_m
        center = _optimized_center(sc, grid, search_trials, bf, ("rate-vs-radius", "search", r_a, r_u))
        rng = substream(sc.seed, "rate-vs-radius", "rate", r_a, r_u)
        _, rates = collect_metrics(sc, center, sc.trials, rng, bf)
        mean, half = _mean_ci(rates)
        rows.append((r_a, r_u, mean, half))
    return ResultTable(["r_a_m", "r_u_m", "mean_rate_bps_hz", "ci95"], rows)


def _check_pilot_snr(snr_db: float | None) -> float | None:
    if snr_db is not None and math.isnan(snr_db):
        raise ValueError("pilot SNR must be a number, inf or 'data', got nan")
    return snr_db


def run_estimation_sweep(
    scenario: Scenario,
    n_groups_values: list[int],
    pilot_snr_values: list[float | None],
    bf: BfOptions | None = None,
) -> ResultTable:
    """Estimation overhead/accuracy trade-off over (n_groups, pilot SNR).

    The swarm sits at the baseline center; per trial the pilot protocol runs,
    the group-level beamformer is built from the estimates, and the achieved
    rate is compared against the perfect-CSI per-element solution.
    """
    groupings = _sweep_points(
        n_groups_values, lambda g: estimation.group_subsurfaces(scenario.L, scenario.N, int(g))
    )
    pilot_snr_values = _sweep_points(pilot_snr_values, _check_pilot_snr)
    bf = bf or BfOptions()
    rows = []
    for grouping in groupings:
        n_groups = grouping.n_groups
        book = estimation.pilot_patterns(n_groups)
        for snr_db in pilot_snr_values:
            snr_key = "data" if snr_db is None else float(snr_db)
            rng = substream(scenario.seed, "estimate", n_groups, str(snr_key))
            mses = np.empty(scenario.trials)
            rates_p = np.empty(scenario.trials)
            rates_e = np.empty(scenario.trials)
            for i in range(scenario.trials):
                r = _draw_trial(scenario, scenario.baseline_center, rng)
                est = estimation.run_estimation(
                    r, grouping, book, snr_db, rng, noise_w=scenario.noise_w
                )
                rate_p, rate_e, _ = estimation.rate_loss(
                    r, est, scenario.p_tx_w, scenario.noise_w, bf.tol, bf.max_iter
                )
                mses[i], rates_p[i], rates_e[i] = est.mse, rate_p, rate_e
            rows.append(
                (
                    n_groups,
                    n_groups + 1,
                    snr_key,
                    float(mses.mean()),
                    float(rates_p.mean()),
                    float(rates_e.mean()),
                )
            )
    return ResultTable(
        ["n_groups", "overhead", "pilot_snr_db", "mse", "rate_perfect", "rate_estimated"], rows
    )
