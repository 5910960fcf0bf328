"""Experiment harness: seeded Monte Carlo studies of the deployment surface,
the rate trends and the estimation trade-off, each run from a resolved
SimConfig, and the CSV writer.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import estimation
from .config import ConfigError, SimConfig, _fmt
from .deployment import Scenario, _draw_trial, collect_metrics, grid_search
from .geometry import Point3
from .streams import mix_seed, substream


def _sweep_points(values, make) -> list:
    """``make(v)`` for every sweep value, all up front, so that a bad value
    raises ConfigError before the first trial runs."""
    if not values:
        raise ConfigError("sweep value lists must be nonempty")
    try:
        return [make(v) for v in values]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[tuple]


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


def _rate_at(sc: Scenario, cfg: SimConfig, center: Point3, *stream_keys) -> tuple[float, float]:
    """Mean achievable rate over ``sc.trials`` trials at ``center`` on the
    sub-stream ``stream_keys``, and its 95% normal-approximation halfwidth;
    a non-finite mean raises ValueError naming the center.  Rates are never
    negative, so a finite mean means every rate, and the halfwidth, is finite."""
    _, rates = collect_metrics(sc, center, sc.trials, substream(sc.seed, *stream_keys), cfg.bf)
    mean = float(rates.mean())
    if not math.isfinite(mean):
        raise ValueError(f"non-finite mean rate {mean} at center x={center.x:g} m, z={center.z:g} m")
    half = 1.96 * float(rates.std(ddof=1)) / math.sqrt(rates.size) if rates.size > 1 else 0.0
    return mean, half


def _optimized_center(sc: Scenario, cfg: SimConfig, stream_keys: tuple) -> Point3:
    """Grid-search the swarm center for the sweep point ``sc`` on the
    mean-rate objective, over the config's search grid."""
    gm = grid_search(
        sc,
        cfg.grid,
        cfg.search_trials,
        master_seed=mix_seed(sc.seed, *stream_keys),
        bf=cfg.bf,
        objective="rate",
    )
    return Point3(gm.best[0], 0.0, gm.best[1])


def run_deploy_map(cfg: SimConfig) -> ResultTable:
    """Gain surface over the (x, z) grid, one row per cell, row-major in x
    then z; prints the argmax cell."""
    sc, grid = cfg.scenario, cfg.grid
    gm = grid_search(sc, grid, sc.trials, sc.seed, bf=cfg.bf, objective="gain")
    rows = [
        (float(x), float(z), float(gm.mean_gain_db[ix, iz]))
        for ix, x in enumerate(grid.x_values)
        for iz, z in enumerate(grid.z_values)
    ]
    x_star, z_star, gain_star = gm.best
    print(f"best cell: x={x_star:g} m, z={z_star:g} m, mean gain {gain_star:.3f} dB")
    return ResultTable(["x_m", "z_m", "mean_gain_db"], rows)


def run_rate_vs_uavs(cfg: SimConfig, l_values: list[int]) -> ResultTable:
    """Mean achievable rate versus the swarm size L.

    The optimized center is found per L by a rate-objective grid search at
    reduced trial count, then rated at the full trial count; the baseline
    center sits 50 m above the user-region center.
    """
    scenarios = _sweep_points(l_values, lambda L: replace(cfg.scenario, L=int(L)))
    rows = []
    for sc in scenarios:
        base_mean, _ = _rate_at(sc, cfg, sc.baseline_center, "rate-vs-uavs", "baseline", sc.L)
        center = _optimized_center(sc, cfg, ("rate-vs-uavs", "search", sc.L))
        mean, half = _rate_at(sc, cfg, center, "rate-vs-uavs", "optimized", sc.L)
        rows.append((sc.L, mean, base_mean, half))
    return ResultTable(["L", "mean_rate_bps_hz", "baseline_rate_bps_hz", "ci95"], rows)


def run_rate_vs_radius(
    cfg: SimConfig, r_a_values: list[float], r_u_values: list[float]
) -> ResultTable:
    """Mean achievable rate over the (swarm radius, user radius) cross
    product, with the deployment re-optimized per point."""
    scenarios = _sweep_points(
        [(r_a, r_u) for r_a in r_a_values for r_u in r_u_values],
        lambda radii: replace(cfg.scenario, r_a_m=float(radii[0]), r_u_m=float(radii[1])),
    )
    rows = []
    for sc in scenarios:
        r_a, r_u = sc.r_a_m, sc.r_u_m
        center = _optimized_center(sc, cfg, ("rate-vs-radius", "search", r_a, r_u))
        mean, half = _rate_at(sc, cfg, center, "rate-vs-radius", "rate", r_a, r_u)
        rows.append((r_a, r_u, mean, half))
    return ResultTable(["r_a_m", "r_u_m", "mean_rate_bps_hz", "ci95"], rows)


def run_estimation_sweep(
    cfg: SimConfig,
    n_groups_values: list[int],
    pilot_snr_values: list[float | None],
) -> ResultTable:
    """Estimation overhead/accuracy trade-off over (n_groups, pilot SNR).

    The swarm sits at the baseline center; per trial the pilot protocol runs,
    the group-level beamformer is built from the estimates, and the achieved
    rate is compared against the perfect-CSI per-element solution.  A
    non-finite mean raises ValueError naming the (n_groups, pilot SNR) point.
    """
    scenario, bf = cfg.scenario, cfg.bf

    def check_n_groups(g) -> int:
        estimation.group_subsurfaces(scenario.L, scenario.N, int(g))
        return int(g)

    n_groups_values = _sweep_points(n_groups_values, check_n_groups)
    pilot_snr_values = _sweep_points(pilot_snr_values, lambda snr_db: snr_db)
    rows = []
    for n_groups in n_groups_values:
        for snr_db in pilot_snr_values:
            snr_key = "data" if snr_db is None else float(snr_db)
            rng = substream(scenario.seed, "estimate", n_groups, snr_key)
            mses = np.empty(scenario.trials)
            rates_p = np.empty(scenario.trials)
            rates_e = np.empty(scenario.trials)
            for i in range(scenario.trials):
                r = _draw_trial(scenario, scenario.baseline_center, rng)
                est = estimation.run_estimation(r, n_groups, snr_db, rng, noise_w=scenario.noise_w)
                rate_p, rate_e = estimation.rate_loss(
                    r, est, scenario.p_tx_w, scenario.noise_w, bf.tol, bf.max_iter
                )
                mses[i], rates_p[i], rates_e[i] = est.mse, rate_p, rate_e
            means = (float(mses.mean()), float(rates_p.mean()), float(rates_e.mean()))
            if not all(map(math.isfinite, means)):
                raise ValueError(
                    f"non-finite mean (mse, rate_perfect, rate_estimated) = {means}"
                    f" at n_groups={n_groups}, pilot SNR {snr_key}"
                )
            rows.append((n_groups, n_groups + 1, snr_key, *means))
    return ResultTable(
        ["n_groups", "overhead", "pilot_snr_db", "mse", "rate_perfect", "rate_estimated"], rows
    )
