"""Sub-surface pilot protocol: group the reflecting elements, sweep a
Fourier reflection-state book over N'+1 pilot symbols, and least-squares
estimate the direct channel plus one aggregated cascaded channel per group.

Estimating N' aggregates instead of all per-element coefficients trades
beamforming resolution (one shared phase per group) against pilot overhead
(N'+1 symbols).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import beamforming
from .channel import ChannelRealization, cascade_rows, effective_channel


@dataclass
class EstimationResult:
    direct_estimate: np.ndarray
    group_estimates: np.ndarray  # (N', M)
    mse: float


def group_subsurfaces(L: int, N: int, n_groups: int) -> int:
    """Size of each of n_groups contiguous, equal groups of the L*N elements.

    Group g holds cascade rows g*size .. (g+1)*size - 1 (UAV-major), so
    ``np.repeat(group_values, size)`` gives each element its group's value.
    """
    total = L * N
    if n_groups < 1 or total % n_groups != 0:
        raise ValueError(f"n_groups={n_groups} must divide the element count {total}")
    return total // n_groups


def pilot_patterns(n_groups: int) -> np.ndarray:
    """(N'+1) x (N'+1) reflection-state book, one row per pilot symbol: the
    DFT matrix, so unit modulus, orthogonal columns, condition number 1, and
    column 0 (the direct-path indicator) all ones.  ``run_estimation``
    applies it with the FFT and never builds it."""
    if n_groups < 1:
        raise ValueError("n_groups must be >= 1")
    n = n_groups + 1
    # scipy.linalg.dft's own expression, bit for bit.
    return np.exp(-2j * np.pi * np.arange(n) / n).reshape(-1, 1) ** np.arange(n)


def group_aggregate_channels(r: ChannelRealization, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth aggregates: per-group sums of the cascaded contribution
    rows, plus the direct row (zeros when the direct path is blocked)."""
    size = group_subsurfaces(r.L, r.N, n_groups)
    rows, direct_row = cascade_rows(r)
    groups = rows.reshape(n_groups, size, r.M).sum(axis=1)
    direct = direct_row if direct_row is not None else np.zeros(r.M, dtype=complex)
    return groups, direct


def run_estimation(
    r: ChannelRealization,
    n_groups: int,
    pilot_snr_db: float | None,
    rng: np.random.Generator,
    noise_w: float | None = None,
) -> EstimationResult:
    """Synthesize the N'+1 received pilot vectors and least-squares invert the
    reflection-state book of ``pilot_patterns``.  The book is the DFT matrix,
    so ``fft`` applies it, ``ifft`` is its least-squares inverse, and no BLAS
    thread count moves a bit.

    Pilot noise: if pilot_snr_db is finite, the per-entry noise variance is
    set so the mean received pilot power sits at that SNR; if it is None the
    absolute data noise power noise_w is used, and must be given; math.inf
    means noiseless.
    """
    if pilot_snr_db is None and noise_w is None:
        raise ValueError("pilot noise needs a pilot SNR or the data noise power noise_w")

    truth_groups, truth_direct = group_aggregate_channels(r, n_groups)
    x_true = np.vstack([truth_direct, truth_groups])  # (N'+1, M)
    # np.fft is loaded lazily by numpy, so studies that never estimate skip it.
    y = np.fft.fft(x_true, axis=0)

    if pilot_snr_db is None:
        sigma2 = float(noise_w)
    elif math.isinf(pilot_snr_db):
        sigma2 = 0.0
    else:
        sig_power = float(np.mean(np.abs(y) ** 2))
        sigma2 = sig_power * 10.0 ** (-pilot_snr_db / 10.0)
    if sigma2 > 0:
        y = y + math.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        )

    x_hat = np.fft.ifft(y, axis=0)
    mse = float(np.mean(np.abs(x_hat - x_true) ** 2))
    return EstimationResult(
        direct_estimate=x_hat[0],
        group_estimates=x_hat[1:],
        mse=mse,
    )


def rate_loss(
    r: ChannelRealization,
    est: EstimationResult,
    p_tx: float,
    noise: float,
    tol: float = 1e-6,
    max_iter: int = 100,
) -> tuple[float, float]:
    """Rate under estimated CSI (one shared phase per group, beamformer built
    from the estimates, evaluated on the true channel) against the true
    per-element solution.

    Returns (rate_perfect, rate_estimated).  Both sides run at a tolerance
    of at most 1e-10 but keep the max_iter cap, and about a fifth of those
    runs stop at the cap, so the gap mixes CSI quality with optimizer
    truncation (ROADMAP.md, "Optimizer runs that converge").  When the
    estimated configuration scores higher on the true channel than the
    perfect-CSI run, the perfect-CSI side refines it by ascent and keeps the
    better of the two, so rate_estimated <= rate_perfect per trial.  A lead
    of at most 1e-12 relative is a rounding tie: the perfect-CSI objective
    takes the estimated one, with no ascent.
    """
    tol_run = min(tol, 1e-10)
    size = group_subsurfaces(r.L, r.N, len(est.group_estimates))
    d_hat = est.direct_estimate if r.direct_row is not None else None

    est_sol = beamforming.optimize_rows(est.group_estimates, d_hat, tol_run, max_iter)
    e_true = effective_channel(r, np.repeat(est_sol.phases, size))
    obj_est = float(abs(e_true @ est_sol.w) ** 2)

    obj_perfect = beamforming.alternating_optimize(r, tol_run, max_iter).objective
    if obj_perfect < obj_est:
        if obj_est - obj_perfect <= 1e-12 * obj_est:
            # A last-bit tie (N' = L*N with noiseless pilots solves the
            # perfect problem up to FFT rounding), not a better optimum.
            obj_perfect = obj_est
        else:
            # Local-optimum safeguard: continue the ascent from the estimated
            # configuration; the refined objective dominates obj_est.
            rows, direct_row = cascade_rows(r)
            refined = beamforming.optimize_rows(rows, direct_row, tol_run, max_iter, init_w=est_sol.w)
            obj_perfect = max(obj_perfect, refined.objective)

    rate_perfect = math.log2(1.0 + p_tx * obj_perfect / noise)
    rate_estimated = math.log2(1.0 + p_tx * obj_est / noise)
    return rate_perfect, rate_estimated
