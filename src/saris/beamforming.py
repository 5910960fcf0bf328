"""Closed-form single-user beamforming: maximum-ratio transmission at the BS
alternated with per-element reflection phase alignment.

Both half-steps are exact maximizers given the other variable, so the
objective |e @ w|^2 ascends monotonically; convergence is declared when
the relative gain drops below a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelRealization, cascade_rows

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BfOptions:
    tol: float = 1e-6
    max_iter: int = 100
    phase_bits: int = 0  # 0 = continuous phases

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tolerance must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        # A codebook step 2*pi/2^bits below 2^-50 is finer than the spacing
        # of doubles near 2*pi, so more bits would quantize nothing.
        if not 0 <= self.phase_bits <= 52:
            raise ValueError(f"phase_bits must be in 0..52, got {self.phase_bits}")


class BeamformingSolution(NamedTuple):
    """Converged beamformer: unit-norm w, one phase per contribution row
    (for a realization, the L*N elements in cascade-row order, UAV-major),
    the final objective |e @ w|^2 (= objective_trace[-1]), the per-half-step
    objective trace, and the number of iterations run."""

    w: np.ndarray
    phases: np.ndarray
    objective: float
    objective_trace: list[float]
    iterations: int


def optimize_rows(
    rows: np.ndarray,
    direct_row: np.ndarray | None,
    tol: float,
    max_iter: int,
    init_w: np.ndarray | None = None,
) -> BeamformingSolution:
    """Alternating ascent on a generic contribution-row decomposition.

    rows is (K, M): the effective row channel for phases theta is
    e = sum_k exp(1j*theta_k) rows[k] (+ direct_row), and the solution's
    phases are those K thetas.  One sum, e0 = sum_k rows[k] (+ direct_row),
    feeds both starts: the default one is all-zero phases followed by MRT,
    w = conj(e0); init_w skips that MRT and starts the first alignment from
    the given precoder (used for warm restarts), at objective |e0 @ init_w|^2.
    A zero contribution keeps phase 0.  A channel that is zero or holds a
    NaN raises ValueError instead of returning a NaN objective.

    The loop carries the MRT precoder unnormalized, w = conj(e), so the
    objective |e @ w/||w|| |^2 is ||w||^2; alignment reads only the phases
    of rows @ w, and w is normalized once, on return.  The trace holds the
    starting objective, then per iteration the objective after the phase
    half-step, |e_new @ w_old|^2 / ||w_old||^2 = (sum_k |rows[k] @ w_old|
    + |direct_row @ w_old|)^2 / ||w_old||^2, and after the MRT half-step,
    ||w_new||^2.  A given init_w counts as unit-norm.
    """
    rows_c = np.conj(rows)
    direct_c = None if direct_row is None else np.conj(direct_row)

    e = rows.sum(axis=0)
    if direct_row is not None:
        e = e + direct_row
    if init_w is None:
        w = np.conj(e)
        obj = norm2 = float(np.vdot(w, w).real)
        if not obj > 0:
            raise ValueError("effective channel is identically zero or not finite")
    else:
        w = init_w
        obj = float(abs(e @ w) ** 2)
        norm2 = 1.0
    trace = [obj]

    # A zero contribution makes 0/0 below; that iteration is redone.
    with np.errstate(invalid="ignore"):
        for iterations in range(1, max_iter + 1):
            t = rows @ w
            mag = np.abs(t)
            gain = float(mag.sum())
            if direct_row is not None:
                d_scal = complex(direct_row @ w)
                d_mag = abs(d_scal)
                gain += d_mag
                if d_mag > 0:
                    t *= (d_scal / d_mag).conjugate()  # onto the direct path's phase
            t /= mag  # conj(phasor): the aligned row weights for conj(e)
            w_new = t @ rows_c
            if direct_c is not None:
                w_new += direct_c
            new_obj = float(np.vdot(w_new, w_new).real)
            if not new_obj > 0:
                t[mag == 0] = 1.0  # phase-0 tie-break for a zero contribution
                w_new = t @ rows_c
                if direct_c is not None:
                    w_new += direct_c
                new_obj = float(np.vdot(w_new, w_new).real)
                if not new_obj > 0:
                    raise ValueError("MRT is undefined for a zero channel vector or a non-finite one")
            trace.append(gain * gain / norm2)  # after the phase half-step
            trace.append(new_obj)  # after the MRT half-step
            w = w_new
            if new_obj - obj <= tol * obj:
                break
            obj = norm2 = new_obj
    theta = np.mod(np.angle(np.conj(t)), TWO_PI)
    return BeamformingSolution(w / math.sqrt(new_obj), theta, new_obj, trace, iterations)


def alternating_optimize(r: ChannelRealization, tol: float, max_iter: int) -> BeamformingSolution:
    """Joint active/passive beamforming by alternating the two closed forms."""
    rows, direct_row = cascade_rows(r)
    return optimize_rows(rows, direct_row, tol, max_iter)


def quantize_phases(phases: np.ndarray, bits: int) -> np.ndarray:
    """Round each phase to the nearest point of the 2^bits uniform codebook (bits >= 1)."""
    levels = 2**bits
    step = TWO_PI / levels
    return np.mod(np.round(phases / step), levels) * step
