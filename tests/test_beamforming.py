import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import BF, make_realization, random_links, random_realization, unit_realization
from saris.beamforming import alternating_optimize, optimize_rows, quantize_phases
from saris.channel import cascade_rows, effective_channel
from saris.deployment import Scenario, _draw_trial
from saris.geometry import Point3
from saris.streams import substream

TWO_PI = 2.0 * math.pi


def grid_oracle(r, levels=64):
    """Independent exhaustive oracle: per-element phase grid with the exact
    Cauchy-Schwarz-optimal precoder (||h_eff||^2) at every grid point."""
    rows, direct_row = cascade_rows(r)
    K = rows.shape[0]
    assert K <= 2, "oracle is exponential in the element count"
    axes = np.meshgrid(*[np.arange(levels) * (TWO_PI / levels)] * K, indexing="ij")
    thetas = np.stack([a.ravel() for a in axes], axis=1)  # (levels^K, K)
    e = np.exp(1j * thetas) @ rows
    if direct_row is not None:
        e = e + direct_row
    return float(np.max(np.sum(np.abs(e) ** 2, axis=1)))


def random_unit(rng, m):
    """A random unit-norm complex precoder of length m."""
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return v / np.linalg.norm(v)


def align_phases(r, w):
    """The phases optimize_rows' first phase half-step picks from precoder w:
    every contribution rotated onto the direct path's argument, or onto 0."""
    return optimize_rows(*cascade_rows(r), BF.tol, 1, init_w=w).phases


class TestAlignPhases:
    def test_worked_two_element_case(self):
        # single UAV, M=1, N=2, h_r = (1, e^{j pi/2}), g = (1, 1), eta = 1
        r = make_realization(
            [np.ones((2, 1))], [np.array([[1.0, np.exp(1j * math.pi / 2)]])], eta=1.0
        )
        theta = align_phases(r, np.array([1.0 + 0j]))
        np.testing.assert_allclose(theta, [0.0, math.pi / 2], atol=1e-12)
        e = effective_channel(r, theta)
        assert abs(e[0]) == pytest.approx(2.0, rel=1e-12)

    def test_worked_case_matches_exhaustive_grid(self):
        # 360^2-point grid confirms the aligned value is the global maximum
        r = make_realization(
            [np.ones((2, 1))], [np.array([[1.0, np.exp(1j * math.pi / 2)]])], eta=1.0
        )
        grid = np.arange(360) * (TWO_PI / 360)
        t1, t2 = np.meshgrid(grid, grid, indexing="ij")
        rows, _ = cascade_rows(r)
        vals = np.abs(np.exp(1j * t1) * rows[0, 0] + np.exp(1j * t2) * rows[1, 0])
        theta = align_phases(r, np.array([1.0 + 0j]))
        e = effective_channel(r, theta)
        assert abs(e[0]) >= vals.max() - 1e-9

    def test_already_aligned_gives_zero_phases(self):
        r = make_realization([np.ones((3, 1))], [np.ones((1, 3))], eta=0.9)
        theta = align_phases(r, np.array([1.0 + 0j]))
        np.testing.assert_allclose(theta, 0.0, atol=1e-12)

    def test_single_element_magnitude_invariant_to_reference(self, rng):
        g = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
        h = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
        r = make_realization([g], [h], eta=0.9)
        w = random_unit(rng, 2)
        theta = align_phases(r, w)
        rows, _ = cascade_rows(r)
        e = effective_channel(r, theta)
        assert abs(e @ w) == pytest.approx(abs(rows[0] @ w), rel=1e-12)

    def test_zero_contribution_tie_break(self):
        r = make_realization([np.array([[1.0], [0.0]])], [np.ones((1, 2))], eta=1.0)
        theta = align_phases(r, np.array([1.0 + 0j]))
        assert theta[1] == 0.0

    def test_direct_link_reference(self, rng):
        r = random_realization(rng, 2, 3, 4, direct=True)
        w = random_unit(rng, 4)
        theta = align_phases(r, w)
        rows, direct_row = cascade_rows(r)
        # aligned sum magnitude = sum of magnitudes + direct magnitude
        expected = np.abs(rows @ w).sum() + abs(direct_row @ w)
        e = effective_channel(r, theta)
        assert abs(e @ w) == pytest.approx(expected, rel=1e-12)


class TestAlternatingOptimize:
    def test_unit_norm_and_trace_shape(self, rng):
        sol = alternating_optimize(random_realization(rng, 2, 3, 4), BF.tol, BF.max_iter)
        assert np.linalg.norm(sol.w) == pytest.approx(1.0, abs=1e-12)
        assert sol.phases.shape == (6,)
        assert ((sol.phases >= 0) & (sol.phases < TWO_PI)).all()
        assert len(sol.objective_trace) == 1 + 2 * sol.iterations
        assert sol.objective == sol.objective_trace[-1]
        # perfbench's tracer reads the trace and the iteration count by position
        assert sol[3] is sol.objective_trace and sol[4] == sol.iterations

    def test_scalar_bs_reaches_alignment_optimum(self, rng):
        # for M = 1 phase alignment is globally optimal in one iteration
        for _ in range(20):
            r = random_realization(rng, 2, 4, 1)
            rows, _ = cascade_rows(r)
            sol = alternating_optimize(r, BF.tol, BF.max_iter)
            assert sol.objective == pytest.approx(np.abs(rows).sum() ** 2, rel=1e-10)

    def test_scalar_bs_with_direct(self, rng):
        for _ in range(10):
            r = random_realization(rng, 1, 3, 1, direct=True)
            rows, direct_row = cascade_rows(r)
            sol = alternating_optimize(r, BF.tol, BF.max_iter)
            expected = (np.abs(rows).sum() + abs(direct_row[0])) ** 2
            assert sol.objective == pytest.approx(expected, rel=1e-10)

    def test_ascent_trace(self, rng):
        for _ in range(200):
            r = random_realization(rng, 2, 2, 3)
            tr = alternating_optimize(r, BF.tol, BF.max_iter).objective_trace
            diffs = np.diff(tr)
            assert (diffs >= -1e-12 * max(tr)).all()

    def test_matches_exhaustive_grid_on_tiny_instances(self, rng):
        for _ in range(12):
            m = int(rng.integers(1, 3))
            n = int(rng.integers(1, 3))
            r = random_realization(rng, 1, n, m)
            sol = alternating_optimize(r, BF.tol, BF.max_iter)
            oracle = grid_oracle(r)
            assert sol.objective >= oracle * (1 - 5e-3)
            # continuous optimum can exceed the 64-level grid only slightly
            assert sol.objective <= oracle * (1 + 5e-3)

    def test_scale_covariance(self, rng):
        # scaling every effective-channel coefficient by s scales the
        # objective by s^2 and leaves the argmax phases unchanged
        bs_mats, user_mats = random_links(rng, 2, 3, 4)
        s = 3.7
        r = make_realization(bs_mats, user_mats)
        scaled = make_realization(bs_mats, [u * s for u in user_mats])
        a = alternating_optimize(r, BF.tol, BF.max_iter)
        b = alternating_optimize(scaled, BF.tol, BF.max_iter)
        assert b.objective == pytest.approx(a.objective * s**2, rel=1e-9)
        np.testing.assert_allclose(
            np.exp(1j * a.phases), np.exp(1j * b.phases), atol=1e-9
        )

    def test_scale_covariance_both_hops(self, rng):
        # scaling both hops compounds: each cascaded row carries s twice
        bs_mats, user_mats = random_links(rng, 2, 3, 4)
        s = 2.1
        r = make_realization(bs_mats, user_mats)
        scaled = make_realization([b * s for b in bs_mats], [u * s for u in user_mats])
        assert alternating_optimize(scaled, BF.tol, BF.max_iter).objective == pytest.approx(
            alternating_optimize(r, BF.tol, BF.max_iter).objective * s**4, rel=1e-9
        )

    def test_aperture_law_on_unit_fixture(self):
        # all unit cascaded gains: objective is exactly (eta L N)^2
        for L, N in [(1, 4), (2, 4), (1, 8), (3, 5)]:
            sol = alternating_optimize(unit_realization(L, N, eta=0.9), BF.tol, BF.max_iter)
            assert sol.objective == pytest.approx((0.9 * L * N) ** 2, rel=1e-12)

    def test_zero_channel_rejected(self):
        r = make_realization([np.zeros((2, 2))], [np.zeros((1, 2))])
        with pytest.raises(ValueError):
            alternating_optimize(r, BF.tol, BF.max_iter)


def reference_optimize_rows(rows, direct_row, tol, max_iter, init_w=None):
    """The ascent loop optimize_rows replaced, as the reference: w
    renormalized by MRT every iteration and both half-step objectives taken
    as |e @ w|^2.  Returns (w, phases, objective, trace, iterations)."""

    def unit(h):
        norm = math.sqrt(np.vdot(h, h).real)
        if norm == 0:
            raise ValueError("MRT is undefined for a zero channel vector")
        return h / norm

    rows = np.asarray(rows, dtype=complex)
    e = rows.sum(axis=0)
    if direct_row is not None:
        e = e + direct_row
    if init_w is None:
        if not np.vdot(e, e).real > 0:
            raise ValueError("effective channel is identically zero")
        w = unit(np.conj(e))
    else:
        w = np.asarray(init_w, dtype=complex)
    obj = float(abs(e @ w) ** 2)
    trace = [obj]
    for iterations in range(1, max_iter + 1):
        t = rows @ w
        ref_phasor = 1.0
        if direct_row is not None:
            d_scal = complex(direct_row @ w)
            ref_phasor = d_scal / abs(d_scal) if d_scal != 0 else 1.0
        mag = np.abs(t)
        phasor = np.divide(np.conj(t) * ref_phasor, mag, out=np.ones_like(t), where=mag > 0)
        e = phasor @ rows
        if direct_row is not None:
            e = e + direct_row
        trace.append(float(abs(e @ w) ** 2))
        w = unit(np.conj(e))
        new_obj = float(abs(e @ w) ** 2)
        trace.append(new_obj)
        if new_obj - obj <= tol * obj:
            break
        obj = new_obj
    return w, np.mod(np.angle(phasor), TWO_PI), new_obj, trace, iterations


class TestOptimizeRowsMatchesReference:
    """The unnormalized-precoder loop against the reference loop: the same
    iterations, and w, objective and trace equal to 1e-12 relative."""

    def assert_matches(self, rows, direct_row, tol, init_w=None):
        w, phases, objective, trace, iterations = reference_optimize_rows(
            rows, direct_row, tol, 100, init_w
        )
        sol = optimize_rows(rows, direct_row, tol, 100, init_w)
        assert sol.iterations == iterations
        np.testing.assert_allclose(sol.w, w, rtol=0, atol=1e-12)  # both unit-norm
        assert sol.objective == pytest.approx(objective, rel=1e-12)
        np.testing.assert_allclose(sol.objective_trace, trace, rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.exp(1j * sol.phases), np.exp(1j * phases), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("direct", [False, True], ids=["cascade-only", "direct-row"])
    def test_random_rows(self, rng, tol, direct):
        for K in (1, 2, 3, 5, 20, 40, 200, 400):
            for M in (1, 4, 16):
                scale = 10.0 ** rng.uniform(-6, 0)
                rows = scale * (rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M)))
                direct_row = scale * (rng.standard_normal(M) + 1j * rng.standard_normal(M)) if direct else None
                self.assert_matches(rows, direct_row, tol)
                # warm restart from an arbitrary unit precoder
                self.assert_matches(rows, direct_row, tol, random_unit(rng, M))

    def test_zero_row_keeps_phase_zero(self, rng):
        rows = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        rows[2] = 0.0
        for direct_row in (None, rng.standard_normal(3) + 1j * rng.standard_normal(3)):
            self.assert_matches(rows, direct_row, 1e-10)
            assert optimize_rows(rows, direct_row, BF.tol, BF.max_iter).phases[2] == 0.0

    def test_restart_orthogonal_to_a_row(self):
        # w = e_0 leaves row 1 with no contribution in the first alignment
        rows = np.array([[1.0, 0.0], [0.0, 1.0j]])
        self.assert_matches(rows, None, 1e-10, np.array([1.0 + 0j, 0.0]))

    def test_zero_channel_error_unchanged(self):
        rows = np.zeros((3, 2), dtype=complex)
        with pytest.raises(ValueError, match="effective channel power is zero"):
            optimize_rows(rows, None, BF.tol, BF.max_iter)
        for direct_row in (None, np.zeros(2, dtype=complex)):
            for run in (reference_optimize_rows, optimize_rows):
                with pytest.raises(ValueError, match="MRT is undefined for a zero channel vector"):
                    run(rows, direct_row, BF.tol, BF.max_iter, init_w=np.array([1.0 + 0j, 0.0]))

    def test_nan_rows_raise(self):
        # caught at the start, or, from an init_w, in the first iteration
        rows = np.array([[1.0, math.nan], [0.5j, 2.0]])
        with pytest.raises(ValueError, match="effective channel power is zero, underflows a double or is not finite"):
            optimize_rows(rows, None, BF.tol, BF.max_iter)
        with pytest.raises(ValueError, match="MRT is undefined for a zero channel vector or a non-finite one"):
            optimize_rows(rows, None, BF.tol, BF.max_iter, init_w=np.array([1.0 + 0j, 0.0]))


class TestQuantizePhases:
    def test_one_bit_rounds_to_zero(self):
        assert quantize_phases(np.array([0.4 * math.pi]), 1)[0] == 0.0

    def test_one_bit_rounds_to_pi(self):
        assert quantize_phases(np.array([0.6 * math.pi]), 1)[0] == pytest.approx(math.pi)

    def test_high_resolution_close_to_identity(self, rng):
        theta = rng.uniform(0, TWO_PI, (3, 4))
        q = quantize_phases(theta, 16)
        err = np.abs(np.exp(1j * q) - np.exp(1j * theta))
        assert (err <= TWO_PI / 2**17 + 1e-12).all()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_output_in_codebook(self, seed, bits):
        theta = np.random.default_rng(seed).uniform(0, TWO_PI, 5)
        q = quantize_phases(theta, bits)
        step = TWO_PI / 2**bits
        ratio = q / step
        np.testing.assert_allclose(ratio, np.round(ratio), atol=1e-9)
        assert (q >= 0).all() and (q < TWO_PI).all()

    def test_quantized_objective_never_exceeds_continuous(self, rng):
        for bits in (1, 2, 4):
            for _ in range(10):
                r = random_realization(rng, 1, 3, 2)
                sol = alternating_optimize(r, BF.tol, BF.max_iter)
                e_q = effective_channel(r, quantize_phases(sol.phases, bits))
                assert abs(e_q @ sol.w) ** 2 <= sol.objective * (1 + 1e-12)


def sdr_bound(rows, steps, rng, rank=24):
    """Upper bound on max ||sum_k phi_k rows[k]||^2 over unit phasors phi, the
    cascade-only objective, from its semidefinite relaxation max tr(QV) s.t.
    diag(V) = 1, V psd, with Q = conj(rows rows^H) (Wu & Zhang, TWC 2019).

    A rank-``rank`` factor U with unit rows climbs tr(U^H Q U) by U <-
    rownorm(QU) (Burer & Monteiro, Math. Prog. 2003).  y_k = Re(U_k^H (QU)_k)
    is then a dual point: diag(y + c) - Q is psd for c = max(0, -lambda_min(
    diag(y) - Q)), so sum(y) + K*c bounds the relaxation at any step count.
    Returns (bound, certified); certified means c <= 1e-13 * sum(y), so the
    bound is the relaxation's optimum to within K * 1e-13 relative.
    """
    Q = np.conj(rows @ rows.conj().T)
    U = rng.standard_normal((len(Q), rank)) + 1j * rng.standard_normal((len(Q), rank))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    for _ in range(steps):
        QU = Q @ U
        U = QU / np.linalg.norm(QU, axis=1, keepdims=True)
    y = np.einsum("kr,kr->k", U.conj(), Q @ U).real
    shift = max(0.0, -np.linalg.eigvalsh(np.diag(y) - Q)[0])
    return y.sum() + len(Q) * shift, shift <= 1e-13 * y.sum()


class TestGapToTheRelaxationBound:
    """How far the data path's ascent, optimize_rows at tol 1e-6, stops
    below the certified SDR bound at paper scale (K = L*N = 200 rows), on a
    fixed sample of 40 default-scenario trials per center and 100 factor
    steps.  The pins record what today's ascent reaches; they are not
    targets.  Most of the baseline center's large gaps outlast running the
    ascent to convergence: they are local optima or the relaxation's own
    gap, which the bound cannot tell apart."""

    # center -> (certified bounds, gap median, p90, max); each gap is
    # (bound - objective) / bound, pinned to 3 significant digits
    PINNED = {
        "baseline": (Scenario().baseline_center, (19, 6.75e-06, 0.0648, 0.0855)),
        "deploy-map optimum": (Point3(80.0, 0.0, 80.0), (29, 5.35e-07, 7.36e-06, 0.000314)),
    }

    @pytest.mark.parametrize("name", PINNED)
    def test_pinned_gap(self, name):
        center, pinned = self.PINNED[name]
        scenario = Scenario()
        trials, factors = substream(7, "cert", name), substream(7, "cert-factor", name)
        gaps, certified = [], 0
        for _ in range(40):
            r = _draw_trial(scenario, center, trials)
            objective = optimize_rows(r.rows, r.direct_row, BF.tol, BF.max_iter).objective
            bound, ok = sdr_bound(r.rows, 100, factors)
            gaps.append((bound - objective) / bound)
            certified += ok
        assert min(gaps) >= 0.0  # a valid bound is never below an attained objective
        stats = (np.median(gaps), np.percentile(gaps, 90), max(gaps))
        print(f"{name}: {certified}/40 certified, gap median/p90/max " + " ".join(f"{v:.3g}" for v in stats))
        assert (certified, *(float(f"{v:.3g}") for v in stats)) == pinned
