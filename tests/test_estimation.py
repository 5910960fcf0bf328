import math

import numpy as np
import pytest

from conftest import BF, coefficient_counts, make_realization, random_realization
from saris import beamforming
from saris.channel import effective_channel
from saris.deployment import Scenario, _draw_trial
from saris.estimation import (
    group_aggregate_channels,
    group_subsurfaces,
    pilot_patterns,
    rate_loss,
    run_estimation,
)
from saris.streams import substream


class TestCoefficientCount:
    def test_single_user_paper_setup(self):
        assert coefficient_counts(1) == [3216]

    def test_four_users(self):
        assert sum(coefficient_counts(4)) == 12864

    def test_reduces_to_two_m(self):
        assert coefficient_counts(1, M=7, N=1, L=1) == [14]


class TestGrouping:
    def test_paper_grouping(self):
        assert group_subsurfaces(10, 20, 40) == 5

    def test_singleton_groups(self):
        assert group_subsurfaces(2, 3, 6) == 1

    def test_one_group(self):
        assert group_subsurfaces(2, 3, 1) == 6

    @staticmethod
    def group_members(L, N, n_groups):
        # element k's cascade row is 2**k, so each group's aggregate spells
        # out, in binary, which elements it holds
        labels = 2.0 ** np.arange(L * N).reshape(L, 1, N)
        r = make_realization(np.ones((L, N, 1)), labels, eta=1.0)
        groups, _ = group_aggregate_channels(r, n_groups)
        return [[k for k in range(L * N) if int(g.real) >> k & 1] for g in groups[:, 0]]

    def test_every_element_assigned_once(self):
        size = group_subsurfaces(4, 6, 8)
        members = self.group_members(4, 6, 8)
        assert all(len(m) == size for m in members)
        assert sorted(k for m in members for k in m) == list(range(24))

    def test_contiguous_within_uav(self):
        members = self.group_members(2, 8, 4)
        assert members == [list(range(4 * g, 4 * g + 4)) for g in range(4)]
        assert max(members[0] + members[1]) < 8  # UAV 0's elements

    def test_expand_broadcasts_group_values(self):
        full = np.repeat(np.array([0.0, 1.0, 2.0, 3.0]), group_subsurfaces(2, 4, 4))
        assert full.shape == (8,)
        assert (full == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]).all()

    def test_non_divisor_rejected(self):
        for n_groups in (0, 3, 400):
            with pytest.raises(ValueError, match="must divide"):
                group_subsurfaces(10, 20, n_groups)

    def test_aggregates_match_expanded_phases(self, rng):
        # aggregation and np.repeat expansion share the contiguous, UAV-major
        # layout: one shared phase per group gives the same effective channel
        # through either
        for L, N, direct in [(2, 4, False), (3, 4, True), (1, 6, True), (4, 6, False)]:
            r = random_realization(rng, L, N, 3, direct=direct)
            for n_groups in [n for n in range(1, L * N + 1) if L * N % n == 0]:
                size = group_subsurfaces(L, N, n_groups)
                theta = rng.uniform(-np.pi, np.pi, n_groups)
                groups, direct_row = group_aggregate_channels(r, n_groups)
                np.testing.assert_allclose(
                    effective_channel(r, np.repeat(theta, size)),
                    np.exp(1j * theta) @ groups + direct_row,
                    rtol=0, atol=1e-12,
                )


class TestPilotBook:
    def test_two_point_book(self):
        np.testing.assert_allclose(pilot_patterns(1), [[1, 1], [1, -1]], atol=1e-12)

    @pytest.mark.parametrize("n_groups", [1, 3, 8, 40])
    def test_unit_modulus(self, n_groups):
        np.testing.assert_allclose(np.abs(pilot_patterns(n_groups)), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n_groups", [1, 3, 8, 40])
    def test_gram_is_scaled_identity(self, n_groups):
        s = pilot_patterns(n_groups)
        gram = np.conj(s.T) @ s
        np.testing.assert_allclose(gram, (n_groups + 1) * np.eye(n_groups + 1), atol=1e-9)

    def test_condition_number_one(self):
        for n_groups in (1, 12, 40, 200):
            assert np.linalg.cond(pilot_patterns(n_groups)) == pytest.approx(1.0, rel=1e-9), n_groups

    def test_fft_applies_and_inverts_the_book(self):
        # run_estimation relies on fft == states @ x and ifft == solve(states, .)
        rng = np.random.default_rng(0xFF7)
        for n_groups in range(1, 202):
            states = pilot_patterns(n_groups)
            x = rng.standard_normal((n_groups + 1, 3)) + 1j * rng.standard_normal((n_groups + 1, 3))
            for fast, reference in [
                (np.fft.fft(x, axis=0), states @ x),
                (np.fft.ifft(x, axis=0), np.linalg.solve(states, x)),
            ]:
                assert np.linalg.norm(fast - reference) <= 1e-12 * np.linalg.norm(reference), n_groups

    def test_direct_indicator_column_is_ones(self):
        np.testing.assert_allclose(pilot_patterns(5)[:, 0], 1.0, atol=1e-12)

    def test_bit_identical_to_scipy_dft(self):
        # the book reproduces scipy.linalg.dft without importing scipy at run time
        dft = pytest.importorskip("scipy.linalg").dft
        for n_groups in range(1, 401):
            assert pilot_patterns(n_groups).tobytes() == dft(n_groups + 1).tobytes(), n_groups


class TestRunEstimation:
    @pytest.mark.parametrize("n_groups", [1, 2, 4, 8])
    def test_noiseless_exact_recovery(self, rng, n_groups):
        r = random_realization(rng, 2, 4, 3, direct=True)
        est = run_estimation(r, n_groups, math.inf, substream(1, "e"), noise_w=1e-3)
        truth_groups, truth_direct = group_aggregate_channels(r, n_groups)
        rel = np.linalg.norm(est.group_estimates - truth_groups) / np.linalg.norm(truth_groups)
        assert rel < 1e-12
        np.testing.assert_allclose(est.direct_estimate, truth_direct, atol=1e-12)
        assert est.mse < 1e-24
        assert len(est.group_estimates) + 1 == n_groups + 1  # N' + 1 pilot symbols

    def test_two_equation_solve_matches_hand_computation(self):
        # N' = 1, M = 1 scalar system: y0 = d + b, y1 = d - b
        g = np.array([[0.6 - 0.3j]])
        h = np.array([[0.8 + 0.1j]])
        d = np.array([[0.2 + 0.5j]])
        r = make_realization([g], [h], eta=0.9, direct=d)
        est = run_estimation(r, 1, math.inf, substream(2, "h"), noise_w=1e-3)
        b_true = 0.9 * np.conj(h[0, 0]) * g[0, 0]
        d_true = np.conj(d[0, 0])
        y0 = d_true + b_true
        y1 = d_true - b_true
        assert est.direct_estimate[0] == pytest.approx((y0 + y1) / 2, rel=1e-12)
        assert est.group_estimates[0, 0] == pytest.approx((y0 - y1) / 2, rel=1e-12)

    def test_mse_slope_minus_one_per_decade(self, rng):
        r = random_realization(rng, 2, 4, 2)
        snrs = np.array([0.0, 10.0, 20.0, 30.0])
        mses = []
        for snr in snrs:
            stream = substream(3, "slope", float(snr))
            mses.append(
                np.mean([run_estimation(r, 4, snr, stream, noise_w=1e-3).mse for _ in range(200)])
            )
        assert all(b < a for a, b in zip(mses, mses[1:]))  # monotone in pilot SNR
        slope = np.polyfit(snrs / 10.0, np.log10(mses), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)

    def test_noise_floor_uses_data_noise_when_unset(self, rng):
        r = random_realization(rng, 1, 2, 2)
        est = run_estimation(r, 2, None, substream(4, "n"), noise_w=1e-30)
        assert est.mse > 0


class TestRateLoss:
    def test_per_element_noiseless_recovers_perfect_csi(self, rng):
        for _ in range(5):
            r = random_realization(rng, 2, 3, 4)
            est = run_estimation(r, 6, math.inf, substream(6, "p"), noise_w=1e-3)
            rate_p, rate_e = rate_loss(r, est, p_tx=0.1, noise=1e-3, tol=BF.tol, max_iter=BF.max_iter)
            assert 0 <= rate_p - rate_e <= 1e-6

    def test_single_group_loss_nonnegative(self, rng):
        r = random_realization(rng, 2, 3, 4)
        est = run_estimation(r, 1, math.inf, substream(7, "q"), noise_w=1e-3)
        rate_p, rate_e = rate_loss(r, est, p_tx=0.1, noise=1e-3, tol=BF.tol, max_iter=BF.max_iter)
        assert rate_e <= rate_p

    def test_estimated_never_beats_perfect(self, rng):
        # noisy pilots, coarse and fine groupings
        for n_groups in (1, 3, 9):
            for _ in range(30):
                r = random_realization(rng, 3, 3, 2)
                est = run_estimation(r, n_groups, 5.0, rng, noise_w=1e-3)
                rate_p, rate_e = rate_loss(r, est, p_tx=0.1, noise=1e-3, tol=BF.tol, max_iter=BF.max_iter)
                assert rate_e <= rate_p + 1e-12

    def test_mean_loss_nonincreasing_in_groups(self):
        # overhead/accuracy trade-off: finer groups help on average
        rng = substream(8, "trade")
        deltas = {n: [] for n in (1, 2, 4, 8)}
        for _ in range(300):
            r = random_realization(rng, 2, 4, 2)
            for n_groups in deltas:
                est = run_estimation(r, n_groups, math.inf, rng, noise_w=1e-3)
                rate_p, rate_e = rate_loss(r, est, p_tx=0.1, noise=1e-3, tol=BF.tol, max_iter=BF.max_iter)
                deltas[n_groups].append(rate_p - rate_e)
        means = [np.mean(deltas[n]) for n in (1, 2, 4, 8)]
        assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))

    def test_rounding_tie_runs_no_refine(self, monkeypatch):
        # At N' = L*N with noiseless pilots the estimated problem is the
        # perfect one up to FFT rounding, so the two objectives tie in the
        # last bits; a tie must not start the warm-restart ascent.
        restarts = []
        optimize_rows = beamforming.optimize_rows

        def counting(rows, direct_row, tol, max_iter, init_w=None):
            restarts.append(init_w is not None)
            return optimize_rows(rows, direct_row, tol, max_iter, init_w)

        monkeypatch.setattr(beamforming, "optimize_rows", counting)
        scenario = Scenario()
        rng = substream(11, "tie")
        for _ in range(20):
            r = _draw_trial(scenario, scenario.baseline_center, rng)
            est = run_estimation(r, scenario.L * scenario.N, math.inf, rng, noise_w=scenario.noise_w)
            rate_p, rate_e = rate_loss(r, est, scenario.p_tx_w, scenario.noise_w, BF.tol, BF.max_iter)
            assert rate_e <= rate_p
        assert len(restarts) == 40 and not any(restarts)
