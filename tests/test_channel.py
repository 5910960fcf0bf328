import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ALWAYS_LOS, ALWAYS_NLOS, draw_one_link, elevation_angle_deg, make_realization
from saris.channel import (
    ChannelRealization,
    EnvParams,
    LinkState,
    _draw_links,
    cascade_rows,
    dbm_to_watts,
    effective_channel,
    los_probability,
    path_loss_db,
    realize_channels,
    terrestrial_path_loss_db,
)
from saris.deployment import Scenario
from saris.geometry import Point3, distance
from saris.streams import substream

DENSE = EnvParams()
# The environment that gives each forced state (None: the state is drawn).
FORCING = {None: DENSE, LinkState.LOS: ALWAYS_LOS, LinkState.NLOS: ALWAYS_NLOS}


def half_wave_response(count: int, angle: float) -> np.ndarray:
    """Half-wavelength ULA response exp(1j * pi * k * sin(angle)), k = 0..count-1."""
    return np.exp(1j * math.pi * math.sin(angle) * np.arange(count))


class TestEnvParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a=0, b=0.11, eta_los_db=1.6, eta_nlos_db=23),
            dict(a=12, b=-1, eta_los_db=1.6, eta_nlos_db=23),
            dict(a=12, b=0.11, eta_los_db=23, eta_nlos_db=1.6),
            dict(a=12, b=0.11, eta_los_db=1.6, eta_nlos_db=23, f_c=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EnvParams(**kwargs)

    def test_dbm_conversion(self):
        assert dbm_to_watts(-80.0) == pytest.approx(1e-11)
        assert dbm_to_watts(43.0) == pytest.approx(19.953, rel=1e-4)


class TestLosProbability:
    def test_at_theta_equal_a(self):
        # sigmoid at theta = a is 1/(1 + a)
        assert los_probability(DENSE.a, DENSE) == pytest.approx(1.0 / 13.08, rel=1e-4)

    def test_at_ninety_degrees(self):
        assert los_probability(90.0, DENSE) == pytest.approx(0.99772, abs=1e-4)

    def test_steep_sigmoid_limit(self):
        steep = EnvParams(a=12.08, b=500.0, eta_los_db=1.6, eta_nlos_db=23.0)
        assert los_probability(12.2, steep) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("a, b", [(12.08, 1000.0), (1000.0, 1.0)])
    def test_overflowing_exponential_gives_the_limit(self, a, b):
        # exp(-b * (theta - a)) overflows a double: the sigmoid's limit is 0
        assert los_probability(1.0, EnvParams(a=a, b=b)) == 0.0

    def test_formula_holds_just_short_of_the_overflow(self):
        env = EnvParams(b=1000.0)
        theta = env.a - 0.7  # exponent about 700, below the overflow near 709.78
        assert los_probability(theta, env) == 1.0 / (1.0 + env.a * math.exp(-env.b * (theta - env.a)))

    def test_monotone_in_elevation(self):
        thetas = np.linspace(0.09, 90.0, 1000)
        probs = [los_probability(t, DENSE) for t in thetas]
        assert all(b >= a for a, b in zip(probs, probs[1:]))


class TestPathLoss:
    def test_los_frozen_value(self):
        # FSPL(1 km, 2 GHz) = 98.46 dB, plus 1.6 dB LoS excess
        assert path_loss_db(1000.0, LinkState.LOS, DENSE) == pytest.approx(100.06, abs=0.01)

    def test_nlos_frozen_value(self):
        assert path_loss_db(1000.0, LinkState.NLOS, DENSE) == pytest.approx(121.46, abs=0.01)

    def test_doubling_distance_adds_six_db(self):
        delta = path_loss_db(2000.0, LinkState.LOS, DENSE) - path_loss_db(
            1000.0, LinkState.LOS, DENSE
        )
        assert delta == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    @given(st.floats(0.1, 1e5), st.floats(1.001, 100))
    def test_fspl_ratio_exact(self, d, factor):
        delta = path_loss_db(d * factor, LinkState.LOS, DENSE) - path_loss_db(
            d, LinkState.LOS, DENSE
        )
        assert delta == pytest.approx(20.0 * math.log10(factor), abs=1e-8)

    def test_state_gap_is_excess_difference(self):
        gap = path_loss_db(500.0, LinkState.NLOS, DENSE) - path_loss_db(
            500.0, LinkState.LOS, DENSE
        )
        assert gap == pytest.approx(DENSE.eta_nlos_db - DENSE.eta_los_db, abs=1e-12)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_loss_db(0.0, LinkState.LOS, DENSE)

    def test_terrestrial_exponent(self):
        delta = terrestrial_path_loss_db(200.0, DENSE) - terrestrial_path_loss_db(100.0, DENSE)
        assert delta == pytest.approx(35.0 * math.log10(2.0), abs=1e-9)


class TestUlaResponse:
    """The LoS array responses, read off links drawn in an always-LoS environment."""

    BS = Point3(0, 0, 0)

    def test_broadside_all_ones(self):
        # the UAV lies along +x: departure azimuth 0 at the BS
        m, _, gain, _ = draw_one_link(self.BS, Point3(100, 0, 120), 4, 1, ALWAYS_LOS, substream(1, "u"))
        np.testing.assert_allclose(m / math.sqrt(gain), np.ones((1, 4)))

    def test_endfire_two_elements(self):
        # the UAV is straight overhead: arrival elevation 90 degrees at the BS
        m, _, gain, _ = draw_one_link(Point3(0, 0, 120), self.BS, 1, 2, ALWAYS_LOS, substream(1, "v"))
        np.testing.assert_allclose(m / math.sqrt(gain), [[1.0], [-1.0]], atol=1e-12)

    @given(st.integers(1, 64), st.floats(-300, 300), st.floats(-300, 300), st.floats(1, 300))
    def test_unit_modulus(self, count, x, y, z):
        m, _, gain, _ = draw_one_link(self.BS, Point3(x, y, z), count, count, ALWAYS_LOS, substream(1, "w"))
        np.testing.assert_allclose(np.abs(m) / math.sqrt(gain), 1.0, atol=1e-12)

    @given(
        st.integers(1, 64), st.integers(1, 64),
        st.floats(-300, 300), st.floats(-300, 300), st.floats(1, 300),
    )
    def test_bit_identical_to_complex_exponential(self, rx_n, tx_n, x, y, z):
        m, _, gain, d = draw_one_link(self.BS, Point3(x, y, z), tx_n, rx_n, ALWAYS_LOS, substream(1, "x"))
        el_rx = math.asin(-z / d)
        az_tx = math.atan2(y, x)
        expected = math.sqrt(gain) * np.outer(
            half_wave_response(rx_n, el_rx), np.conj(half_wave_response(tx_n, az_tx))
        )
        assert m.tobytes() == expected.tobytes()


class TestDrawLink:
    BS = Point3(0, 0, 0)
    UAV = Point3(100, 20, 120)

    def test_forced_los_scalar_magnitude(self):
        m, _, gain, _ = draw_one_link(self.BS, self.UAV, 1, 1, ALWAYS_LOS, substream(1, "a"))
        assert abs(m[0, 0]) == pytest.approx(math.sqrt(gain), rel=1e-12)

    def test_los_entries_share_magnitude(self):
        m, *_ = draw_one_link(self.BS, self.UAV, 8, 16, ALWAYS_LOS, substream(1, "b"))
        mags = np.abs(m)
        np.testing.assert_allclose(mags, mags[0, 0], rtol=1e-12)
        assert np.linalg.matrix_rank(m) == 1

    def test_forced_nlos_power_matches_gain(self):
        matrices, states = _draw_links(
            [(self.BS, self.UAV)] * 20_000, 1, 1, ALWAYS_NLOS, substream(1, "c")
        )
        gain = 10.0 ** (-path_loss_db(distance(self.BS, self.UAV), LinkState.NLOS, ALWAYS_NLOS) / 10.0)
        assert set(states) == {LinkState.NLOS}
        assert np.mean(np.abs(matrices) ** 2) == pytest.approx(gain, rel=0.04)

    def test_state_frequency_tracks_los_probability(self):
        uav = Point3(100, 0, 100)  # elevation 45 deg
        p = los_probability(45.0, DENSE)
        _, states = _draw_links([(self.BS, uav)] * 20_000, 1, 1, DENSE, substream(1, "d"))
        freq = np.mean([s is LinkState.LOS for s in states])
        assert freq == pytest.approx(p, abs=0.01)

    @pytest.mark.parametrize(
        "env, kinds",
        [(ALWAYS_LOS, {LinkState.LOS}), (ALWAYS_NLOS, {LinkState.NLOS}), (DENSE, set(LinkState))],
        ids=["all-los", "all-nlos", "mixed"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_stack_equals_one_link_draws(self, seed, env, kinds):
        # one stacked call draws and assembles each link as a one-link call
        # on the same generator would, whatever mix of states it holds
        gen = np.random.default_rng(seed)
        pairs = [(self.BS, Point3(*gen.uniform(-300, 300, 2), gen.uniform(5, 300))) for _ in range(16)]
        stack_rng, link_rng = substream(seed, "stack"), substream(seed, "stack")
        stack, states = _draw_links(pairs, 4, 3, env, stack_rng)
        links = [_draw_links([pair], 4, 3, env, link_rng) for pair in pairs]
        assert set(states) == kinds
        assert stack.tobytes() == np.concatenate([link[0] for link in links]).tobytes()
        assert states == [link[1][0] for link in links]
        assert stack_rng.bit_generator.state == link_rng.bit_generator.state

    def test_gain_capped_at_unity(self):
        # sub-wavelength LoS link: the path loss is below 0 dB, and a 1x1 LoS
        # phasor has modulus exactly 1, so any gain above the cap shows here
        m, state, _, _ = draw_one_link(Point3(0, 0, 0), Point3(0, 0, 1e-4), 1, 1, ALWAYS_LOS, substream(1, "e"))
        assert state is LinkState.LOS
        assert path_loss_db(1e-4, LinkState.LOS, ALWAYS_LOS) < 0
        assert abs(m[0, 0]) == 1.0

    @pytest.mark.parametrize("force", [None, LinkState.LOS, LinkState.NLOS])
    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_to_public_formulas(self, seed, force):
        # the link is assembled from the geometry, LoS-probability, path-loss
        # and array-response formulas, in this generator order; a forced
        # state keeps dense-urban's losses
        gen = np.random.default_rng(seed)
        ground = Point3(*gen.uniform(-300, 300, 2), 0.0)
        aerial = Point3(*gen.uniform(-300, 300, 2), gen.uniform(1, 300))
        tx, rx = (ground, aerial) if seed % 2 else (aerial, ground)
        rng, probe = substream(seed, "formulas"), substream(seed, "formulas")
        link = draw_one_link(tx, rx, 5, 3, FORCING[force], rng)

        u = probe.random()
        p_los = los_probability(elevation_angle_deg(ground, aerial), DENSE)
        state = force or (LinkState.LOS if u < p_los else LinkState.NLOS)
        d = distance(tx, rx)
        gain = min(1.0, 10.0 ** (-path_loss_db(d, state, DENSE) / 10.0))
        if state is LinkState.LOS:
            az_tx = math.atan2(rx.y - tx.y, rx.x - tx.x)
            el_rx = math.asin((tx.z - rx.z) / d)
            expected = math.sqrt(gain) * np.outer(
                half_wave_response(3, el_rx), np.conj(half_wave_response(5, az_tx))
            )
        else:
            parts = probe.standard_normal((3, 5, 2))
            expected = math.sqrt(gain) * (parts.view(np.complex128)[..., 0] / math.sqrt(2.0))
        assert link[1:] == (state, gain, d)
        assert link[0].tobytes() == expected.tobytes()
        assert rng.random() == probe.random()


class TestRealizeChannels:
    BS = Point3(0, 0, 0)
    USER = Point3(200, 10, 0)
    UAVS = [Point3(100 + i, -i, 100) for i in range(10)]

    def test_paper_shapes(self):
        r = realize_channels(
            self.BS, self.UAVS, self.USER, M=16, N=20, eta_reflect=0.9, env=DENSE,
            rng=substream(2, "a"), direct_link_mode="blocked",
        )
        assert r.rows.shape == (200, 16)
        assert len(r.states) == 20
        assert len(r.bs_to_uav) == 10 and len(r.uav_to_user) == 10

    def test_record_keeps_only_what_a_trial_reads(self):
        # realize_channels folds the link stacks and eta into the rows
        assert [f.name for f in dataclasses.fields(ChannelRealization)] == ["states", "rows", "direct_row"]

    def test_constructor_takes_the_stored_fields(self):
        params = list(inspect.signature(ChannelRealization).parameters)
        assert params == [f.name for f in dataclasses.fields(ChannelRealization)]

    def test_direct_blocked_by_default(self):
        # the scenario default blocks the direct path
        r = realize_channels(
            self.BS, self.UAVS, self.USER, M=4, N=4, eta_reflect=0.9, env=DENSE,
            rng=substream(2, "b"), direct_link_mode=Scenario().direct_link_mode,
        )
        assert r.direct_row is None

    def test_direct_terrestrial_mode(self):
        kw = dict(M=4, N=4, eta_reflect=0.9, env=DENSE)
        r = realize_channels(
            self.BS, self.UAVS, self.USER, rng=substream(2, "c"),
            direct_link_mode="terrestrial_nlos", **kw,
        )
        # the direct path is drawn last: a blocked draw from the same stream
        # leaves the probe at its normals
        probe = substream(2, "c")
        blocked = realize_channels(self.BS, self.UAVS, self.USER, rng=probe, direct_link_mode="blocked", **kw)
        assert r.rows.tobytes() == blocked.rows.tobytes() and r.states == blocked.states
        gain = min(1.0, 10.0 ** (-terrestrial_path_loss_db(distance(self.BS, self.USER), DENSE) / 10.0))
        parts = probe.standard_normal((1, 4, 2))
        expected = math.sqrt(gain) * (parts.view(np.complex128)[..., 0] / math.sqrt(2.0))
        assert r.direct_row.shape == (4,)
        assert r.direct_row.tobytes() == np.conj(expected[0]).tobytes()

    def test_same_seed_bit_identical(self):
        kw = dict(M=4, N=4, eta_reflect=0.9, env=DENSE, direct_link_mode="terrestrial_nlos")
        r1 = realize_channels(self.BS, self.UAVS, self.USER, rng=substream(5, "z"), **kw)
        r2 = realize_channels(self.BS, self.UAVS, self.USER, rng=substream(5, "z"), **kw)
        assert r1.rows.tobytes() == r2.rows.tobytes()
        assert r1.direct_row.tobytes() == r2.direct_row.tobytes()
        assert r1.states == r2.states

    def test_link_lists_split_the_states(self):
        r = realize_channels(
            self.BS, self.UAVS, self.USER, M=16, N=20, eta_reflect=0.9, env=DENSE,
            rng=substream(2, "v"), direct_link_mode="blocked",
        )
        for l in range(10):
            # link states: the BS->UAV links first, then the UAV->user links
            assert r.bs_to_uav[l].state is r.states[l]
            assert r.uav_to_user[l].state is r.states[10 + l]

    def test_rows_match_per_uav_assembly(self):
        r = realize_channels(
            self.BS, self.UAVS, self.USER, M=16, N=20, eta_reflect=0.9, env=DENSE,
            rng=substream(2, "w"), direct_link_mode="terrestrial_nlos",
        )
        # replay the stream: all BS->UAV links, then all UAV->user links
        probe = substream(2, "w")
        G, g_states = _draw_links([(self.BS, uav) for uav in self.UAVS], 20, 16, DENSE, probe)
        h, h_states = _draw_links([(uav, self.USER) for uav in self.UAVS], 1, 20, DENSE, probe)
        assert r.states == g_states + h_states
        blocks = []
        for g_l, h_l in zip(G, h):
            block = np.conj(h_l[0])[:, None] * g_l
            block *= 0.9
            blocks.append(block)
        rows, direct_row = cascade_rows(r)
        assert rows.tobytes() == np.vstack(blocks).tobytes()
        # rebuilding from the replayed links gives the same rows
        rebuilt = make_realization(G, h, eta=0.9, direct=np.conj(direct_row)[None])
        assert rebuilt.rows.tobytes() == rows.tobytes()
        assert rebuilt.direct_row.tobytes() == direct_row.tobytes()


class TestEffectiveChannel:
    def test_single_term_product(self):
        h = 0.5 * np.exp(0.7j)
        g = 0.8 * np.exp(-0.2j)
        r = make_realization([np.array([[g]])], [np.array([[h]])], eta=0.9)
        e = effective_channel(r, np.zeros(1))
        assert e[0] == pytest.approx(0.9 * np.conj(h) * g, rel=1e-12)

    def test_zero_efficiency_zeroes_reflection(self):
        rng = np.random.default_rng(3)
        # degenerate probe: Scenario rejects eta outside (0, 1], the
        # realization container itself does not
        r = make_realization(
            [rng.standard_normal((2, 3)) + 0j], [rng.standard_normal((1, 2)) + 0j], eta=0.0
        )
        e = effective_channel(r, np.zeros(2))
        np.testing.assert_array_equal(e, np.zeros(3, dtype=complex))

    def test_two_aligned_unit_links(self):
        r = make_realization(
            [np.ones((1, 1)), np.ones((1, 1))], [np.ones((1, 1)), np.ones((1, 1))], eta=0.9
        )
        e = effective_channel(r, np.zeros(2))
        assert abs(e[0]) == pytest.approx(2 * 0.9, rel=1e-12)

    def test_additive_over_uavs(self, rng):
        mats_g = [rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)) for _ in range(5)]
        mats_h = [rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4)) for _ in range(5)]
        phases = rng.uniform(0, 2 * math.pi, (5, 4))
        joint = effective_channel(make_realization(mats_g, mats_h), phases.ravel())
        parts = sum(
            effective_channel(make_realization([g], [h]), phases[l])
            for l, (g, h) in enumerate(zip(mats_g, mats_h))
        )
        np.testing.assert_allclose(joint, parts, rtol=1e-12)

    def test_linear_in_eta(self, rng):
        g = [rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))]
        h = [rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))]
        phases = rng.uniform(0, 2 * math.pi, 3)
        e1 = effective_channel(make_realization(g, h, eta=0.3), phases)
        e2 = effective_channel(make_realization(g, h, eta=0.9), phases)
        np.testing.assert_allclose(3.0 * e1, e2, rtol=1e-12)

    def test_nlos_fourth_moment(self):
        # |h|^2 / gain is exponential(1): second moment of the power is 2
        m, _, gain, _ = draw_one_link(
            Point3(0, 0, 0), Point3(50, 0, 300), 500, 200, ALWAYS_NLOS, substream(4, "m")
        )
        power = np.abs(m.ravel()) ** 2 / gain
        assert power.size == 100_000
        assert np.mean(power**2) == pytest.approx(2.0, rel=0.05)
