import numpy as np
import pytest

from conftest import BF, boundary_max, is_interior
from saris import deployment
from saris.deployment import Grid2D, Scenario, _draw_trial, collect_metrics, evaluate_position, grid_search
from saris.geometry import Point3
from saris.streams import substream


def small_scenario(**kw):
    defaults = dict(M=4, N=4, L=3, trials=20)
    defaults.update(kw)
    return Scenario(**defaults)


class TestScenario:
    def test_baseline_center(self):
        sc = Scenario(x_u_m=350.0)
        assert sc.baseline_center == Point3(350.0, 0.0, 50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(L=0)
        with pytest.raises(ValueError):
            Scenario(r_a_m=0)
        with pytest.raises(ValueError):
            Scenario(trials=0)
        with pytest.raises(ValueError, match="direct_link_mode"):
            Scenario(direct_link_mode="sometimes")

    @pytest.mark.parametrize("kw", [dict(x_u_m=-2e150), dict(x_u_m=2e150), dict(r_a_m=2e150), dict(r_u_m=2e150)])
    def test_placement_beyond_the_coordinate_bound(self, kw):
        with pytest.raises(ValueError, match="1e\\+150"):
            Scenario(**kw)

    def test_farthest_placement_draws_a_trial(self):
        # every input at the bound, the swarm at the opposite grid corner:
        # the link geometry squares differences of up to 4e150 m; and the
        # floor corner, the swarm over the BS at the lowest altitude with
        # radii whose squares underflow to 0: each link is |dz| long
        bound, floor = deployment.MAX_COORDINATE_M, deployment.MIN_ALTITUDE_M
        corners = [
            (small_scenario(x_u_m=-bound, r_a_m=bound, r_u_m=bound), Point3(bound, 0.0, bound)),
            (small_scenario(x_u_m=0.0, r_a_m=1e-300, r_u_m=1e-300), Point3(0.0, 0.0, floor)),
        ]
        Grid2D(x_min=-bound, x_max=bound, x_step=bound, z_min=floor, z_max=bound, z_step=bound)
        for sc, center in corners:
            for seed in range(20):
                r = _draw_trial(sc, center, substream(seed, "far"))
                assert r.rows.shape == (12, 4) and np.isfinite(r.rows).all()


class TestGrid2D:
    def test_cell_axes(self):
        g = Grid2D(x_min=0, x_max=400, x_step=20, z_min=20, z_max=300, z_step=20)
        assert len(g.x_values) == 21
        assert len(g.z_values) == 15
        assert g.x_values[0] == 0 and g.x_values[-1] == 400
        assert g.z_values[0] == 20 and g.z_values[-1] == 300

    @pytest.mark.parametrize(
        "kw",
        [
            dict(x_min=10, x_max=5),
            dict(z_min=100, z_max=50),
            dict(x_step=0),
            dict(z_min=0),
            dict(x_min=0, x_max=999, x_step=1, z_min=1, z_max=1001, z_step=1),  # 1000 x 1001 cells
            dict(x_max=1e10, x_step=1e-300),  # more axis values than a float holds
            dict(x_min=-2e150, x_step=1e149),  # beyond the coordinate bound
            dict(x_max=2e150, x_step=1e149),
            dict(z_max=2e150, z_step=1e149),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            Grid2D(**kw)

    def test_cell_cap_counts_the_axes(self):
        # 999.9 m and 999.5 m spans hold 1000 values each: exactly the cap
        g = Grid2D(x_min=0, x_max=999.9, x_step=1, z_min=1, z_max=1000.5, z_step=1)
        assert len(g.x_values) * len(g.z_values) == deployment.MAX_GRID_CELLS == 1_000_000


class TestEvaluatePosition:
    def test_deterministic(self):
        sc = small_scenario()
        a = evaluate_position(sc, Point3(100, 0, 80), 20, substream(1, "cell"), BF, "gain")
        b = evaluate_position(sc, Point3(100, 0, 80), 20, substream(1, "cell"), BF, "gain")
        assert a == b

    def test_extreme_altitude_loses_to_moderate(self):
        # distance domination far above the optimal band
        sc = small_scenario(trials=150)
        low = evaluate_position(sc, Point3(100, 0, 100), 150, substream(2, "low"), BF, "gain")
        high = evaluate_position(sc, Point3(100, 0, 10_000), 150, substream(2, "high"), BF, "gain")
        assert high < low

    def test_rate_objective(self):
        sc = small_scenario()
        v = evaluate_position(sc, Point3(100, 0, 80), 10, substream(3, "r"), BF, "rate")
        assert v >= 0.0

    def test_collect_metrics_shapes(self):
        gains, rates = collect_metrics(small_scenario(), Point3(50, 0, 60), 7, substream(4), BF)
        assert gains.shape == rates.shape == (7,)
        assert (gains > 0).all() and (rates >= 0).all()


class TestGridSearch:
    def test_single_cell_reduces_to_evaluate_position(self):
        sc = small_scenario()
        grid = Grid2D(x_min=100, x_max=101, x_step=10, z_min=80, z_max=81, z_step=10)
        gm = grid_search(sc, grid, 15, 99, BF, "gain")
        direct = evaluate_position(sc, Point3(100, 0, 80), 15, substream(99, "deploy-map", 0, 0), BF, "gain")
        assert gm.mean_gain_db.shape == (1, 1)
        assert gm.mean_gain_db[0, 0] == direct
        assert gm.best == (100.0, 80.0, direct)

    def test_synthetic_peak_found(self, monkeypatch):
        sc = small_scenario()
        grid = Grid2D(x_min=0, x_max=200, x_step=50, z_min=50, z_max=250, z_step=50)

        def synthetic(scenario, center, trials, rng, bf, objective):
            return -((center.x - 100.0) ** 2 + (center.z - 150.0) ** 2)

        monkeypatch.setattr(deployment, "evaluate_position", synthetic)
        gm = grid_search(sc, grid, 1, 1, BF, "gain")
        assert gm.best[:2] == (100.0, 150.0)
        assert is_interior(gm, grid)

    def test_tie_breaks_to_smallest_x_then_z(self, monkeypatch):
        sc = small_scenario()
        grid = Grid2D(x_min=0, x_max=100, x_step=50, z_min=50, z_max=150, z_step=50)
        monkeypatch.setattr(deployment, "evaluate_position", lambda *a: 7.0)
        gm = grid_search(sc, grid, 1, 1, BF, "gain")
        assert gm.best == (0.0, 50.0, 7.0)

    def test_map_reproducible_from_seed(self):
        sc = small_scenario(trials=5)
        grid = Grid2D(x_min=0, x_max=100, x_step=50, z_min=40, z_max=120, z_step=40)
        g1 = grid_search(sc, grid, 5, 123, BF, "gain")
        g2 = grid_search(sc, grid, 5, 123, BF, "gain")
        np.testing.assert_array_equal(g1.mean_gain_db, g2.mean_gain_db)
        assert g1.best == g2.best

    def test_cells_use_independent_substreams(self):
        # growing the grid must not perturb the shared cells
        sc = small_scenario(trials=5)
        small = Grid2D(x_min=0, x_max=50, x_step=50, z_min=40, z_max=80, z_step=40)
        large = Grid2D(x_min=0, x_max=100, x_step=50, z_min=40, z_max=120, z_step=40)
        g_small = grid_search(sc, small, 5, 7, BF, "gain")
        g_large = grid_search(sc, large, 5, 7, BF, "gain")
        np.testing.assert_array_equal(
            g_small.mean_gain_db, g_large.mean_gain_db[:2, :2]
        )

    def test_boundary_helpers(self, monkeypatch):
        grid = Grid2D(x_min=0, x_max=100, x_step=50, z_min=50, z_max=150, z_step=50)
        values = np.zeros((3, 3))
        values[1, 1] = 5.0

        def from_table(scenario, center, trials, rng, bf, objective):
            ix = int(center.x // 50)
            iz = int((center.z - 50) // 50)
            return values[ix, iz]

        monkeypatch.setattr(deployment, "evaluate_position", from_table)
        gm = grid_search(small_scenario(), grid, 1, 1, BF, "gain")
        assert is_interior(gm, grid)
        assert boundary_max(gm) == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_cell_raises_naming_it(self, bad, monkeypatch):
        grid = Grid2D(x_min=0, x_max=100, x_step=50, z_min=50, z_max=150, z_step=50)

        def one_bad_cell(scenario, center, trials, rng, bf, objective):
            return bad if (center.x, center.z) == (50.0, 100.0) else 1.0

        monkeypatch.setattr(deployment, "evaluate_position", one_bad_cell)
        with pytest.raises(ValueError, match="x=50 m, z=100 m"):
            grid_search(small_scenario(), grid, 1, 1, BF, "gain")

    def test_all_nan_map_raises_at_first_cell(self, monkeypatch):
        grid = Grid2D(x_min=0, x_max=100, x_step=50, z_min=50, z_max=150, z_step=50)
        monkeypatch.setattr(deployment, "evaluate_position", lambda *a: float("nan"))
        with pytest.raises(ValueError, match="x=0 m, z=50 m"):
            grid_search(small_scenario(), grid, 1, 1, BF, "gain")
