import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from saris import cli, experiments
from saris.config import ConfigError, SimConfig
from saris.deployment import Grid2D, Scenario, collect_metrics
from saris.experiments import (
    run_deploy_map,
    run_estimation_sweep,
    run_rate_vs_radius,
    run_rate_vs_uavs,
    write_csv,
)
from saris.streams import substream

TINY_GRID = Grid2D(x_min=0, x_max=200, x_step=100, z_min=50, z_max=150, z_step=100)


def tiny_config(grid=TINY_GRID, search_trials=5, **kw):
    """A small scenario on the tiny search grid; ``kw`` sets scenario fields."""
    defaults = dict(M=2, N=2, L=2, trials=8, seed=11)
    defaults.update(kw)
    return SimConfig(scenario=Scenario(**defaults), grid=grid, search_trials=search_trials)


class TestRunDeployMap:
    def test_rows_row_major(self, capsys):
        table = run_deploy_map(tiny_config(trials=3))
        assert table.columns == ["x_m", "z_m", "mean_gain_db"]
        assert len(table.rows) == 3 * 2  # one row per cell
        # row-major in x then z: second row advances z
        assert [row[:2] for row in table.rows[:3]] == [(0.0, 50.0), (0.0, 150.0), (100.0, 50.0)]
        best = max(table.rows, key=lambda row: row[2])
        assert f"best cell: x={best[0]:g} m, z={best[1]:g} m" in capsys.readouterr().out

    def test_single_cell_map(self):
        grid = Grid2D(x_min=100, x_max=101, x_step=10, z_min=80, z_max=81, z_step=10)
        assert len(run_deploy_map(tiny_config(grid=grid, trials=3)).rows) == 1


class TestRateTables:
    def test_rate_vs_uavs_columns_and_monotone_l(self):
        table = run_rate_vs_uavs(tiny_config(search_trials=20, trials=60, M=4, N=4), [1, 4])
        assert table.columns == ["L", "mean_rate_bps_hz", "baseline_rate_bps_hz", "ci95"]
        assert [row[0] for row in table.rows] == [1, 4]
        assert table.rows[1][1] > table.rows[0][1]
        assert all(row[3] >= 0 for row in table.rows)

    def test_rate_vs_uavs_deterministic(self):
        cfg = tiny_config(trials=10)
        a = run_rate_vs_uavs(cfg, [1])
        b = run_rate_vs_uavs(cfg, [1])
        assert a.rows == b.rows

    def test_rate_vs_radius_cross_product(self):
        table = run_rate_vs_radius(tiny_config(trials=10), [5.0, 10.0], [50.0, 100.0])
        assert [(r[0], r[1]) for r in table.rows] == [
            (5.0, 50.0), (5.0, 100.0), (10.0, 50.0), (10.0, 100.0),
        ]

    def test_rate_vs_radius_single_pair_matches_direct_run(self):
        # one (R_A, R_U) pair reduces to optimize-then-rate at that setting
        from saris.experiments import _optimized_center

        cfg = tiny_config(trials=25)
        table = run_rate_vs_radius(cfg, [10.0], [100.0])
        sc = cfg.scenario  # already at r_a = 10, r_u = 100
        center = _optimized_center(sc, cfg, ("rate-vs-radius", "search", 10.0, 100.0))
        rng = substream(sc.seed, "rate-vs-radius", "rate", 10.0, 100.0)
        _, rates = collect_metrics(sc, center, sc.trials, rng, cfg.bf)
        assert table.rows[0][2] == pytest.approx(rates.mean(), rel=1e-12)

    def test_ci_halfwidth_shrinks_like_inverse_sqrt_trials(self):
        # nearby user region keeps both links in a balanced LoS regime, so
        # the 250-sample std estimate is stable enough for the ratio check
        t250 = run_rate_vs_uavs(tiny_config(trials=250, x_u_m=50.0), [2])
        t1000 = run_rate_vs_uavs(tiny_config(trials=1000, x_u_m=50.0), [2])
        ratio = t250.rows[0][3] / t1000.rows[0][3]
        assert ratio == pytest.approx(2.0, rel=0.2)


class TestEstimationSweep:
    def test_columns_and_overhead(self):
        table = run_estimation_sweep(tiny_config(trials=4, N=4), [1, 2, 8], [math.inf])
        assert table.columns == [
            "n_groups", "overhead", "pilot_snr_db", "mse", "rate_perfect", "rate_estimated",
        ]
        assert [row[1] for row in table.rows] == [2, 3, 9]  # overhead = n_groups + 1

    def test_noiseless_per_element_gap_vanishes(self):
        # L*N = 8 singleton groups
        table = run_estimation_sweep(tiny_config(trials=6, N=4), [8], [math.inf])
        row = table.rows[0]
        assert row[4] - row[5] <= 1e-6

    def test_estimated_rate_below_perfect(self):
        table = run_estimation_sweep(tiny_config(trials=6, N=4), [1, 2], [10.0])
        for row in table.rows:
            assert row[5] <= row[4] + 1e-12

    def test_pilot_snr_data_mode_column(self):
        table = run_estimation_sweep(tiny_config(trials=3, N=4), [2], [None])
        assert table.rows[0][2] == "data"


class TestBadSweeps:
    STUDIES = {  # at the default config; 3 does not divide L*N = 200
        "empty-l-values": lambda cfg: run_rate_vs_uavs(cfg, []),
        "empty-ra-values": lambda cfg: run_rate_vs_radius(cfg, [], [100.0]),
        "n-groups-3": lambda cfg: run_estimation_sweep(cfg, [3], [None]),
    }

    @pytest.mark.parametrize("study", STUDIES.values(), ids=STUDIES.keys())
    def test_raise_config_error_before_any_trial(self, study, monkeypatch):
        def no_trials(*a, **kw):
            raise AssertionError("Monte Carlo work started before the sweep was validated")

        for name in ("_draw_trial", "collect_metrics", "grid_search"):
            monkeypatch.setattr(experiments, name, no_trials)
        with pytest.raises(ConfigError):
            study(SimConfig())


class TestWriteCsv:
    def test_write_error_reports_path(self, tmp_path):
        target = tmp_path / "dir_as_file"
        target.mkdir()
        with pytest.raises(OSError, match="dir_as_file"):
            write_csv(target, ["a"], [(1,)], seed=1, config_digest="x")


class TestCli:
    def run(self, *args):
        return cli.main(list(args))

    def test_deploy_map_happy_path(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "scenario.M = 2\nscenario.N = 2\nscenario.L = 2\nscenario.trials = 3\n"
            "grid.x_min_m = 0\ngrid.x_max_m = 100\ngrid.x_step_m = 100\n"
            "grid.z_min_m = 50\ngrid.z_max_m = 100\ngrid.z_step_m = 50\n"
        )
        out = tmp_path / "map.csv"
        assert self.run("deploy-map", "--config", str(cfg), "--seed", "5", "--out", str(out)) == 0
        text = out.read_text()
        assert text.startswith("# seed=5 config=")
        assert "x_m,z_m,mean_gain_db" in text

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario.M = 2\nscenario.N = 2\nscenario.L = 2\nscenario.trials = 3\n")
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            args = [
                "rate-vs-uavs", "--config", str(cfg), "--seed", "3", "--out", str(out),
                "--l-values", "1,2",
            ]
            # tiny search grid via config defaults is too big; pass overrides
            cfg2 = tmp_path / "c2.cfg"
            cfg2.write_text(
                cfg.read_text()
                + "grid.x_min_m = 0\ngrid.x_max_m = 100\ngrid.x_step_m = 100\n"
                "grid.z_min_m = 50\ngrid.z_max_m = 100\ngrid.z_step_m = 50\n"
                "grid.search_trials = 3\n"
            )
            args[2] = str(cfg2)
            assert self.run(*args) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_trials_flag_checked_like_the_key(self, tmp_path, capsys):
        assert self.run("deploy-map", "--trials", "0", "--out", str(tmp_path / "m.csv")) == 1
        assert "config key 'scenario.trials': trials must be >= 1" in capsys.readouterr().err

    def test_unknown_flag_exits_one_with_usage(self, capsys):
        assert self.run("deploy-map", "--frobnicate") == 1
        err = capsys.readouterr().err
        assert "usage" in err
        assert err.splitlines()[-1] == "saris: error: unrecognized arguments: --frobnicate"

    def test_unknown_subcommand_exits_one(self, capsys):
        assert self.run("replicate") == 1

    def test_missing_config_file_exits_one(self, capsys):
        assert self.run("deploy-map", "--config", "/nonexistent.cfg") == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario.wings = 2\n")
        assert self.run("deploy-map", "--config", str(cfg)) == 1
        assert "scenario.wings" in capsys.readouterr().err

    def test_default_out_path_under_results(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "scenario.M = 2\nscenario.N = 2\nscenario.L = 2\nscenario.trials = 2\n"
            "est.n_groups = 2\n"
        )
        assert self.run("estimate", "--config", str(cfg)) == 0
        assert (tmp_path / "results" / "estimation.csv").exists()

    def test_estimate_overhead_column_exact(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario.M = 2\nscenario.N = 2\nscenario.L = 2\nscenario.trials = 2\n")
        out = tmp_path / "est.csv"
        assert (
            self.run(
                "estimate", "--config", str(cfg), "--out", str(out),
                "--n-groups", "1,2,4", "--pilot-snr-db", "inf",
            )
            == 0
        )
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert [int(r[1]) for r in rows] == [int(r[0]) + 1 for r in rows]

    def test_runtime_error_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "scenario.M = 2\nscenario.N = 2\nscenario.L = 2\nscenario.trials = 2\n"
            "est.n_groups = 2\n"
        )
        out = tmp_path / "nope"
        out.mkdir()  # writing a CSV over a directory must fail at the I/O layer
        assert self.run("estimate", "--config", str(cfg), "--out", str(out)) == 2
        assert "error" in capsys.readouterr().err

    def test_numerical_failure_exits_two(self, tmp_path, capsys):
        # a valid but subnormal reflection efficiency underflows every
        # cascaded row to zero: a runtime failure, not a config mistake
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "scenario.M = 2\nscenario.N = 2\nscenario.L = 2\nscenario.trials = 2\n"
            "scenario.eta_reflect = 1e-320\n"
            "grid.x_min_m = 0\ngrid.x_max_m = 100\ngrid.x_step_m = 100\n"
            "grid.z_min_m = 50\ngrid.z_max_m = 100\ngrid.z_step_m = 50\n"
        )
        assert self.run("deploy-map", "--config", str(cfg), "--out", str(tmp_path / "m.csv")) == 2
        err = capsys.readouterr().err
        assert "identically zero" in err and "config error" not in err

    # an SNR of 10^600 overflows to an infinite rate in every trial
    OVERFLOWING_SNR = (
        "scenario.M = 2\nscenario.N = 2\nscenario.L = 2\nscenario.trials = 3\n"
        "scenario.noise_dbm = -3000\ntx.power_dbm = 3000\n"
    )

    def test_non_finite_estimate_mean_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.OVERFLOWING_SNR)
        out = tmp_path / "est.csv"
        args = ("--n-groups", "2", "--pilot-snr-db", "inf,20")
        assert self.run("estimate", "--config", str(cfg), "--out", str(out), *args) == 2
        err = capsys.readouterr().err
        assert "non-finite mean" in err and "n_groups=2, pilot SNR inf" in err
        assert not out.exists()

    def test_non_finite_rate_mean_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.OVERFLOWING_SNR)
        out = tmp_path / "r.csv"
        assert self.run("rate-vs-uavs", "--config", str(cfg), "--out", str(out), "--l-values", "2") == 2
        err = capsys.readouterr().err
        # the baseline center, rated before the search
        assert "non-finite mean rate" in err and "center x=200 m, z=50 m" in err
        assert not out.exists()

    def test_runtime_value_error_exits_two(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise ValueError("solver diverged")

        monkeypatch.setattr(experiments, "run_rate_vs_radius", fail)
        assert self.run("rate-vs-radius", "--out", str(tmp_path / "r.csv")) == 2
        assert "error: solver diverged" in capsys.readouterr().err

    BAD_SWEEPS = [  # (CLI arguments, what stderr says)
        (("estimate", "--n-groups", "2,3", "--pilot-snr-db", "inf"), "config error"),
        (("estimate", "--n-groups", "2", "--pilot-snr-db", "inf,nan"), "usage"),
        (("rate-vs-uavs", "--l-values", "1,0"), "config error"),
        (("rate-vs-uavs", "--l-values", ""), "config error"),
        (("rate-vs-radius", "--ra-values", "5,-1"), "config error"),
        (("rate-vs-uavs", "--l-values", "1,x"), "usage"),
        (("rate-vs-radius", "--ra-values", "5,y"), "usage"),
        (("estimate", "--pilot-snr-db", "abc"), "usage"),
        (("estimate", "--n-groups", "2", "--pilot-snr-db=-inf"), "usage"),
        (("estimate", "--n-groups="), "config error"),
        (("estimate", "--n-groups", "2", "--pilot-snr-db=-4000"), "usage"),
        (("rate-vs-radius", "--ra-values", "5,inf"), "config error"),
        (("rate-vs-radius", "--ru-values", "inf"), "config error"),
    ]

    @pytest.mark.parametrize("args, message", BAD_SWEEPS, ids=[f"args{i}" for i in range(len(BAD_SWEEPS))])
    def test_bad_sweep_exits_one_before_any_trial(self, args, message, tmp_path, monkeypatch, capsys):
        def no_trials(*a, **kw):
            raise AssertionError("Monte Carlo work started before the sweep was validated")

        monkeypatch.setattr(experiments, "_draw_trial", no_trials)
        monkeypatch.setattr(experiments, "collect_metrics", no_trials)
        monkeypatch.setattr(experiments, "grid_search", no_trials)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario.M = 2\nscenario.N = 2\nscenario.L = 2\nscenario.trials = 2\n")
        command, *extra = args
        assert self.run(command, "--config", str(cfg), "--out", str(tmp_path / "o.csv"), *extra) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["0", "1.5", "-0.2"])
    def test_reflection_efficiency_out_of_range_exits_one(self, eta, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"scenario.eta_reflect = {eta}\n")
        assert self.run("deploy-map", "--config", str(cfg), "--out", str(tmp_path / "m.csv")) == 1
        assert "reflection efficiency" in capsys.readouterr().err

    def test_import_leaves_scipy_unloaded(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", "import sys, saris.cli; print('scipy' in sys.modules, 'numpy.fft' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        )
        # numpy loads numpy.fft lazily; only the estimation study should pay for it
        assert out.stdout.strip() == "False False"

    def test_incompatible_grouping_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario.M = 2\nscenario.N = 2\nscenario.L = 2\nscenario.trials = 2\n")
        # default est.n_groups = 40 does not divide L*N = 4
        assert self.run("estimate", "--config", str(cfg), "--out", str(tmp_path / "e.csv")) == 1
        assert "divide" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [("--help",), ("deploy-map", "--help")], ids=["saris", "deploy-map"])
    def test_help_exits_zero(self, args, capsys):
        assert self.run(*args) == 0

    def test_no_subcommand_exits_one_with_usage(self, capsys):
        assert self.run() == 1
        assert "usage" in capsys.readouterr().err
