import dataclasses
import math
from pathlib import Path

import pytest

from saris import config
from saris.channel import dbm_to_watts

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestParseFile:
    def test_reads_keys_and_ignores_comments(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("# comment\n\nscenario.L = 5  # trailing\nenv.a = 9.61\n")
        settings = config.parse_file(p)
        assert settings == {"scenario.L": "5", "env.a": "9.61"}

    def test_repeated_key_takes_its_last_value(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("grid.search_trials = 100\nscenario.L = 5\ngrid.search_trials = 5\n")
        settings = config.parse_file(p)
        assert settings == {"grid.search_trials": "5", "scenario.L": "5"}
        assert config.apply_settings(settings).search_trials == 5

    def test_unknown_key_named_in_error(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("scenario.antennas = 4\n")
        with pytest.raises(config.ConfigError, match="scenario.antennas"):
            config.parse_file(p)

    def test_missing_equals_sign(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("scenario.L\n")
        with pytest.raises(config.ConfigError, match="key = value"):
            config.parse_file(p)

    def test_missing_value(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("scenario.L =\n")
        with pytest.raises(config.ConfigError, match="missing value"):
            config.parse_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(config.ConfigError, match="cannot read"):
            config.parse_file(tmp_path / "nope.cfg")
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"\xff\xfe scenario.L = 5\n")
        with pytest.raises(config.ConfigError, match="cannot read"):
            config.parse_file(binary)


class TestApplySettings:
    def test_defaults_match_paper_scenario(self):
        cfg = config.apply_settings({})
        sc = cfg.scenario
        assert (sc.M, sc.N, sc.L) == (16, 20, 10)
        assert (sc.r_a_m, sc.r_u_m, sc.x_u_m) == (10.0, 100.0, 200.0)
        assert sc.eta_reflect == 0.9
        assert sc.noise_w == pytest.approx(dbm_to_watts(-80.0))
        assert sc.trials == 1000
        assert sc.direct_link_mode == "blocked"
        assert (sc.env.a, sc.env.b) == (12.08, 0.11)
        assert (sc.env.eta_los_db, sc.env.eta_nlos_db) == (1.6, 23.0)
        assert sc.env.f_c == 2.0e9

    def test_scenario_overrides(self):
        cfg = config.apply_settings(
            {
                "scenario.M": "8",
                "scenario.noise_dbm": "-90",
                "tx.power_dbm": "30",
                "env.b": "0.43",
                "bf.max_iter": "50",
                "est.pilot_snr_db": "inf",
                "grid.x_step_m": "40",
                "grid.search_trials": "25",
            }
        )
        assert cfg.scenario.M == 8
        assert cfg.scenario.noise_w == pytest.approx(dbm_to_watts(-90.0))
        assert cfg.scenario.p_tx_w == pytest.approx(1.0)
        assert cfg.scenario.env.b == 0.43
        assert cfg.bf.max_iter == 50
        assert math.isinf(cfg.est_pilot_snr_db)
        assert cfg.grid.x_step == 40.0
        assert cfg.search_trials == 25

    def test_pilot_snr_data_mode(self):
        cfg = config.apply_settings({"est.pilot_snr_db": "data"})
        assert cfg.est_pilot_snr_db is None

    def test_bad_value_mentions_key(self):
        # "5000" dBm overflows the conversion to watts; only the pilot SNR may be infinite
        for key, raw in [
            ("scenario.M", "many"), ("scenario.noise_dbm", "5000"), ("est.pilot_snr_db", "loud"),
            ("scenario.noise_dbm", "inf"), ("tx.power_dbm", "-inf"), ("scenario.x_u_m", "nan"),
            ("scenario.r_a_m", "inf"), ("env.fc_hz", "inf"), ("grid.x_max_m", "inf"), ("bf.tol", "nan"),
        ]:
            with pytest.raises(config.ConfigError, match=key):
                config.apply_settings({key: raw})

    def test_invalid_domain_value_is_config_error(self):
        # a 1e-300 m step would ask for about 1e304 grid cells; a 53-bit
        # codebook is finer than doubles near 2*pi, 2**1100 overflows one,
        # and so does the pilot noise factor 10**400 of a -4000 dB SNR; the
        # trial path checks none of these again
        for key, raw in [
            ("scenario.L", "0"), ("scenario.M", "0"), ("scenario.N", "0"), ("scenario.r_u_m", "0"),
            ("scenario.trials", "0"), ("grid.search_trials", "0"), ("grid.x_step_m", "1e-300"),
            ("grid.z_min_m", "0"), ("bf.tol", "0"), ("bf.max_iter", "0"),
            ("bf.phase_bits", "-1"), ("bf.phase_bits", "53"), ("bf.phase_bits", "1100"),
            ("est.pilot_snr_db", "nan"), ("est.pilot_snr_db", "-inf"), ("est.pilot_snr_db", "-4000"),
        ]:
            with pytest.raises(config.ConfigError, match=key):
                config.apply_settings({key: raw})

    @pytest.mark.parametrize(
        "settings",
        [
            {"grid.x_min_m": "500", "grid.x_max_m": "600"},
            {"env.eta_los_db": "25", "env.eta_nlos_db": "30"},
        ],
    )
    def test_related_keys_validate_together(self, settings):
        # each key alone clashes with the default of the other
        cfg = config.apply_settings(settings)
        assert dict(config.to_items(cfg)).items() >= settings.items()

    def test_rejection_names_every_key_of_the_dataclass(self):
        with pytest.raises(config.ConfigError, match="'grid.x_min_m', 'grid.x_max_m'"):
            config.apply_settings({"grid.x_min_m": "600", "grid.x_max_m": "500", "scenario.L": "3"})

    def test_resolved_config_is_frozen(self):
        # a field set after the build would skip its one check
        cfg = config.apply_settings({})
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.scenario.L = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.search_trials = 0

    def test_bad_direct_mode(self):
        with pytest.raises(config.ConfigError, match="direct_link_mode"):
            config.apply_settings({"scenario.direct_link_mode": "sometimes"})


# every key at a value other than its default, written as to_items lists it
NON_DEFAULT = {
    "scenario.M": "8",
    "scenario.N": "4",
    "scenario.L": "5",
    "scenario.r_a_m": "7.5",
    "scenario.r_u_m": "60",
    "scenario.x_u_m": "250",
    "scenario.eta_reflect": "0.8",
    "scenario.noise_dbm": "-95",
    "scenario.direct_link_mode": "terrestrial_nlos",
    "scenario.trials": "12",
    "scenario.seed": "7",
    "tx.power_dbm": "30",
    "env.a": "9.61",
    "env.b": "0.16",
    "env.eta_los_db": "1",
    "env.eta_nlos_db": "20",
    "env.fc_hz": "3500000000",
    "bf.tol": "0.0001",
    "bf.max_iter": "40",
    "bf.phase_bits": "3",
    "est.n_groups": "10",
    "est.pilot_snr_db": "15",
    "grid.x_min_m": "10",
    "grid.x_max_m": "300",
    "grid.x_step_m": "30",
    "grid.z_min_m": "40",
    "grid.z_max_m": "200",
    "grid.z_step_m": "20",
    "grid.search_trials": "9",
}


def _fields(obj, prefix=""):
    """(dotted path, value) of every non-dataclass field, recursively."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _fields(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", value


class TestKeyTable:
    def test_every_key_sets_its_own_field(self):
        default = dict(_fields(config.SimConfig()))
        cfg = config.apply_settings(NON_DEFAULT)
        changed = {path for path, value in _fields(cfg) if value != default[path]}
        unchanged = set(default) - changed
        # one field per key, and every field has one
        assert len(changed) == len(NON_DEFAULT) == len(config.to_items(cfg))
        assert unchanged == set()
        assert dict(config.to_items(cfg)) == NON_DEFAULT

    def test_listing_reapplies_to_itself(self):
        items = config.to_items(config.apply_settings(NON_DEFAULT))
        assert config.to_items(config.apply_settings(dict(items))) == items

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("deployment_map.cfg", "72911e70588a"),
            ("estimation.cfg", "93a5743d6132"),
            ("rate_vs_radius.cfg", "f6fc08d50d53"),
            ("rate_vs_uavs.cfg", "f6fc08d50d53"),
            ({}, "09739442f55a"),
            ({"est.pilot_snr_db": "inf"}, "3d9a13209463"),
        ],
    )
    def test_digest_pinned(self, source, expected):
        # the digests every CSV header carries; changing one changes the CSVs
        if isinstance(source, str):
            source = config.parse_file(CONFIGS / source)
        assert config.digest(config.apply_settings(source)) == expected


class TestDigest:
    def test_stable_and_sensitive(self):
        a = config.digest(config.apply_settings({}))
        b = config.digest(config.apply_settings({}))
        c = config.digest(config.apply_settings({"scenario.L": "11"}))
        assert a == b
        assert a != c
        assert len(a) == 12

    def test_round_trip_through_items(self):
        cfg = config.apply_settings({"scenario.L": "7", "env.a": "4.88"})
        items = dict(config.to_items(cfg))
        cfg2 = config.apply_settings(items)
        assert config.digest(cfg2) == config.digest(cfg)

    def test_shipped_configs_parse(self):
        for name in ("deployment_map", "rate_vs_uavs", "rate_vs_radius", "estimation"):
            path = CONFIGS / f"{name}.cfg"
            cfg = config.apply_settings(config.parse_file(path))
            assert cfg.scenario.trials >= 1
