"""Structured key-value configuration for the experiment CLI.

Config files are plain text, one dotted ``key = value`` pair per line; blank
lines and ``#`` comments are ignored.  Keys mirror the scenario fields plus
the beamforming, estimation, and grid sections; unknown keys are rejected by
name so typos fail loudly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce

from .beamforming import BfOptions
from .channel import dbm_to_watts
from .deployment import Grid2D, Scenario


class ConfigError(Exception):
    """Invalid or unknown configuration input."""


@dataclass(frozen=True)
class SimConfig:
    scenario: Scenario = field(default_factory=Scenario)
    bf: BfOptions = field(default_factory=BfOptions)
    est_n_groups: int = 40
    est_pilot_snr_db: float | None = None  # None = data noise power
    grid: Grid2D = field(default_factory=Grid2D)  # also the rate sweeps' search grid
    search_trials: int = 100  # trials per cell of a rate sweep's search

    def __post_init__(self):
        if self.search_trials < 1:
            raise ValueError(f"search trials must be >= 1, got {self.search_trials}")


def _fmt(value) -> str:
    """A config or CSV value as text; floats keep 10 significant digits."""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def parse_pilot_snr(raw: str) -> float | None:
    """A pilot SNR in dB (``inf`` allowed), or ``data``: reuse the data noise
    power, returned as None."""
    if raw == "data":
        return None
    snr_db = float(raw)
    # rejects nan; -inf dB, which the noise model would read as noiseless; and
    # SNRs whose noise factor 10^(-snr/10) overflows a double (below -3082.547)
    if not snr_db >= -3082.5:
        raise ValueError(f"pilot SNR must be a number of at least -3082.5 dB, inf or 'data', got {raw!r}")
    return snr_db


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {raw!r}")
    return value


def _watts_from_dbm(raw: str) -> float:
    return dbm_to_watts(_finite(raw))


def _dbm(watts: float) -> float:
    return 10.0 * math.log10(watts) + 30.0


def _same(value):
    return value


def _listed_snr(snr_db: float | None):
    return "data" if snr_db is None else snr_db


# key -> (field path in SimConfig, parser of the raw text, field value -> listed value)
_KEYS = {
    "scenario.M": ("scenario.M", int, _same),
    "scenario.N": ("scenario.N", int, _same),
    "scenario.L": ("scenario.L", int, _same),
    "scenario.r_a_m": ("scenario.r_a_m", _finite, _same),
    "scenario.r_u_m": ("scenario.r_u_m", _finite, _same),
    "scenario.x_u_m": ("scenario.x_u_m", _finite, _same),
    "scenario.eta_reflect": ("scenario.eta_reflect", _finite, _same),
    "scenario.noise_dbm": ("scenario.noise_w", _watts_from_dbm, _dbm),
    "scenario.direct_link_mode": ("scenario.direct_link_mode", str, _same),
    "scenario.trials": ("scenario.trials", int, _same),
    "scenario.seed": ("scenario.seed", int, _same),
    "tx.power_dbm": ("scenario.p_tx_w", _watts_from_dbm, _dbm),
    "env.a": ("scenario.env.a", _finite, _same),
    "env.b": ("scenario.env.b", _finite, _same),
    "env.eta_los_db": ("scenario.env.eta_los_db", _finite, _same),
    "env.eta_nlos_db": ("scenario.env.eta_nlos_db", _finite, _same),
    "env.fc_hz": ("scenario.env.f_c", _finite, _same),
    "bf.tol": ("bf.tol", _finite, _same),
    "bf.max_iter": ("bf.max_iter", int, _same),
    "bf.phase_bits": ("bf.phase_bits", int, _same),
    "est.n_groups": ("est_n_groups", int, _same),
    "est.pilot_snr_db": ("est_pilot_snr_db", parse_pilot_snr, _listed_snr),
    "grid.x_min_m": ("grid.x_min", _finite, _same),
    "grid.x_max_m": ("grid.x_max", _finite, _same),
    "grid.x_step_m": ("grid.x_step", _finite, _same),
    "grid.z_min_m": ("grid.z_min", _finite, _same),
    "grid.z_max_m": ("grid.z_max", _finite, _same),
    "grid.z_step_m": ("grid.z_step", _finite, _same),
    "grid.search_trials": ("search_trials", int, _same),
}


def parse_file(path) -> dict[str, str]:
    """Read raw ``key = value`` pairs; unknown keys error by name."""
    try:
        with open(path) as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc

    settings: dict[str, str] = {}
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if not raw:
            raise ConfigError(f"{path}:{lineno}: missing value for key {key!r}")
        settings[key] = raw
    return settings


def _build(obj, prefix: str, values: dict):
    """``obj`` rebuilt once with every field under ``prefix`` set from
    ``values`` (field path -> (key, value)), so each dataclass validates all of
    its settings together.  A rejection names the keys set on ``obj`` itself."""
    changes, keys = {}, []
    for f in fields(obj):
        path, value = prefix + f.name, getattr(obj, f.name)
        if is_dataclass(value):
            built = _build(value, path + ".", values)
            if built is not value:
                changes[f.name] = built
        elif path in values:
            key, changes[f.name] = values[path]
            keys.append(key)
    if not changes:
        return obj
    try:
        return replace(obj, **changes)
    except ValueError as exc:
        names = ", ".join(repr(key) for key in keys)
        raise ConfigError(f"config key{'s' if len(keys) > 1 else ''} {names}: {exc}") from exc


def apply_settings(settings: dict[str, str]) -> SimConfig:
    """Overlay raw settings on the defaults: parse every value, then build
    each dataclass once."""
    values = {}
    for key, raw in settings.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        path, parse, _ = _KEYS[key]
        try:
            values[path] = (key, parse(raw))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    return _build(SimConfig(), "", values)


def to_items(cfg: SimConfig) -> list[tuple[str, str]]:
    """Canonical (key, value) listing of the fully resolved configuration."""
    return [
        (key, _fmt(listed(reduce(getattr, path.split("."), cfg))))
        for key, (path, _, listed) in sorted(_KEYS.items())
    ]


def digest(cfg: SimConfig) -> str:
    """Short stable hash of the resolved configuration, recorded in CSVs."""
    blob = "\n".join(f"{k}={v}" for k, v in to_items(cfg)).encode()
    return hashlib.sha256(blob).hexdigest()[:12]
