"""Golden CSVs: every subcommand, rerun on small committed configs, must
reproduce the stored output byte for byte.

Criterion 11 only compares a run with a rerun of the same code; these files
pin the output across code changes.  Together the runs cover both
``scenario.direct_link_mode`` values, ``bf.phase_bits = 2`` and the pilot
SNRs ``inf``, ``data`` and a finite value.  A change that is meant to alter
the numbers regenerates only the goldens it changes, by name (no names
regenerates all of them), and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py estimate
"""

import sys
from pathlib import Path

import pytest

from saris import cli

DATA = Path(__file__).resolve().parent / "data"

# name -> (subcommand, config file, extra CLI arguments)
RUNS = {
    "deploy_map": ("deploy-map", "golden_deploy_map.cfg", ()),
    "rate_vs_uavs": ("rate-vs-uavs", "golden_rate_vs_uavs.cfg", ("--l-values", "1,3")),
    "rate_vs_radius": (
        "rate-vs-radius", "golden_rate_vs_radius.cfg", ("--ra-values", "5,20", "--ru-values", "50"),
    ),
    "estimate": (
        "estimate", "golden_estimate.cfg", ("--n-groups", "4,40", "--pilot-snr-db", "inf,data,10"),
    ),
    "estimate_blocked": (
        "estimate", "golden_estimate_blocked.cfg", ("--n-groups", "8", "--pilot-snr-db", "20,data"),
    ),
}


def run_golden(name: str, out: Path) -> int:
    command, cfg, extra = RUNS[name]
    return cli.main([command, "--config", str(DATA / cfg), "--out", str(out), *extra])


@pytest.mark.parametrize("name", sorted(RUNS))
def test_matches_golden_csv(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert run_golden(name, out) == 0, capsys.readouterr().err
    assert out.read_bytes() == (DATA / "golden" / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    names = sys.argv[1:] or list(RUNS)
    unknown = sorted(set(names) - set(RUNS))
    if unknown:
        sys.exit(f"unknown golden {', '.join(unknown)}; choose from {', '.join(sorted(RUNS))}")
    for name in names:
        assert run_golden(name, DATA / "golden" / f"{name}.csv") == 0, name
