"""Command-line entry point for the Monte Carlo experiments.

Subcommands: deploy-map, rate-vs-uavs, rate-vs-radius, estimate.  Exit codes:
0 on success; 1 on configuration/usage errors, invalid sweep arguments
included, all caught before any Monte Carlo work; 2 on runtime errors, such
as I/O failures and numerical failures during the run.
"""

from __future__ import annotations

import argparse
import sys

from . import config, experiments


def _comma_list(parse):
    """argparse type: a comma-separated list, each element read by ``parse``."""

    def read(raw: str) -> list:
        try:
            return [parse(part.strip()) for part in raw.split(",") if part.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad element in {raw!r}: {exc}") from exc

    return read


def _out_path(raw: str) -> str:
    """argparse type: a nonempty output path."""
    if not raw:
        raise argparse.ArgumentTypeError("output path must not be empty")
    return raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="saris", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, default_out):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--trials", type=int, help="Monte Carlo trials override")
        p.add_argument("--out", type=_out_path, default=default_out,
                       help="output CSV path (default: %(default)s)")
        return p

    command("deploy-map", "mean channel power gain over the (x, z) grid",
            "results/deploy_map.csv")
    p = command("rate-vs-uavs", "mean achievable rate versus swarm size",
                "results/rate_vs_uavs.csv")
    p.add_argument("--l-values", type=_comma_list(int), default=[1, 5, 10, 20])
    p = command("rate-vs-radius", "mean achievable rate versus cluster radii",
                "results/rate_vs_radius.csv")
    p.add_argument("--ra-values", type=_comma_list(float), default=[5.0, 25.0, 50.0])
    p.add_argument("--ru-values", type=_comma_list(float), default=[100.0])
    p = command("estimate", "estimation overhead/accuracy sweep", "results/estimation.csv")
    p.add_argument("--n-groups", type=_comma_list(int), default=None,
                   help="comma-separated sub-surface counts (default: est.n_groups)")
    p.add_argument("--pilot-snr-db", type=_comma_list(config.parse_pilot_snr), default=None,
                   help="comma-separated pilot SNRs in dB; 'inf' or 'data' allowed")
    return parser


def _load_config(ns) -> config.SimConfig:
    settings = config.parse_file(ns.config) if ns.config else {}
    for key, value in (("scenario.seed", ns.seed), ("scenario.trials", ns.trials)):
        if value is not None:
            settings[key] = str(value)
    return config.apply_settings(settings)


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0

    try:
        cfg = _load_config(ns)
        if ns.command == "deploy-map":
            table = experiments.run_deploy_map(cfg)
        elif ns.command == "rate-vs-uavs":
            table = experiments.run_rate_vs_uavs(cfg, ns.l_values)
        elif ns.command == "rate-vs-radius":
            table = experiments.run_rate_vs_radius(cfg, ns.ra_values, ns.ru_values)
        else:
            n_groups = ns.n_groups if ns.n_groups is not None else [cfg.est_n_groups]
            snrs = ns.pilot_snr_db if ns.pilot_snr_db is not None else [cfg.est_pilot_snr_db]
            table = experiments.run_estimation_sweep(cfg, n_groups, snrs)
        experiments.write_csv(ns.out, table.columns, table.rows, cfg.scenario.seed, config.digest(cfg))
    except config.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary: report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {ns.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
