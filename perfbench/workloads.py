"""The three benchmark workloads, their correctness gate and their expected
trace structure.  README.md gives the reasons for each shape.

Correctness: every output row (a grid cell or a sweep point) of every
invocation is one operation.  A row fails when the invocation exited non-zero,
when the row is missing or its key columns are wrong, when a value is not
finite, when a per-workload invariant fails, when it differs from the first
invocation of the same run at the same seed, or (at ``REFERENCE_SEED`` only)
when a value
differs from ``reference/<workload>.csv`` by more than
``RTOL * |reference| + ATOL_FRACTION * max |reference column|``.  The reference
was recorded with this benchmark's trial counts; byte identity with it is
reported as information only.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_SEED = 42
# Float-level changes (summation order, BLAS kernels or thread count) move the
# optimizer's trajectory in runs that stop at the iteration cap: the
# estimate_sweep means moved by up to 6e-6 relative between one and two
# OpenBLAS threads.  A lost trial or a wrong solve moves them by percent.
RTOL = 1e-4
# Absolute floor, as a share of the column's largest reference magnitude, for
# values that are numerically zero (the noiseless-pilot MSE is ~1e-47).
ATOL_FRACTION = 1e-9


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Byte identity of every checked CSV with the stored reference; None when
    # the seed has no reference.  Information only, not a gate.
    reference_identical: bool | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    # simulate_trial-equivalent trials per invocation (the trials_per_s base)
    trials: int
    keys: tuple[str, ...]  # key columns, compared exactly
    values: tuple[str, ...]  # result columns, finite and within tolerance
    expected_keys: tuple[tuple[str, ...], ...]  # key columns of each row, in order
    invariants: Callable[[list[dict], str], list[int]]  # -> indices of failing rows
    trace_check: Callable[[dict], list[str]]  # -> problems with the traced counts

    def check(self, inv, seed: int, first_csv: bytes | None, result: CheckResult) -> None:
        """Check one invocation at CLI seed ``seed`` against ``first_csv``, the
        first CSV of the run at that seed (None for the first itself)."""
        n = len(self.expected_keys)
        result.attempted += n
        if not inv.ok:
            result.failed += n
            result.problems.append(f"invocation failed: {inv.error}")
            return
        lines = inv.csv.decode().splitlines()
        bad: set[int] = set()
        if not re.fullmatch(rf"# seed={seed} config=[0-9a-f]{{12}}", lines[0] if lines else ""):
            result.problems.append(f"CSV header does not record seed {seed}: {lines[:1]}")
            bad.update(range(n))
        if lines[1:2] != [",".join(self.keys + self.values)]:
            result.problems.append(f"unexpected CSV columns: {lines[1:2]}")
            bad.update(range(n))
        rows = self._rows(lines)
        if len(rows) != n:
            result.problems.append(f"expected {n} rows, got {len(rows)}")
            bad.update(range(len(rows), n))
        rows = rows[:n]
        for i, row in enumerate(rows):
            if tuple(row.get(k) for k in self.keys) != self.expected_keys[i]:
                bad.add(i)
                continue
            try:
                nums = [float(row[v]) for v in self.values]
            except (KeyError, ValueError):
                bad.add(i)
                continue
            if not all(math.isfinite(x) for x in nums):
                bad.add(i)
        if not bad:
            parsed = [{k: float(v) for k, v in row.items()} for row in rows]
            bad.update(self.invariants(parsed, inv.stdout))
        if first_csv is not None and inv.csv != first_csv:
            first_rows = first_csv.decode().splitlines()[2:]
            bad.update(i for i in range(len(rows)) if i >= len(first_rows) or lines[2 + i] != first_rows[i])
            result.problems.append(f"CSV differs between invocations at seed {seed}")
        if seed == REFERENCE_SEED and not bad:
            bad.update(self._against_reference(inv.csv, rows, result))
        if bad:
            result.problems.append(f"{len(bad)} of {n} rows failed")
        result.failed += len(bad)

    def _rows(self, lines: list[str]) -> list[dict]:
        """Data rows of a CSV (after the seed comment and the header)."""
        return [dict(zip(self.keys + self.values, line.split(","))) for line in lines[2:]]

    def _against_reference(self, csv: bytes, rows: list[dict], result: CheckResult) -> set[int]:
        ref_bytes = (HERE / "reference" / f"{self.name}.csv").read_bytes()
        ref_rows = self._rows(ref_bytes.decode().splitlines())
        bad = set()
        for col in self.values:
            scale = max(abs(float(r[col])) for r in ref_rows)
            for i, (row, ref) in enumerate(zip(rows, ref_rows)):
                a, b = float(row[col]), float(ref[col])
                if abs(a - b) > RTOL * abs(b) + ATOL_FRACTION * scale:
                    bad.add(i)
        if self.name == "deploy_map" and _argmax(rows) != _argmax(ref_rows):
            result.problems.append(f"argmax cell {_argmax(rows)} differs from the reference {_argmax(ref_rows)}")
            bad.add(_argmax(rows))
        result.reference_identical = (result.reference_identical is not False) and csv == ref_bytes
        return bad


def _argmax(rows: list[dict]) -> int:
    """First row with the largest gain (row-major, like grid_search's tie-break)."""
    gains = [float(r["mean_gain_db"]) for r in rows]
    return gains.index(max(gains))


def _fmt(x: float) -> str:
    return format(x, ".10g")


def _require(problems: list[str], counts: dict, name: str, expected: int) -> None:
    got = counts.get(name, 0)
    if got != expected:
        problems.append(f"{name} = {got}, expected {expected}")


# --- deploy_map -------------------------------------------------------------
# configs/deployment_map.cfg: x 0..400 step 20 (21 values), z 20..300 step 20
# (15 values), L=10, M=16, N=20, bf.tol 1e-6.
DEPLOY_TRIALS = 4
DEPLOY_X = [20.0 * i for i in range(21)]
DEPLOY_Z = [20.0 + 20.0 * i for i in range(15)]
_BEST_CELL = re.compile(r"best cell: x=(\S+) m, z=(\S+) m")


def _deploy_invariants(rows: list[dict], stdout: str) -> list[int]:
    """The CLI's reported best cell is the CSV's argmax."""
    best = _argmax(rows)
    m = _BEST_CELL.search(stdout)
    if m is None or (float(m.group(1)), float(m.group(2))) != (rows[best]["x_m"], rows[best]["z_m"]):
        return [best]
    return []


def _deploy_trace(counts: dict) -> list[str]:
    problems: list[str] = []
    cells = len(DEPLOY_X) * len(DEPLOY_Z)
    trials = cells * DEPLOY_TRIALS
    _require(problems, counts, "deployment.grid_search.calls", 1)
    _require(problems, counts, "deployment.evaluate_position.calls", cells)
    _require(problems, counts, "deployment.collect_metrics.calls", cells)
    _require(problems, counts, "deployment.simulate_trial.calls", trials)
    _require(problems, counts, "channel.realize_channels.calls", trials)
    _require(problems, counts, "beamforming.alternating_optimize.calls", trials)
    _require(problems, counts, "beamforming.optimize_rows.calls", trials)
    _require(problems, counts, "estimation.run_estimation.calls", 0)
    _require(problems, counts, "experiments.write_csv.calls", 1)
    return problems


# --- estimate_sweep ---------------------------------------------------------
# configs/estimation.cfg: swarm fixed at the baseline center, L=10, N=20.
EST_TRIALS = 100
EST_GROUPS = (40, 200)
EST_SNRS = ("20", "inf")


def _estimate_invariants(rows: list[dict], stdout: str) -> list[int]:
    """Estimated-CSI rate never beats perfect CSI (rate_loss guarantees it per
    trial), and noiseless pilots estimate better than 20 dB pilots."""
    bad = [i for i, r in enumerate(rows) if r["rate_estimated"] > r["rate_perfect"]]
    for i, r in enumerate(rows):
        if math.isinf(r["pilot_snr_db"]):
            noisy = [s for s in rows if s["n_groups"] == r["n_groups"] and math.isfinite(s["pilot_snr_db"])]
            if any(r["mse"] >= s["mse"] for s in noisy):
                bad.append(i)
    return bad


def _estimate_trace(counts: dict) -> list[str]:
    problems: list[str] = []
    trials = len(EST_GROUPS) * len(EST_SNRS) * EST_TRIALS
    _require(problems, counts, "channel.realize_channels.calls", trials)
    _require(problems, counts, "estimation.run_estimation.calls", trials)
    _require(problems, counts, "estimation.rate_loss.calls", trials)
    _require(problems, counts, "beamforming.alternating_optimize.calls", trials)
    _require(problems, counts, "deployment.simulate_trial.calls", 0)
    _require(problems, counts, "experiments.write_csv.calls", 1)
    runs = counts.get("beamforming.optimize_rows.calls", 0)
    if not 2 * trials <= runs <= 3 * trials:
        problems.append(f"beamforming.optimize_rows.calls = {runs}, expected 2x..3x {trials}")
    refine = counts.get("estimation.rate_loss.refine_calls", 0)
    if runs - 2 * trials != refine:
        problems.append(f"optimize_rows runs beyond 2 per trial ({runs - 2 * trials}) != refine_calls {refine}")
    return problems


# --- swarm_scale ------------------------------------------------------------
# perfbench/configs/rate_vs_uavs_q2.cfg: the committed rate_vs_uavs.cfg plus
# bf.phase_bits = 2 and grid.search_trials = 5; its search grid has x 0..400
# step 50 (9 values) by z 20..300 step 40 (8 values).
SWARM_TRIALS = 50
SWARM_SEARCH_TRIALS = 5
SWARM_SEARCH_CELLS = 9 * 8
SWARM_L = (1, 20)


def _swarm_invariants(rows: list[dict], stdout: str) -> list[int]:
    """The rate grows with the swarm size, and at the largest swarm the
    optimized deployment rates at least as high as the baseline.

    At L=1 both rates are near zero and a search of SWARM_SEARCH_TRIALS trials
    a cell picks its cell on noise: there the optimized rate fell below the
    baseline on 2 of 40 seeds (seed 9: 0.0021 against 0.0171 bit/s/Hz), and
    on 0 of 40 with the CLI's default of 100 search trials.
    """
    top = max(range(len(rows)), key=lambda i: rows[i]["L"])
    bad = [top] if rows[top]["mean_rate_bps_hz"] < rows[top]["baseline_rate_bps_hz"] else []
    bad += [i for i in range(1, len(rows)) if rows[i]["mean_rate_bps_hz"] <= rows[i - 1]["mean_rate_bps_hz"]]
    return bad


def _swarm_trace(counts: dict) -> list[str]:
    problems: list[str] = []
    searched = len(SWARM_L) * SWARM_SEARCH_CELLS * SWARM_SEARCH_TRIALS
    rated = len(SWARM_L) * 2 * SWARM_TRIALS
    _require(problems, counts, "deployment.grid_search.calls", len(SWARM_L))
    _require(problems, counts, "deployment.evaluate_position.calls", len(SWARM_L) * SWARM_SEARCH_CELLS)
    _require(problems, counts, "deployment.simulate_trial.calls", searched + rated)
    _require(problems, counts, "channel.realize_channels.calls", searched + rated)
    _require(problems, counts, "beamforming.quantize_phases.calls", searched + rated)
    _require(problems, counts, "channel.effective_channel.calls", searched + rated)
    _require(problems, counts, "estimation.run_estimation.calls", 0)
    _require(problems, counts, "experiments.write_csv.calls", 1)
    return problems


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="deploy_map",
            argv=("deploy-map", "--config", "configs/deployment_map.cfg", "--trials", str(DEPLOY_TRIALS)),
            trials=len(DEPLOY_X) * len(DEPLOY_Z) * DEPLOY_TRIALS,
            keys=("x_m", "z_m"),
            values=("mean_gain_db",),
            expected_keys=tuple((_fmt(x), _fmt(z)) for x, z in product(DEPLOY_X, DEPLOY_Z)),
            invariants=_deploy_invariants,
            trace_check=_deploy_trace,
        ),
        Workload(
            name="estimate_sweep",
            argv=(
                "estimate", "--config", "configs/estimation.cfg", "--trials", str(EST_TRIALS),
                "--n-groups", ",".join(map(str, EST_GROUPS)), "--pilot-snr-db", ",".join(EST_SNRS),
            ),
            trials=len(EST_GROUPS) * len(EST_SNRS) * EST_TRIALS,
            keys=("n_groups", "overhead", "pilot_snr_db"),
            values=("mse", "rate_perfect", "rate_estimated"),
            expected_keys=tuple((str(g), str(g + 1), s) for g, s in product(EST_GROUPS, EST_SNRS)),
            invariants=_estimate_invariants,
            trace_check=_estimate_trace,
        ),
        Workload(
            name="swarm_scale",
            argv=(
                "rate-vs-uavs", "--config", "perfbench/configs/rate_vs_uavs_q2.cfg", "--trials", str(SWARM_TRIALS),
                "--l-values", ",".join(map(str, SWARM_L)),
            ),
            trials=len(SWARM_L) * (2 * SWARM_TRIALS + SWARM_SEARCH_CELLS * SWARM_SEARCH_TRIALS),
            keys=("L",),
            values=("mean_rate_bps_hz", "baseline_rate_bps_hz", "ci95"),
            expected_keys=tuple((str(L),) for L in SWARM_L),
            invariants=_swarm_invariants,
            trace_check=_swarm_trace,
        ),
    )
}
