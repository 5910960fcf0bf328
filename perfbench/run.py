"""saris benchmark: three studies run through the public ``saris`` CLI.

    python3 perfbench/run.py --workload deploy_map --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each invocation of a workload is one fresh ``python3`` process
running ``saris.cli.main`` (see ``child.py``), and invocations repeat until
``--seconds`` have passed, so one run reports medians over many
invocations.  The untimed warm-up and every traced invocation run at
``--seed``; the timed invocations of ``--trace 0`` cycle through
``SEEDS_PER_RUN`` seeds derived from it, so that one run's median covers
several inputs, not one.  Every output row of every invocation is checked
(see ``workloads.py``); a row is one operation for ``attempted`` and
``failed``.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced invocations, checks the traced
call counts against the workload's structure and the traced CSV against the
untraced one, and prints the per-layer metrics.  The last line of standard
output is the result object; the line before it carries the environment
record and informational checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import summarize
from workloads import WORKLOADS, CheckResult, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
# BLAS threads of every saris process: set explicitly, never above nproc.
BLAS_THREADS = 1
MIN_INVOCATIONS = 3
MIN_TRACED = 2
# The work of one invocation depends on its seed (optimizer iterations, cap
# hits, LoS draws): across seeds the swarm_scale wall time spread by about 14%
# between quartiles.  Timed invocations cycle through this many seeds,
# --seed + k * SEED_STRIDE for k = 0, 1, ..., so a run's median covers them
# all and two runs at different seeds share most of their spread of inputs.
SEEDS_PER_RUN = 8
SEED_STRIDE = 1_000_003
# A run stops starting invocations, and kills a running one, after this long.
HARD_LIMIT_S = 165


@dataclass
class Invocation:
    seed: int
    ok: bool
    record: dict = field(default_factory=dict)
    csv: bytes = b""
    stdout: str = ""
    error: str = ""


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def invoke(wl: Workload, seed: int, trace: bool, workdir: Path, index: int, timeout: float) -> Invocation:
    """One fresh-process invocation of the workload at CLI seed ``seed``."""
    out = workdir / f"{index}.csv"
    result = workdir / f"{index}.json"
    saris_args = list(wl.argv) + ["--seed", str(seed), "--out", str(out)]
    spawned = time.perf_counter()
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), "--spawned-at", repr(spawned)]
    cmd += ["--result", str(result)] + (["--trace"] if trace else []) + ["--"] + saris_args
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return Invocation(seed, ok=False, error=f"killed after {timeout:.0f} s")
    if proc.returncode != 0 or not result.is_file():
        return Invocation(seed, ok=False, stdout=proc.stdout, error=f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    record = json.loads(result.read_text())
    if record["rc"] != 0 or not out.is_file():
        return Invocation(seed, ok=False, record=record, stdout=proc.stdout, error=f"saris exit {record['rc']}: {proc.stderr[-2000:]}")
    if trace:
        with open(record.pop("spans_file")) as f:
            record["layers"] = summarize(json.load(f))
    return Invocation(seed, ok=True, record=record, csv=out.read_bytes(), stdout=proc.stdout)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run(wl: Workload, seed: int, seconds: int, trace: bool, workdir: Path):
    """Invoke the workload until ``seconds`` (warm-up included) are up; return
    (warm-up, plain, traced).

    The warm-up invocation fills the page and bytecode caches; it is checked
    but not timed.  Without tracing, plain invocations cycle through the
    derived seeds; with tracing, plain and traced invocations alternate, all
    at ``seed``, so traced counts repeat and traced and plain walls compare
    the same work.
    """
    start = time.perf_counter()
    warmup = invoke(wl, seed, False, workdir, 0, HARD_LIMIT_S)
    seeds = [seed] if trace else [seed + k * SEED_STRIDE for k in range(SEEDS_PER_RUN)]
    plain: list[Invocation] = []
    traced: list[Invocation] = []
    index = 1
    while True:
        now = time.perf_counter()
        enough = len(plain) >= MIN_INVOCATIONS and (not trace or len(traced) >= MIN_TRACED)
        if (enough and now >= start + seconds) or now >= start + HARD_LIMIT_S:
            break
        use_trace = trace and len(traced) < len(plain)
        timeout = start + HARD_LIMIT_S - now
        if use_trace:
            traced.append(invoke(wl, seed, True, workdir, index, timeout))
        else:
            plain.append(invoke(wl, seeds[len(plain) % len(seeds)], False, workdir, index, timeout))
        index += 1
    return warmup, plain, traced


def end_to_end(wl: Workload, plain: list[Invocation]) -> dict[str, float]:
    done = [inv.record for inv in plain if inv.ok]
    if not done:
        return {}
    return {
        "wall_s": statistics.median([r["wall_s"] for r in done]),
        "trials_per_s": statistics.median([wl.trials / r["wall_s"] for r in done]),
        "cpu_s": statistics.median([r["cpu_s"] for r in done]),
        "setup_s": statistics.median([r["setup_s"] for r in done]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in done]),
    }


def per_layer(wl: Workload, plain: list[Invocation], traced: list[Invocation], problems: list[str]) -> dict:
    """Layer metrics of the traced invocations plus the trace count checks.

    Counts must repeat exactly across traced invocations and match the
    workload's structure; timings are medians over the traced invocations.
    (That each traced CSV equals the untraced one is part of the row checks.)
    """
    layers = [inv.record["layers"] for inv in traced if inv.ok]
    walls_plain = [inv.record["wall_s"] for inv in plain if inv.ok]
    if not layers or not walls_plain:
        return {}
    counts = {k: v for k, v in layers[0].items() if not _is_timing(k)}
    for other in layers[1:]:
        for k, v in counts.items():
            if other.get(k) != v:
                problems.append(f"trace count {k} differs between traced runs: {v} vs {other.get(k)}")
    problems.extend(wl.trace_check(counts))
    metrics = dict(counts)
    for k in layers[0]:
        if _is_timing(k):
            metrics[k] = statistics.median([layer.get(k, 0.0) for layer in layers])
    walls_traced = [inv.record["wall_s"] for inv in traced if inv.ok]
    metrics["trace.overhead_s"] = statistics.median(walls_traced) - statistics.median(walls_plain)
    return metrics


def _is_timing(name: str) -> bool:
    return name.endswith(("_s", "_ms", ".s"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args()

    if not (ROOT / "src" / "saris" / "cli.py").is_file():
        print(f"error: no saris sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if ns.trace else spec["end_to_end"]

    wl = WORKLOADS[ns.workload]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=ROOT / ".perfbench"))
    try:
        warmup, plain, traced = run(wl, ns.seed, ns.seconds, bool(ns.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    check = CheckResult()
    first_csv: dict[int, bytes] = {}
    for inv in [warmup] + plain + traced:
        wl.check(inv, inv.seed, first_csv.get(inv.seed), check)
        if inv.ok:
            first_csv.setdefault(inv.seed, inv.csv)
    problems = list(check.problems)
    if ns.trace:
        values = per_layer(wl, plain, traced, problems)
    else:
        values = end_to_end(wl, plain)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        problems.append(f"metrics not produced: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}

    env = next((inv.record["env"] for inv in [warmup] + plain + traced if inv.record.get("env")), {})
    info = {
        "workload": wl.name,
        "seed": ns.seed,
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "blas_threads": BLAS_THREADS,
        **env,
        "trials_per_invocation": wl.trials,
        "seeds": sorted({inv.seed for inv in plain}),
        "invocations": len(plain),
        "traced_invocations": len(traced),
        "wall_s_each": [round(inv.record["wall_s"], 4) for inv in plain if inv.ok],
        "reference_identical": check.reference_identical,
        "problems": problems[:20],
    }
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    correct = not problems and check.failed == 0
    print(json.dumps({"correct": correct, "attempted": check.attempted, "failed": check.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
