"""The benchmark's span tracer still fits the package.

``perfbench/tracer.py`` wraps saris functions by name and reads attributes of
their arguments and results (the realized links' states, the optimizer's
trace).  A rename in ``src/saris/`` that it no longer matches breaks
``python3 perfbench/run.py --trace 1`` while every other test passes, so this
runs the benchmark's traced child on two tiny studies and checks that every
per-layer metric named in ``BENCHMARK.json`` comes out.  It also runs each
benchmark workload once, traced, at the reference seed, and applies that
workload's own row and call-count checks.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
DATA = Path(__file__).resolve().parent / "data"

# (subcommand, config, extra CLI arguments): a 3 x 3 grid and a 2 x 2 sweep
RUNS = {
    "deploy-map": ("golden_deploy_map.cfg", ("--trials", "2")),
    "estimate": ("golden_estimate.cfg", ("--trials", "2", "--n-groups", "4,40", "--pilot-snr-db", "inf,20")),
}
# Computed by run.py across invocations, not by summarize.
RUN_LEVEL = {"trace.overhead_s"}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", sorted(RUNS))
def test_traced_child_produces_every_per_layer_metric(command, tmp_path):
    pytest.importorskip("scipy")  # child.py records its version
    cfg, extra = RUNS[command]
    result = tmp_path / "result.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [
            sys.executable, str(PERFBENCH / "child.py"), "--root", str(ROOT),
            "--spawned-at", repr(time.perf_counter()), "--result", str(result), "--trace", "--",
            command, "--config", str(DATA / cfg), "--out", str(tmp_path / "out.csv"), *extra,
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text())
    assert record["rc"] == 0, proc.stderr
    with open(record["spans_file"]) as f:
        layers = _load_tracer().summarize(json.load(f))

    wanted = {m["name"] for m in BENCHMARK["per_layer"]}
    assert sorted(wanted - RUN_LEVEL - layers.keys()) == []
    assert layers["channel.realize_channels.calls"] > 0
    assert layers["beamforming.optimize_rows.calls"] > 0
    for name in ("channel.los_frac_bs_uav", "channel.los_frac_uav_user"):
        assert 0.0 <= layers[name] <= 1.0, name


def _load_perfbench():
    """perfbench's ``run`` and ``workloads`` modules; run.py imports its
    siblings by bare name, so the directory goes on the path."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module("run"), importlib.import_module("workloads")


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_workload_passes_its_checks(name, tmp_path):
    pytest.importorskip("scipy")  # child.py records its version
    run, workloads = _load_perfbench()
    wl = workloads.WORKLOADS[name]
    seed = workloads.REFERENCE_SEED
    inv = run.invoke(wl, seed, True, tmp_path, 0, timeout=300)
    assert inv.ok, inv.error

    result = workloads.CheckResult()
    wl.check(inv, seed, None, result)  # rows, invariants and the reference
    assert (result.failed, result.problems) == (0, [])
    assert wl.trace_check(inv.record["layers"]) == []
