"""The benchmark's span tracer still fits the package.

``perfbench/tracer.py`` wraps saris functions by name and reads attributes of
their arguments and results (the realized links' states, the optimizer's
trace).  A rename in ``src/saris/`` that it no longer matches breaks
``python3 perfbench/run.py --trace 1`` while every other test passes, so this
runs the benchmark's traced child on two tiny studies and checks that every
per-layer metric named in ``BENCHMARK.json`` comes out.
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

    wanted = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert sorted(wanted - RUN_LEVEL - layers.keys()) == []
    assert layers["channel.realize_channels.calls"] > 0
    assert layers["beamforming.optimize_rows.calls"] > 0
    for name in ("channel.los_frac_bs_uav", "channel.los_frac_uav_user"):
        assert 0.0 <= layers[name] <= 1.0, name
