"""One saris CLI invocation in a fresh interpreter, with its cost recorded.

    python3 perfbench/child.py --root DIR --spawned-at T --result OUT.json [--trace] -- <saris args>

Set-up runs first: import saris, parse and validate the config, and build the
pilot books the estimate subcommand uses.  ``setup_s`` is the time from
``--spawned-at`` (the parent's ``time.perf_counter()`` just before it started
this process; on Linux both processes read the same monotonic clock) to the end
of set-up.  Then ``saris.cli.main`` runs the study exactly as the ``saris``
console script would, and its wall time, CPU time (all threads, plus any child
processes) and peak resident memory go to the result file.  With ``--trace``
every layer function is wrapped first (see ``tracer.py``) and the spans are
written next to the result file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("saris_args", nargs=argparse.REMAINDER)
    ns = parser.parse_args()
    argv = ns.saris_args[1:] if ns.saris_args[:1] == ["--"] else ns.saris_args

    src = os.path.join(ns.root, "src")
    sys.path.insert(0, src)
    import saris.cli
    from saris import config, estimation

    if not os.path.abspath(saris.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported saris from {saris.__file__}, not from {src}")

    tracer = None
    if ns.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install("saris")

    args = saris.cli.build_parser().parse_args(argv)
    cfg = config.apply_settings(config.parse_file(args.config))
    if args.command == "estimate":
        for n_groups in args.n_groups or [cfg.est_n_groups]:
            estimation.pilot_patterns(n_groups)
    ready = time.perf_counter()

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    rc = saris.cli.main(argv)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    sys.stdout.flush()

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "rc": rc,
        "setup_s": ready - ns.spawned_at,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "env": _environment(),
    }
    if tracer is not None:
        record["spans_file"] = ns.result + ".spans.json"
        tracer.dump(record["spans_file"])
    with open(ns.result, "w") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
