"""Span tracing of the saris layers from outside the package.

Recording side (used by ``child.py`` inside the traced interpreter):
``Tracer.install`` wraps every public function of each layer module, but the
per-link helpers in ``UNWRAPPED``, at every binding that refers to it.
Modules bind names with ``from .x import y``, so ``deployment.realize_channels``
and ``experiments.realize_channels`` are two bindings of one function, and
``alternating_optimize`` reaches ``optimize_rows`` through its own module
global; each binding gets the same wrapper.  A span is ``[name_id, start, end, parent]``; spans stay in memory
and ``Tracer.dump`` writes them once, at exit.

Analysis side (used by ``run.py``): ``summarize`` turns one dump into
``<module>.<function>.<stat>`` numbers.  Self time is a span's duration minus
the durations of its direct children; calls are single-threaded and strictly
nested, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time

# Layer modules of src/saris/.  cli is the entry point the benchmark calls and
# is timed as a whole; its work shows up under config and experiments.
LAYERS = (
    "geometry",
    "channel",
    "beamforming",
    "estimation",
    "deployment",
    "experiments",
    "streams",
    "config",
)

# Scalar helpers called per link (about ten per link, 20 links a trial) or per
# optimizer iteration.  Wrapping them would add ~200 spans a trial and roughly
# half again to the traced wall time, inflating every enclosing span; their
# cost stays in the self time of the caller (realize_channels, optimize_rows).
UNWRAPPED = frozenset(
    {
        "geometry.distance",
        "geometry.horizontal_distance",
        "geometry.elevation_angle_deg",
        "channel.db_to_linear",
        "channel.dbm_to_watts",
        "channel.los_probability",
        "channel.path_loss_db",
        "channel.terrestrial_path_loss_db",
        "channel.ula_response",
        "channel.draw_link",
        "channel.draw_terrestrial_link",
        "beamforming.mrt",
    }
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        # span index -> extra counts read from that call's arguments or result
        self.attrs: dict[int, list] = {}
        self._stack: list[int] = []

    def install(self, package: str = "saris") -> None:
        """Wrap every public layer function (but ``UNWRAPPED``) at every
        binding in the package.

        A function object held anywhere but in a module global (a dict, a
        default argument) is not rewrapped; the call count checks in
        ``workloads.py`` catch such a miss.
        """
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__ or f"{layer}.{attr}" in UNWRAPPED:
                    continue
                wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        prefix = package + "."
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        spans, stack, attrs = self.spans, self._stack, self.attrs
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name_id, start, end, parent]
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs[index] = observe(bound.arguments, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(
                {"names": self.names, "spans": self.spans, "attrs": self.attrs}, f, separators=(",", ":")
            )


def _observe_realize(arguments, r) -> list:
    los = [sum(link.state.value == "los" for link in links) for links in (r.bs_to_uav, r.uav_to_user)]
    return [los[0], len(r.bs_to_uav), los[1], len(r.uav_to_user)]


def _observe_optimize(arguments, result) -> list:
    trace, iterations = result[3], result[4]
    tol, max_iter = arguments["tol"], arguments["max_iter"]
    # The ascent stops early once the last iteration's gain is within tol of
    # the objective it started from (trace[-3]); a run at the cap that did not
    # meet that test was cut off.
    converged = trace[-1] - trace[-3] <= tol * trace[-3]
    capped = iterations == max_iter and not converged
    return [iterations, int(capped), int(arguments["init_w"] is not None)]


def _observe_write_csv(arguments, result) -> list:
    return [os.path.getsize(arguments["path"])]


_OBSERVERS = {
    "channel.realize_channels": _observe_realize,
    "beamforming.optimize_rows": _observe_optimize,
    "experiments.write_csv": _observe_write_csv,
}


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for an empty list)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def summarize(dump: dict) -> dict[str, float]:
    """Per-function statistics of one traced invocation.

    For every traced function ``<module>.<function>``: ``calls``, ``s`` (total
    inclusive seconds), ``self_s``, ``p50_ms``, ``p99_ms`` and ``max_ms`` of the
    inclusive duration.  Plus LoS fractions of the realized links, optimizer
    iteration and cap statistics, the safeguard refinements inside
    ``rate_loss``, CSV bytes written, and the span count.
    """
    names, spans = dump["names"], dump["spans"]
    attrs = {int(k): v for k, v in dump["attrs"].items()}
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations: list[list[float]] = [[] for _ in names]
    self_s = [0.0] * len(names)
    for i, (name_id, start, end, parent) in enumerate(spans):
        durations[name_id].append(end - start)
        self_s[name_id] += end - start - child_time[i]

    out: dict[str, float] = {"trace.spans": len(spans)}
    for name_id, name in enumerate(names):
        d = sorted(durations[name_id])
        out[f"{name}.calls"] = len(d)
        out[f"{name}.s"] = sum(d)
        out[f"{name}.self_s"] = self_s[name_id]
        out[f"{name}.p50_ms"] = 1e3 * _percentile(d, 50)
        out[f"{name}.p99_ms"] = 1e3 * _percentile(d, 99)
        out[f"{name}.max_ms"] = 1e3 * (d[-1] if d else 0.0)

    by_name = {name: [] for name in names}
    for index, values in attrs.items():
        by_name[names[spans[index][0]]].append((index, values))

    realized = [v for _, v in by_name.get("channel.realize_channels", [])]
    los_bs, n_bs = sum(v[0] for v in realized), sum(v[1] for v in realized)
    los_user, n_user = sum(v[2] for v in realized), sum(v[3] for v in realized)
    out["channel.los_frac_bs_uav"] = los_bs / n_bs if n_bs else 0.0
    out["channel.los_frac_uav_user"] = los_user / n_user if n_user else 0.0

    runs = by_name.get("beamforming.optimize_rows", [])
    iters = sorted(v[0] for _, v in runs)
    cap_hits = sum(v[1] for _, v in runs)
    out["beamforming.optimize_rows.iters_mean"] = sum(iters) / len(iters) if iters else 0.0
    out["beamforming.optimize_rows.iters_p50"] = _percentile(iters, 50)
    out["beamforming.optimize_rows.iters_p99"] = _percentile(iters, 99)
    out["beamforming.optimize_rows.cap_hits"] = cap_hits
    out["beamforming.optimize_rows.cap_frac"] = cap_hits / len(iters) if iters else 0.0

    rate_loss_id = names.index("estimation.rate_loss") if "estimation.rate_loss" in names else -2
    refine = sum(
        1 for index, v in runs if v[2] and spans[index][3] >= 0 and spans[spans[index][3]][0] == rate_loss_id
    )
    rate_loss_calls = out.get("estimation.rate_loss.calls", 0)
    out["estimation.rate_loss.refine_calls"] = refine
    out["estimation.rate_loss.refine_frac"] = refine / rate_loss_calls if rate_loss_calls else 0.0

    out["experiments.write_csv.bytes"] = sum(v[0] for _, v in by_name.get("experiments.write_csv", []))
    return out
