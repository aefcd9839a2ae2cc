"""Per-layer metrics from the span files of a traced run.

Self time of a span is its duration minus the durations of its direct
child spans (which nest and never overlap in this single-threaded
program) minus the time leaves of another layer spent inside it.
"""
from __future__ import annotations

import json
import statistics

# name -> (unit, better); the per_layer list of BENCHMARK.json
PER_LAYER = {
    "ladder.rhs_calls": ("count", "lower"),
    "ladder.steps_accepted": ("count", "lower"),
    "ladder.steps_rejected": ("count", "lower"),
    "ladder.us_per_rhs": ("us", "lower"),
    "ladder.self_s": ("s", "lower"),
    "ladder.propagate_batch.calls": ("count", "lower"),
    "ladder.sol_mb_peak": ("MiB", "lower"),
    "scans.node_p50_s": ("s", "lower"),
    "scans.node_p75_s": ("s", "lower"),
    "scans.resume_s": ("s", "lower"),
    "scans.self_s": ("s", "lower"),
    "ensemble.reflectivity_matrix.calls": ("count", "lower"),
    "ensemble.ensemble_average.calls": ("count", "lower"),
    "ensemble.self_s": ("s", "lower"),
    "interferometer.path_resolved_mzi.calls": ("count", "lower"),
    "interferometer.branch_columns_max": ("count", "lower"),
    "interferometer.self_s": ("s", "lower"),
    "gridprop.propagate_pulse.calls": ("count", "lower"),
    "gridprop.fft_calls": ("count", "lower"),
    "gridprop.us_per_fft": ("us", "lower"),
    "gridprop.rows_per_call": ("count", "higher"),
    "gridprop.self_s": ("s", "lower"),
    "pulses.envelope_calls": ("count", "lower"),
    "pulses.envelope_self_s": ("s", "lower"),
    "validation.self_s": ("s", "lower"),
    "validation.oracle_dev": ("probability", "lower"),
    "validation.checks_failed": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "ref_dev_max": ("probability", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

SELF_TIME_LAYERS = ("cli", "scans", "ensemble", "interferometer", "ladder", "gridprop",
                    "validation")


def load(path):
    with open(path) as fh:
        return json.load(fh)


def _quantile(values, which):
    """Median (which=1) or upper quartile (which=2); 0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4)[which]


def layer_metrics(traces, resume=None):
    """Per-layer metrics of the traced invocations of one workload.

    ``traces`` are the loaded span files of one pass over the workload's
    commands; ``resume`` is the span file of a repeated map run against
    the full cache, or None.  ``ref_dev_max`` and ``trace.overhead_frac``
    come from the gate and the wall clock, not from spans; the caller
    fills them in.
    """
    self_s = dict.fromkeys(SELF_TIME_LAYERS, 0.0)
    count = {}
    node_s, cols, rows = [], [], []
    oracle_dev, checks_failed = 0.0, 0
    rhs = [0, 0.0]
    fft = [0, 0.0]
    env = [0, 0.0]
    solver = {"nfev": 0, "accepted": 0, "attempts": 0, "y_bytes_max": 0}
    for tr in traces:
        spans = tr["spans"]
        child_s = [0.0] * len(spans)
        mzi_ids = set()
        for sid, name, layer, start, end, parent, foreign, info in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for sid, name, layer, start, end, parent, foreign, info in spans:
            if layer in self_s:
                self_s[layer] += (end - start) - child_s[sid] - foreign
            count[name] = count.get(name, 0) + 1
            if name == "interferometer.path_resolved_mzi":
                mzi_ids.add(sid)
            elif name == "scans._map_node":
                node_s.append(end - start)
            elif name == "ladder.propagate_batch" and info and _has_ancestor(spans, sid, mzi_ids):
                cols.append(info["cols"])
            elif name.startswith("gridprop.propagate_pulse") and info:
                rows.append(info["rows"])
            elif name == "validation.oracle_diff" and info:
                oracle_dev = max(oracle_dev, info["dev"])
            elif name == "validation.check_suite" and info:
                checks_failed += info["failed"]
        for acc, key in ((rhs, "ladder.rhs"), (fft, "gridprop.fft"), (env, "pulses.envelope")):
            calls, secs = tr["leaves"].get(key, [0, 0.0])
            acc[0] += calls
            acc[1] += secs
        for key in ("nfev", "accepted", "attempts"):
            solver[key] += tr["solver"][key]
        solver["y_bytes_max"] = max(solver["y_bytes_max"], tr["solver"]["y_bytes_max"])

    resume_s = 0.0
    if resume is not None:
        resume_s = sum(end - start for _, name, _, start, end, *_ in resume["spans"]
                       if name == "scans.reflectivity_map")
    return {
        "ladder.rhs_calls": solver["nfev"],
        "ladder.steps_accepted": solver["accepted"],
        "ladder.steps_rejected": solver["attempts"] - solver["accepted"],
        "ladder.us_per_rhs": 1e6 * rhs[1] / rhs[0] if rhs[0] else 0.0,
        "ladder.self_s": self_s["ladder"],
        "ladder.propagate_batch.calls": count.get("ladder.propagate_batch", 0),
        "ladder.sol_mb_peak": solver["y_bytes_max"] / 2**20,
        "scans.node_p50_s": _quantile(node_s, 1),
        "scans.node_p75_s": _quantile(node_s, 2),
        "scans.resume_s": resume_s,
        "scans.self_s": self_s["scans"],
        "ensemble.reflectivity_matrix.calls": count.get("ensemble.reflectivity_matrix", 0),
        "ensemble.ensemble_average.calls": count.get("ensemble.ensemble_average", 0),
        "ensemble.self_s": self_s["ensemble"],
        "interferometer.path_resolved_mzi.calls":
            count.get("interferometer.path_resolved_mzi", 0),
        "interferometer.branch_columns_max": max(cols, default=0),
        "interferometer.self_s": self_s["interferometer"],
        "gridprop.propagate_pulse.calls": count.get("gridprop.propagate_pulse", 0),
        "gridprop.fft_calls": fft[0],
        "gridprop.us_per_fft": 1e6 * fft[1] / fft[0] if fft[0] else 0.0,
        "gridprop.rows_per_call": statistics.fmean(rows) if rows else 0.0,
        "gridprop.self_s": self_s["gridprop"],
        "pulses.envelope_calls": env[0],
        "pulses.envelope_self_s": env[1],
        "validation.self_s": self_s["validation"],
        "validation.oracle_dev": oracle_dev,
        "validation.checks_failed": checks_failed,
        "cli.self_s": self_s["cli"],
    }


def _has_ancestor(spans, sid, ancestors):
    parent = spans[sid][5]
    while parent >= 0:
        if parent in ancestors:
            return True
        parent = spans[parent][5]
    return False
