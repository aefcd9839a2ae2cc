#!/usr/bin/env python3
"""The braggsim benchmark: end-to-end numbers per workload, per-layer
numbers from a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload dmp_map --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --list-metrics

Each workload command is a fresh ``python3 -m braggsim.cli`` process with
``--jobs 1`` and BLAS threads pinned to 1, one process at a time.

``--trace 0`` times passes over the workload's commands, each after one
set-up probe, until the next would end after ``--seconds`` (at least one
pass, at least three probes).  ``--trace 1`` makes one untraced pass and one pass
through ``tracer.py``, and reports the per-layer metrics.  Every pass is
checked by ``gate.py`` before any number is reported; seed 0 is checked
against the stored reference, other seeds against a tight-tolerance
recomputation of a seeded subset of rows after the timed section.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit.  A result file with provenance (commit,
versions, CPU) and the raw samples is written under ``.perfbench_runs/``.
"""
from __future__ import annotations

import argparse
import datetime
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import gate
import layers
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
STORED_REFERENCE = os.path.join(HERE, "reference", "seed0.json")
RUNS_DIR = ".perfbench_runs"
SETUP_PROBES = 3              # at least; one more per pass beyond three
RUN_LIMIT_S = 170.0           # every child is killed before the run reaches this

# name -> (unit, better); the end_to_end list of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "ok_frac": ("ratio", "higher"),
}


class BenchError(Exception):
    """The benchmark itself cannot run here (no program, bad arguments)."""


class Runner:
    """Starts one child at a time in the checkout, with pinned threads."""

    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def run(self, argv, log_prefix):
        """Run argv to completion; wall and CPU time, peak RSS and exit code.

        os.wait4 gives the child's own rusage; a timer kills a child that
        would outlive the run's deadline.
        """
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log_prefix + ".stdout", "w") as out, open(log_prefix + ".stderr", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"code": proc.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mib": usage.ru_maxrss / 1024, "stdout": log_prefix + ".stdout"}

    def cli(self, args, outdir, log_prefix, spans=None):
        if spans is None:
            argv = [sys.executable, "-m", "braggsim.cli", *args, "-o", outdir]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), "--out", spans, "--",
                    *args, "-o", outdir]
        return self.run(argv, log_prefix)

    def setup_probe(self, overrides, log_prefix):
        """Seconds from process launch to a parsed config in a fresh process."""
        t0 = time.monotonic()
        res = self.run([sys.executable, os.path.join(HERE, "probe_setup.py"), *overrides],
                       log_prefix)
        with open(res["stdout"]) as fh:
            text = fh.read().strip()
        if res["code"] != 0 or not text:
            raise BenchError(f"set-up probe failed with exit code {res['code']}")
        return float(text.splitlines()[-1]) - t0


class Pass:
    """One pass over a workload's commands in a fresh output directory."""

    def __init__(self, runner, workload, commands, rundir, name, traced=False):
        self.outdir = os.path.join(rundir, name)
        os.makedirs(self.outdir)
        self.results = {}
        self.spans = {}
        for label, args, _ in commands:
            spans = os.path.join(self.outdir, f"{label}.spans.json") if traced else None
            self.results[label] = runner.cli(args, os.path.join(self.outdir, "out"),
                                             os.path.join(self.outdir, label), spans)
            if traced:
                self.spans[label] = spans
        self.wall_s = sum(r["wall_s"] for r in self.results.values())
        self.rss_mib = max(r["rss_mib"] for r in self.results.values())

    def table(self, name):
        return os.path.join(self.outdir, "out", name)


def check_pass(tally, workload, p, reference, first=None):
    """Gate one pass; returns {table: rows} for later comparison."""
    rows = {}
    if workload.check_ops:
        res = p.results["check"]
        gate.gate_check(tally, res["stdout"], res["code"])
    for label, table in workload.tables:
        ok_run = p.results[label]["code"] == 0
        rows[table] = gate.gate_table(tally, p.table(table), reference[table],
                                      first=(first or {}).get(table), ok_run=ok_run)
    return rows


def load_reference(workload, seed, runner, rundir):
    """Reference rows for this seed: stored for seed 0, else a tight subset."""
    if not workload.tables:
        return {}
    if seed == 0:
        with open(STORED_REFERENCE) as fh:
            return json.load(fh)["tables"][workload.name]
    out = os.path.join(rundir, "reference.json")
    res = runner.run([sys.executable, os.path.join(HERE, "reference.py"), "--seed", str(seed),
                      "--workload", workload.name, "--out", out],
                     os.path.join(rundir, "reference"))
    if res["code"] != 0:
        raise BenchError(f"reference recomputation failed with exit code {res['code']}")
    with open(out) as fh:
        return json.load(fh)["tables"][workload.name]


def run_untraced(runner, workload, commands, seed, seconds, rundir):
    def probe():
        setup.append(runner.setup_probe(commands[0][2],
                                        os.path.join(rundir, f"probe{len(setup)}")))

    # a set-up probe before every pass spreads both over the run, so a slow
    # spell of the machine does not fall on all probes at once
    setup, passes = [], []
    t0 = time.monotonic()
    while True:
        probe()
        passes.append(Pass(runner, workload, commands, rundir, f"pass{len(passes)}"))
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(passes) > seconds:
            break
    while len(setup) < SETUP_PROBES:
        probe()
    # the tight subset of a non-default seed is recomputed after the timed section
    reference = load_reference(workload, seed, runner, rundir)
    tally = gate.Tally()
    first = None
    ops = []
    for p in passes:
        before = tally.attempted
        rows = check_pass(tally, workload, p, reference, first)
        first = first or rows
        ops.append(tally.attempted - before)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "ops_per_s": statistics.median(n / p.wall_s for n, p in zip(ops, passes)),
        "peak_rss_mb": statistics.median(p.rss_mib for p in passes),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    details = {f"{label}_s": statistics.median(p.results[label]["wall_s"] for p in passes)
               for label, _, _ in commands}
    details.update({f"{label}_cpu_s": statistics.median(p.results[label]["cpu_s"]
                                                        for p in passes)
                    for label, _, _ in commands})
    if workload.name == "dmp_map":
        details["map_nodes_per_s"] = metrics["ops_per_s"]
    samples = {"setup_s": setup, "passes": [p.results for p in passes]}
    return tally, metrics, details, samples


def run_traced(runner, workload, commands, seed, rundir):
    plain = Pass(runner, workload, commands, rundir, "untraced")
    traced = Pass(runner, workload, commands, rundir, "traced", traced=True)
    resume = None
    if workload.name == "dmp_map":
        # the same map again against the full cache the traced pass wrote
        label, args, _ = commands[0]
        spans = os.path.join(traced.outdir, "resume.spans.json")
        res = runner.cli(args, os.path.join(traced.outdir, "out"),
                         os.path.join(traced.outdir, "resume"), spans)
        if res["code"] == 0:
            resume = layers.load(spans)
    reference = load_reference(workload, seed, runner, rundir)
    tally = gate.Tally()
    if workload.name == "dmp_map" and resume is None:
        tally.attempted += 1
        tally.fail(1, f"resumed map run exited {res['code']}")
    first = check_pass(tally, workload, plain, reference)
    check_pass(tally, workload, traced, reference, first)
    # tracing must not change a single byte of any result table
    for _, table in workload.tables + (((None, "check.tsv"),) if workload.check_ops else ()):
        a, b = plain.table(table), traced.table(table)
        if not (os.path.exists(a) and os.path.exists(b) and filecmp.cmp(a, b, shallow=False)):
            n = reference[table]["n_rows"] if table in reference else 1
            tally.attempted += n
            tally.fail(n, f"{table}: traced output differs from the untraced output")
    traces = []
    for label, _, _ in commands:
        if os.path.exists(traced.spans[label]):
            traces.append(layers.load(traced.spans[label]))
        else:
            tally.fail(1, f"{label}: the traced run wrote no spans")
    metrics = layers.layer_metrics(traces, resume)
    metrics["ref_dev_max"] = tally.dev_max
    metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    details = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s}
    # a target the program no longer has reads as 0; the result file says which
    missing = sorted({m for tr in traces + [resume] if tr for m in tr["missing"]})
    details["missing_trace_targets"] = len(missing)
    samples = {"passes": [plain.results, traced.results], "missing_trace_targets": missing}
    return tally, metrics, details, samples


def provenance(root):
    return {"commit": git_commit(root), "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "platform": platform.platform()}


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def git_commit(root):
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def list_metrics(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        print(f"workload {w['name']}: {w['why']}")
    for m in spec["end_to_end"]:
        print(f"end_to_end {m['name']} [{m['unit']}] {m['better']} is better, "
              f"bound {m['bound']}")
    for m in spec["per_layer"]:
        print(f"per_layer {m['name']} [{m['unit']}] {m['better']} is better")


def main(argv=None):
    ap = argparse.ArgumentParser(description="braggsim benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list-metrics", action="store_true",
                    help="print every metric with its unit and exit")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if args.list_metrics:
        list_metrics(root)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(root, "src", "braggsim", "cli.py")):
        raise BenchError(f"no braggsim source under {root}/src; run from the repository root")
    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    rundir = os.path.join(root, RUNS_DIR, name)
    os.makedirs(rundir)
    runner = Runner(root, time.monotonic() + RUN_LIMIT_S)
    try:
        if args.trace:
            tally, metrics, details, samples = run_traced(runner, workload, commands,
                                                          args.seed, rundir)
            units = {k: v[0] for k, v in layers.PER_LAYER.items()}
        else:
            tally, metrics, details, samples = run_untraced(runner, workload, commands,
                                                            args.seed, args.seconds, rundir)
            units = {k: v[0] for k, v in END_TO_END.items()}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commands": [c[1] for c in commands],
              "provenance": provenance(root), "result": result, "details": details,
              "problems": tally.problems, "samples": samples}
    os.makedirs(os.path.join(root, RUNS_DIR, "results"), exist_ok=True)
    with open(os.path.join(root, RUNS_DIR, "results", name + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    for name, value in details.items():
        print(f"detail {name} = {value:.6g}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
