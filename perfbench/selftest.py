"""The benchmark's own tests.  Run from the repository root (about a minute):

    python3 perfbench/selftest.py

They check that the gate trips on a copy of a real output perturbed by
2e-9 (the program is never perturbed), that the exact solver and FFT
counts repeat across two traced runs, that the tracer restores every
attribute it patched, that the metric names match BENCHMARK.json, and
that the benchmark refuses to run where there is no program.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _scratch():
    base = os.path.join(ROOT, run.RUNS_DIR)
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=base)


def _runner():
    return run.Runner(ROOT, deadline=time.monotonic() + run.RUN_LIMIT_S)


def _perturbed_copy(src, dst, row, column, delta):
    with open(src) as fh:
        lines = fh.read().split("\n")
    body = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    header = lines[body[0]].split("\t")
    k = body[1 + row]
    cells = lines[k].split("\t")
    j = header.index(column)
    cells[j] = format(float(cells[j]) + delta, ".17g")
    lines[k] = "\t".join(cells)
    with open(dst, "w") as fh:
        fh.write("\n".join(lines))


def test_gate_trips_on_perturbed_copy(tmp):
    """A real robustness table passes; a copy 2e-9 off in one cell fails one op."""
    wl = WORKLOADS["shared_sweeps"]
    label, args, _ = wl.commands(0)[1]
    res = _runner().cli(args, os.path.join(tmp, "out"), os.path.join(tmp, label))
    assert res["code"] == 0, res
    with open(run.STORED_REFERENCE) as fh:
        ref = json.load(fh)["tables"]["shared_sweeps"]["robustness.tsv"]
    table = os.path.join(tmp, "out", "robustness.tsv")
    for delta, expect_failed in ((0.0, 0), (5e-10, 0), (2e-9, 1), (-2e-9, 1)):
        copy = os.path.join(tmp, "copy.tsv")
        _perturbed_copy(table, copy, row=10, column="R_0_3", delta=delta)
        tally = gate.Tally()
        gate.gate_table(tally, copy, ref)
        assert (tally.attempted, tally.failed) == (21, expect_failed), \
            (delta, tally.attempted, tally.failed, tally.problems)
    assert tally.dev_max > 1e-9


def test_counts_repeat(tmp):
    """ladder.rhs_calls, propagate_batch.calls and gridprop.fft_calls are exact."""
    label, args, _ = WORKLOADS["oracle_check"].commands(0)[0]
    counts = []
    for i in range(2):
        spans = os.path.join(tmp, f"spans{i}.json")
        res = _runner().cli(args, os.path.join(tmp, f"out{i}"), os.path.join(tmp, f"log{i}"),
                            spans=spans)
        assert res["code"] == 0, res
        m = layers.layer_metrics([layers.load(spans)])
        counts.append({k: m[k] for k in ("ladder.rhs_calls", "ladder.propagate_batch.calls",
                                         "gridprop.fft_calls")})
    assert counts[0] == counts[1], counts
    assert all(v > 0 for v in counts[0].values()), counts


def test_tracer_restores_every_patch(tmp):
    import braggsim.cli  # noqa: F401
    import braggsim.pulses
    import braggsim.scans

    def snapshot():
        out = {}
        for name, mod in sys.modules.items():
            if name == "braggsim" or name.startswith("braggsim."):
                for attr, value in vars(mod).items():
                    out[(name, attr)] = value
                    if isinstance(value, type) and value.__module__ == name:
                        for k, v in vars(value).items():
                            out[(name, attr, k)] = v
        return out

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    assert not tracer.missing, tracer.missing
    assert braggsim.scans.reflectivity_matrix is not before[("braggsim.scans",
                                                            "reflectivity_matrix")]
    assert braggsim.pulses.Envelope.__dict__["value_frac"] is not before[
        ("braggsim.pulses", "Envelope", "value_frac")]
    tracer.restore()
    after = snapshot()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed, changed


def test_metric_names_match_benchmark_json(tmp):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(layers.layer_metrics([])) | {"ref_dev_max", "trace.overhead_frac"} \
        == set(layers.PER_LAYER)
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--list-metrics"],
                         capture_output=True, text=True, check=True).stdout
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert f"{m['name']} [{m['unit']}]" in out, m["name"]


def test_refuses_without_program(tmp):
    """Only BENCHMARK.json and perfbench/: nonzero exit and no result line."""
    bare = os.path.join(tmp, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dmp_map",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main():
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        tmp = _scratch()
        try:
            fn(tmp)
            print(f"PASS {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
