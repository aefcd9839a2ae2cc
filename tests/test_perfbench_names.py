import json
import os

import numpy as np

from braggsim.ensemble import MomentumDistribution, reflectivity_matrix
from braggsim.pulses import Pulse

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_every_traced_name_exists(monkeypatch):
    # the benchmark's tracer wraps package functions by name from outside;
    # a renamed or deleted target must fail the suite, not just the benchmark
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.restore()


def test_reference_rows_still_compute(monkeypatch):
    # the benchmark gate recomputes reference rows through the package API;
    # row 1 of every gated table must still match the stored seed-0 reference
    monkeypatch.syspath_prepend(PERFBENCH)
    from braggsim.config import parse_config
    from reference import STORED, TABLES
    from workloads import WORKLOADS
    stored = json.load(open(STORED))["tables"]
    for wl in WORKLOADS.values():
        overrides = {label: ov for label, _, ov in wl.commands(0)}
        for label, table in wl.tables:
            _, _, row = TABLES[table](parse_config(overrides=overrides[label]))
            want = stored[wl.name][table]["rows"]["1"]
            assert np.max(np.abs(np.subtract(row(1), want))) <= 1e-12, table


def test_traced_mirror_node_counts_its_solve_and_envelope(monkeypatch, rb87):
    # the half-pulse node is one propagate_batch span, and the envelope is evaluated
    # once per stage time through the one traced evaluator: at t0, then 11 times per
    # attempted step, whose last stage time, t + h, also serves its 12th evaluation
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer
    mirror = Pulse.on_resonance(rb87, 3, 90e-6, rabi_avg=2 * np.pi * 23e3)
    tracer = Tracer()
    try:
        tracer.install()
        reflectivity_matrix(mirror, MomentumDistribution("gaussian", 0.0, 0.13), rb87, quadrature=5)
    finally:
        tracer.restore()
    assert [s[1] for s in tracer.spans].count("ladder.propagate_batch") == 1
    rhs = tracer.leaves["ladder.rhs"][0]
    assert rhs == 1 + 12 * tracer.solver["attempts"] > 1
    assert tracer.leaves["pulses.envelope"][0] == rhs - tracer.solver["attempts"]
