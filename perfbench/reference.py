"""Tight-tolerance reference rows for the gated output tables.

Regenerate the stored reference of the default seed (every row):

    PYTHONPATH=src python3 perfbench/reference.py --store

Compute the seeded subset of rows that the gate checks on another seed:

    PYTHONPATH=src python3 perfbench/reference.py --seed 7 --out ref.json

Rows come from the library at ladder rtol 1e-13 / atol 1e-15, one node,
phase or spread at a time, built from the same ``section.key=value``
overrides that the workload passes to the CLI.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import replace

import numpy as np

from braggsim.config import parse_config
from braggsim.ensemble import MomentumDistribution, reflectivity_matrix
from braggsim.interferometer import path_resolved_mzi
from braggsim.pulses import Pulse, PulseSequence

from workloads import PHI3_POINTS, WORKLOADS

RTOL, ATOL = 1e-13, 1e-15
STORED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", "seed0.json")
# rows per table that the gate recomputes on a non-default seed
SUBSET = {"map.tsv": 2, "fringe_scan.tsv": 1, "robustness.tsv": 3}
# the dp grid of the ``robustness`` command
ROBUSTNESS_DPS = np.linspace(0.0, 0.3, 21)


def _khz(omega):
    return omega / (2 * np.pi * 1e3)


def map_table(rc):
    cfg, sc = rc.physical(), rc["scan"]
    n = sc["order"]
    taus = np.linspace(sc["tau_min"], sc["tau_max"], sc["tau_count"])
    oms = np.linspace(sc["omega_min"], sc["omega_max"], sc["omega_count"])
    nodes = [(float(t), float(o)) for t in taus for o in oms]
    columns = ["tau_us", "omega_over_2pi_kHz"]
    for a, b in sc["pairs"]:
        columns += [f"R_{a}_{b}", f"R_{a}_{b}_fwd", f"R_{a}_{b}_rev"]

    def row(i):
        tau, om = nodes[i]
        pulse = Pulse.on_resonance(cfg, n, tau, rabi_avg=om)
        rec = reflectivity_matrix(pulse, rc.distribution(), cfg, order=n,
                                  quadrature=rc.quadrature(), rtol=RTOL, atol=ATOL)
        out = [tau * 1e6, _khz(om)]
        for a, b in sc["pairs"]:
            out += [rec.pair(a, b), *rec.pair_directional(a, b)]
        return out + [0]
    return columns + ["failed"], len(nodes), row


def fringe_table(rc):
    cfg = rc.physical()
    seq = rc.mzi_sequence(cfg)
    n = seq.order_hint
    phis = np.linspace(0.0, 2 * np.pi, PHI3_POINTS, endpoint=False)
    last = max(i for i, it in enumerate(seq.items) if isinstance(it, Pulse))

    def row(i):
        items = list(seq.items)
        items[last] = replace(items[last], phase=float(phis[i]))
        _, rep = path_resolved_mzi(PulseSequence(tuple(items)), rc.distribution(), cfg,
                                   quadrature=rc.quadrature(), rtol=RTOL, atol=ATOL)
        ports = rep.meta["ports_closing"]
        return [float(phis[i]), ports[0], ports[n], 1.0 - (ports[0] + ports[n])]
    return ["phi3", "port_0", f"port_{n}", "undetected"], len(phis), row


def robustness_table(rc):
    cfg = rc.physical()
    pulse = rc.pulse(cfg)
    n = pulse.order_hint
    pairs = rc.get("scan", "pairs")

    def row(i):
        dp = float(ROBUSTNESS_DPS[i])
        dist = MomentumDistribution("delta" if dp == 0 else "gaussian", 0.0, dp)
        rec = reflectivity_matrix(pulse, dist, cfg, order=n, quadrature=rc.quadrature(),
                                  rtol=RTOL, atol=ATOL)
        return [dp] + [rec.pair(a, b) for a, b in pairs]
    return ["dp_hbark"] + [f"R_{a}_{b}" for a, b in pairs], len(ROBUSTNESS_DPS), row


TABLES = {"map.tsv": map_table, "fringe_scan.tsv": fringe_table,
          "robustness.tsv": robustness_table}


def subset_rows(seed, table, n_rows):
    """The seeded row indices the gate recomputes for one table."""
    rng = random.Random(f"{seed}:{table}")
    return sorted(rng.sample(range(n_rows), SUBSET[table]))


def compute(seed, full, names=tuple(WORKLOADS)):
    """{workload: {table: {"columns", "n_rows", "rows": {index: row}}}}."""
    out = {}
    for wl in (WORKLOADS[name] for name in names):
        commands = {label: overrides for label, _, overrides in wl.commands(seed)}
        for label, table in wl.tables:
            columns, n_rows, row = TABLES[table](parse_config(overrides=commands[label]))
            indices = range(n_rows) if full else subset_rows(seed, table, n_rows)
            out.setdefault(wl.name, {})[table] = {
                "columns": columns, "n_rows": n_rows,
                "rows": {str(i): [float(v) for v in row(i)] for i in indices}}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--store", action="store_true",
                    help="compute every row of seed 0 into the stored reference")
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="only this workload's tables (subset mode)")
    ap.add_argument("--out", help="output JSON for a seeded subset")
    args = ap.parse_args(argv)
    if args.store:
        data = {"seed": 0, "rtol": RTOL, "atol": ATOL, "tables": compute(0, full=True)}
        path = STORED
    elif args.out:
        data = {"seed": args.seed, "rtol": RTOL, "atol": ATOL,
                "tables": compute(args.seed, full=False,
                                  names=[args.workload] if args.workload else tuple(WORKLOADS))}
        path = args.out
    else:
        ap.error("give --store or --out")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
