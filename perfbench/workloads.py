"""Workload definitions: the CLI commands each workload runs and their inputs.

Every command runs as a fresh ``python3 -m braggsim.cli`` process with
``--jobs 1``.  The inputs are plain ``--set section.key=value`` overrides
derived from the workload seed; seed 0 is the default workload, for which
a tight-tolerance reference of every output value is stored.

For other seeds the τ/Ω map nodes, the interferometer phase offset and the
robustness pulse move within their ranges.  The map range is contracted
symmetrically so the mean τ and Ω, and with them the work per node, stay
the same on every seed.
"""
from __future__ import annotations

import math
import random

# Default ranges of the map (µs, kHz): the config defaults of braggsim.
TAU_RANGE_US = (50.0, 150.0)
OMEGA_RANGE_KHZ = (10.0, 40.0)
TAU_COUNT, OMEGA_COUNT = 4, 4
PHI3_POINTS = 8
ROBUSTNESS_OMEGA_KHZ = 23.0


class Workload:
    """A named list of CLI commands plus the output tables the gate checks.

    ``tables`` lists (command label, output file) pairs; every row of a
    gated table is one operation.  ``check_ops`` marks a workload whose
    operations are the PASS/FAIL lines that the ``check`` command prints.
    """

    def __init__(self, name, why, build, tables=(), check_ops=False):
        self.name = name
        self.why = why
        self._build = build
        self.tables = tuple(tables)
        self.check_ops = check_ops

    def commands(self, seed):
        """[(label, argv after ``braggsim``, overrides)] for this seed.

        The overrides are the ``section.key=value`` strings in argv, so a
        probe or a reference computation can parse the same config.
        """
        return self._build(seed_inputs(seed))


def seed_inputs(seed):
    """Input shifts for a seed; all zero for the default seed 0."""
    if seed == 0:
        return {"tau_shrink_us": 0.0, "omega_shrink_khz": 0.0, "phi1": 0.0,
                "omega_shift_khz": 0.0}
    rng = random.Random(seed)
    return {"tau_shrink_us": 8.0 * rng.random(),
            "omega_shrink_khz": 3.0 * rng.random(),
            # phi1 offsets the interferometer phase phi1 - 2 phi2 + phi3,
            # which shifts the fringe along the fixed phi3 grid
            "phi1": 2 * math.pi / PHI3_POINTS * rng.random(),
            "omega_shift_khz": 2.0 * rng.random() - 1.0}


def _set(key, value):
    """One ``section.key=value`` override; floats keep all their digits."""
    return f"{key}={value!r}"


def _sets(overrides):
    return [arg for ov in overrides for arg in ("--set", ov)]


def map_overrides(inp):
    t, o = inp["tau_shrink_us"], inp["omega_shrink_khz"]
    return [_set("scan.order", 3), _set("ensemble.dp", 0.13), _set("ensemble.nodes", 41),
            _set("scan.tau_min", TAU_RANGE_US[0] + t),
            _set("scan.tau_max", TAU_RANGE_US[1] - t),
            _set("scan.tau_count", TAU_COUNT),
            _set("scan.omega_min", OMEGA_RANGE_KHZ[0] + o),
            _set("scan.omega_max", OMEGA_RANGE_KHZ[1] - o),
            _set("scan.omega_count", OMEGA_COUNT), _set("scan.spot_check_nodes", 0)]


def fringe_overrides(inp):
    return [_set("pulse.order", 3), _set("ensemble.dp", 0.13), _set("ensemble.nodes", 41),
            _set("sequence.phi1", inp["phi1"])]


def robustness_overrides(inp):
    return [_set("pulse.order", 3), _set("ensemble.nodes", 41),
            _set("pulse.omega", ROBUSTNESS_OMEGA_KHZ + inp["omega_shift_khz"])]


def _dmp_map(inp):
    ov = map_overrides(inp)
    return [("dmp_find", ["dmp-find", "--jobs", "1", *_sets(ov)], ov)]


def _shared_sweeps(inp):
    fo, ro = fringe_overrides(inp), robustness_overrides(inp)
    return [("fringe_scan", ["mzi", "--jobs", "1", "--phi3-scan", str(PHI3_POINTS),
                             *_sets(fo)], fo),
            ("robustness", ["robustness", "--jobs", "1", *_sets(ro)], ro)]


def _oracle_check(inp):
    return [("check", ["check", "--jobs", "1"], [])]


WORKLOADS = {w.name: w for w in (
    Workload("dmp_map",
             "distinct map nodes share no work, so per-node ladder cost shows in full "
             "and reuse optimisations should change nothing",
             _dmp_map, tables=[("dmp_find", "map.tsv")]),
    Workload("shared_sweeps",
             "8 fringe phases share two pulses and 21 spreads share per-q responses, "
             "so reuse shows here; largest ladder batches and memory",
             _shared_sweeps,
             tables=[("fringe_scan", "fringe_scan.tsv"), ("robustness", "robustness.tsv")]),
    Workload("oracle_check",
             "the invariant suite, the only workload where split-step grid pulses "
             "do most of the work",
             _oracle_check, check_ops=True),
)}
