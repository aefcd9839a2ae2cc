#!/usr/bin/env python3
"""Write the stored pp56 grid runs that ``tests/test_gridprop.py::TestRows`` compares
bit for bit.

    PYTHONPATH=src python3 tests/data/make_grid_fixtures.py [OUT_DIR]

OUT_DIR defaults to this file's directory.  Every run crosses the order-3 mirror
pulse (90 us, Rabi 2*pi*23 kHz av) on the 32-point, 2-period grid:

- ``grid_1d_steps.json``: the adaptive controller on one row at tol 1e-4, every
  trial step h and the result;
- ``grid_1d_fixed_pair.json``: 40 fixed pair-averaged steps forward, then the
  role-swapped member backward;
- ``grid_fixed_primary.json``: ``check``'s two fixed passes on two rows, the plain
  member forward and the role-swapped member backward.

Run it on the tree whose stepper the tests should pin: the files then show that a
later change left the stepper's arithmetic untouched.
"""
from __future__ import annotations

import json
import os
import sys

import numpy as np

from braggsim import default_rb87, gridprop, scans
from braggsim.gridprop import Grid, GridOptions, plane_wave, propagate_pulse, \
    propagate_pulse_fixed
from braggsim.pulses import Pulse

PULSE = {"order": 3, "tau_s": 9e-05, "rabi_avg_hz": 23000.0}
GRID = [32, 2]


def _complex(name, psi):
    return {f"{name}_re": psi.real.tolist(), f"{name}_im": psi.imag.tolist()}


def fixtures(cfg):
    """{file name: stored fields}."""
    pulse = Pulse.on_resonance(cfg, PULSE["order"], PULSE["tau_s"],
                               rabi_avg=2 * np.pi * PULSE["rabi_avg_hz"])
    one = {"grid": GRID, "input": 1, "q": 0.1, **PULSE}
    st = plane_wave(Grid(*GRID), one["input"], one["q"])

    steps, pair = [], gridprop._Stepper.pair
    def spy(self, psi, t, h):
        steps.append(h)
        return pair(self, psi, t, h)
    gridprop._Stepper.pair = spy
    try:
        out = propagate_pulse(st, pulse, cfg, GridOptions(Grid(*GRID), tol=1e-4))
    finally:
        gridprop._Stepper.pair = pair
    adaptive = {**one, "tol": 1e-4, "h": steps, **_complex("psi", out.psi)}

    fwd = propagate_pulse_fixed(st, pulse, cfg, n_steps=40)
    back = propagate_pulse_fixed(fwd, pulse, cfg, n_steps=40, run="backward")
    fixed_pair = {**one, "n_steps": 40, **_complex("fwd", fwd.psi),
                  **_complex("back", back.psi)}

    rows = {"grid": GRID, "inputs": [0, 1], "q": [0.1, -0.2], **PULSE, "n_steps": 40}
    st = plane_wave(Grid(*GRID), np.array(rows["inputs"]), np.array(rows["q"]))
    fwd = propagate_pulse_fixed(st, pulse, cfg, n_steps=40, run="primary")
    back = propagate_pulse_fixed(fwd, pulse, cfg, n_steps=40, run="backward")
    primary = {**rows, **_complex("fwd", fwd.psi), **_complex("back", back.psi)}
    return {"grid_1d_steps.json": adaptive, "grid_1d_fixed_pair.json": fixed_pair,
            "grid_fixed_primary.json": primary}


def main(argv):
    out_dir = argv[0] if argv else os.path.dirname(os.path.abspath(__file__))
    scans._one_blas_thread()      # the arithmetic of the CLI and the test suite
    for name, fields in fixtures(default_rb87()).items():
        with open(os.path.join(out_dir, name), "w") as fh:
            json.dump(fields, fh, indent=0)


if __name__ == "__main__":
    main(sys.argv[1:])
