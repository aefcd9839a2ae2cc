"""Numerical invariant suite backing the `check` and `oracle-diff` commands."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import gridprop, ladder
from .ensemble import MomentumDistribution, ensemble_average, reflectivity_matrix
from .pulses import Pulse

ORACLE_TOL = 1e-3   # largest class-population deviation grid vs ladder that passes


def oracle_diff(pulse, cfg, grid_opts=gridprop.GridOptions(), rtol=ladder.DEFAULT_RTOL,
                atol=ladder.DEFAULT_ATOL):
    """Max class-population deviation between ladder and grid backends.

    Plane-wave input for every class 0..n; the ladder at rtol/atol, the
    grid at grid_opts.  norm_drift is the largest |norm - 1| of the grid's
    comb rows, one per input.
    """
    n = pulse.order_hint
    point = MomentumDistribution()   # dp = 0: the plane wave q = 0
    rec_l = reflectivity_matrix(pulse, point, cfg, order=n, backend="ladder",
                                rtol=rtol, atol=atol)
    rec_g = reflectivity_matrix(pulse, point, cfg, order=n, backend="grid",
                                grid_opts=grid_opts)
    dev = float(np.max(np.abs(rec_l.matrix - rec_g.matrix)))
    return {"max_abs_dev": dev, "norm_drift": rec_g.norm_drift, "tol": ORACLE_TOL,
            "passes": bool(dev < ORACLE_TOL), "order": n, "tau_s": pulse.duration,
            "rabi_avg_rad_s": pulse.rabi_avg}


def check_suite(cfg, grid_opts=gridprop.GridOptions(), rtol=ladder.DEFAULT_RTOL,
                atol=ladder.DEFAULT_ATOL):
    """Quick numerical-property checks; returns [(name, passed, detail)].

    Covers unit round-trips, norm conservation, palindromic time
    reversal, phase-gauge invariance, quadrature convergence and
    cross-backend agreement on a moderate pulse.  The ladder runs at
    rtol/atol except for the gauge check, which needs a tighter solve
    than its 1e-12 threshold.  The grid's one adaptive solve is the
    oracle's, whose comb rows give the grid norm drift; the off-comb mass
    is read after the reversal check's forward pass on the configured grid,
    pp56's plain member, which the role-swapped member run backward then
    undoes.  Both passes take 300 pp56 steps, 4800 substeps.
    """
    results = []

    def record(name, passed, detail):
        results.append((name, bool(passed), detail))

    # unit round trip
    vals = {"time": 9e-5, "momentum": 3.2e-27, "frequency": 1e5, "length": 1e-6,
            "energy": 1e-29}
    worst = max(abs(cfg.from_dimensionless(cfg.to_dimensionless(v, k), k) / v - 1)
                for k, v in vals.items())
    record("unit_round_trip", worst < 1e-12, f"max rel err {worst:.2e}")

    pulse = Pulse.on_resonance(cfg, 3, 90e-6, rabi_avg=2 * np.pi * 23e3)

    # ladder norm drift, from the truncation check's run on the default window
    trunc = ladder.truncation_check(ladder.ladder_state(0, 0.0, order=3), pulse, cfg,
                                    rtol=rtol, atol=atol)
    record("ladder_norm_drift", trunc.norm_drift < 1e-10, f"{trunc.norm_drift:.2e}")

    # grid norm drift over the oracle's comb rows
    od = oracle_diff(pulse, cfg, grid_opts=grid_opts, rtol=rtol, atol=atol)
    record("grid_norm_drift", od["norm_drift"] < 1e-10,
           f"{od['norm_drift']:.2e} over comb rows 0..3")

    # quasimomentum conservation on the grid
    gs = gridprop.plane_wave(grid_opts.grid, 0, 0.0)
    n_steps = 300
    fwd = gridprop.propagate_pulse_fixed(gs, pulse, cfg, n_steps=n_steps, run="primary")
    off = gridprop.momentum_populations(fwd)["offcomb"]
    record("offcomb_population", off < 1e-12, f"{off:.2e} after {n_steps} fixed steps")

    # palindromic forward/backward return
    back = gridprop.propagate_pulse_fixed(fwd, pulse, cfg, n_steps=n_steps, run="backward")
    ret = float(np.linalg.norm(back.psi - gs.psi))
    record("palindromic_reversal", ret < 1e-8, f"return error {ret:.2e}")

    # phase gauge invariance (tight tolerance run)
    base = Pulse.on_resonance(cfg, 3, 60e-6, rabi_avg=2 * np.pi * 20e3)
    st0, st1 = (ladder.integrate_ladder(ladder.ladder_state(0, 0.0, order=3), p, cfg,
                                        rtol=1e-13, atol=1e-15)
                for p in (base, replace(base, phase=1.234567)))
    gauge = max(abs(st0.population(j) - st1.population(j))
                for j in range(st0.j_min, st0.j_max + 1))
    record("phase_gauge_invariance", gauge < 1e-12, f"max pop change {gauge:.2e}")

    # quadrature convergence N vs N+8
    cpa, cpb = (ensemble_average(pulse, MomentumDistribution(dp=0.13), cfg, quadrature=nodes,
                                 rtol=rtol, atol=atol) for nodes in (41, 49))
    qdev = max(abs(cpa[c] - cpb[c]) for c in cpa.probs)
    record("quadrature_convergence", qdev < 1e-4, f"max class change {qdev:.2e}")

    # truncation window
    record("ladder_truncation", trunc.passes, f"max change {trunc.max_population_change:.2e}")

    # cross-backend agreement
    record("oracle_diff", od["passes"], f"max dev {od['max_abs_dev']:.2e}")

    return results
