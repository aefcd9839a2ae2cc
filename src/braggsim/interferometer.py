"""Mach-Zehnder sequences: coherent runs, path-resolved branch tracking,
mirror response tables and fringe scans.

Ports are the two detected momentum classes 0 and n.  The path-resolved
run splits the state into momentum-class branches after designated
pulses and propagates each branch independently; because propagation is
linear, the coherent sum of all branches reproduces the unsplit run
exactly (up to pruned mass).

Each branch is one frozen ``PathNode``, the one per-branch record: its
class history (``key`` joins it with ">"), its mass and two delivery
metrics, each also as a fraction of the branch mass:

* port_class_mass - branch mass ending in the port classes {0, n}
  (final momentum binning).
* port_coupled_mass - branch mass on trajectory-closing class histories,
  i.e. paths whose free-flight displacement matches the resonant arms so
  they arrive at the final beam splitter on the detected output ports.
  A mirror that redirects class c to n - c closes the path; this is the
  quantity the path-resolved population plots visualize, and it does not
  depend on the free-evolution time.

``ladder.run_sequence`` splits the branches and picks how each segment crosses.
``_branch_plan`` holds the one closing rule, a mask over the class histories in
that runner's column order, which both ladder detectors read.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from . import gridprop, ladder
from .ensemble import DEFAULT_GH_NODES, ensemble_average, reflectivity_matrix
from .errors import ParameterError
from .pulses import Pulse

MAX_BRANCHES = 64   # cap on (n+1)^splits, the branch columns of one batch


@dataclass(frozen=True)
class PortReport:
    """Detected-port probabilities of an interferometer run; a path-resolved
    run adds meta["ports_closing"], the ports of the closing-path detector."""

    ports: dict                  # class -> probability
    undetected: float
    pruned: float = 0.0
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PathNode:
    """One branch of a path-resolved run, keyed by its class history."""

    history: tuple               # class after each splitting pulse
    weight: float                # branch mass at the last split
    port_class_mass: float = 0.0
    port_coupled_mass: float = 0.0

    @property
    def key(self):
        return ">".join(map(str, self.history))

    def _fraction(self, mass):
        return mass / self.weight if self.weight > 0 else 0.0

    @property
    def port_class_fraction(self):
        return self._fraction(self.port_class_mass)

    @property
    def port_coupled_fraction(self):
        return self._fraction(self.port_coupled_mass)


def run_mzi(seq, dist, cfg, quadrature=DEFAULT_GH_NODES, backend="ladder", **kw):
    """Coherent propagation through the full sequence; no path splitting."""
    cp = ensemble_average(seq, dist, cfg, quadrature=quadrature, backend=backend, **kw)
    port_mass = {p: cp.raw[p] for p in (0, seq.order_hint)}
    return PortReport(ports=port_mass, undetected=1.0 - sum(port_mass.values()))


def _branch_plan(seq, split_after):
    """Validated split ordinals, their class histories in ``ladder.run_sequence``
    column order, and the one closing rule: a mask over those histories that keeps
    the paths whose free-flight displacement matches one of the two resonant arms."""
    n = seq.order_hint
    n_pulses = len(seq.pulses)
    split_after = tuple(sorted(set(split_after)))
    for s in split_after:
        if s not in range(n_pulses):
            raise ParameterError(f"split_after index {s} out of range for "
                                 f"{n_pulses} pulses")
    if (n + 1) ** len(split_after) > MAX_BRANCHES:
        raise ParameterError(
            f"splitting into {n + 1}^{len(split_after)} branches exceeds "
            f"{MAX_BRANCHES}; split after fewer pulses")

    # free time after each pulse: a branch in class c drifts c times as far
    free_after = []
    for it in seq.items:
        if isinstance(it, Pulse):
            free_after.append(0.0)
        elif free_after:
            free_after[-1] += it.duration
    gaps = [free_after[s] for s in split_after]
    histories = list(product(range(n + 1), repeat=len(split_after)))
    disp = np.array([sum(c * g for c, g in zip(h, gaps)) for h in histories])
    # the two resonant arms alternate between classes 0 and n
    arms = [sum((a if k % 2 == 0 else n - a) * g for k, g in enumerate(gaps)) for a in (0, n)]
    closing = np.any([np.abs(disp - r) < 1e-12 * max(1.0, abs(r)) for r in arms], axis=0)
    return split_after, histories, closing


def _port_probs(wts, C, ports, j_min):
    """Distribution-weighted port probabilities of amplitudes C (dim, nq), and
    the rest of their norm under "undetected"."""
    pops = np.abs(C) ** 2
    out = {p: float(np.dot(wts, pops[p - j_min])) for p in ports}
    out["undetected"] = float(np.dot(wts, pops.sum(axis=0))) - sum(out.values())
    return out


def path_resolved_mzi(seq, dist, cfg, quadrature=DEFAULT_GH_NODES, backend="ladder",
                      split_after=(0, 1), rtol=ladder.DEFAULT_RTOL,
                      atol=ladder.DEFAULT_ATOL):
    """Split the state into class branches after designated pulses.

    split_after lists pulse ordinals (0-based, counting pulses only).
    Branch results are ensemble-averaged over the momentum distribution;
    all branches and quadrature nodes propagate in one batch.  Only the
    ladder backend supports branch tracking.  Returns the list of
    PathNode branches and the PortReport.
    """
    if backend != "ladder":
        raise ParameterError("path-resolved runs support the ladder backend only")
    n = seq.order_hint
    ports = (0, n)
    split_after, histories, closing = _branch_plan(seq, split_after)

    qs, wts = dist.nodes(quadrature)
    j_min, j_max = window = ladder.default_j_window(n)
    C, pruned_per_q = ladder.run_sequence(
        qs, ladder.unit_columns(window, len(qs), (0,)), seq.items, cfg, window, rtol=rtol,
        atol=atol, split_after=split_after, classes=range(n + 1))

    pops = np.abs(C) ** 2                                            # (dim, nq, nb)
    branch_mass = np.tensordot(wts, pops.sum(axis=0), axes=(0, 0))   # (nb,)
    port_rows = [p - j_min for p in ports]
    port_mass_b = np.tensordot(wts, pops[port_rows].sum(axis=0), axes=(0, 0))
    tree = [PathNode(history=h, weight=float(branch_mass[b]),
                     port_class_mass=float(port_mass_b[b]),
                     port_coupled_mass=float(branch_mass[b]) if closing[b] else 0.0)
            for b, h in enumerate(histories)]

    # coherent recombination of branches (exact by linearity)
    coherent = _port_probs(wts, C.sum(axis=2), ports, j_min)
    # detector model: only trajectory-closing paths overlap the port spots
    ports_closing = _port_probs(wts, C[:, :, closing].sum(axis=2), ports, j_min)
    report = PortReport(ports={p: coherent[p] for p in ports},
                        undetected=coherent["undetected"],
                        pruned=float(np.dot(wts, pruned_per_q)),
                        meta={"ports_closing": ports_closing})
    return tree, report


def mirror_response(mirror, dist, cfg, quadrature=DEFAULT_GH_NODES, backend="ladder", **kw):
    """Class populations 0..n after the mirror for each prepared input class
    0..n: the rows of the mirror's reflectivity matrix."""
    rec = reflectivity_matrix(mirror, dist, cfg, quadrature=quadrature, backend=backend,
                              **kw)
    return [{"input": cls, "after": {b: float(rec.matrix[cls, b]) for b in rec.classes}}
            for cls in rec.classes]


@dataclass(frozen=True)
class FringeFit:
    offset: float
    contrast: float
    phase: float
    harmonic: int
    max_residual: float


def fit_fringe(phis, values, harmonic):
    """Least-squares single-harmonic fit offset*(1 + contrast*cos(n*phi - phase)); NaN
    but the harmonic from at most 2n phases, where cos and sin of n*phi alias lower
    harmonics or lose rank."""
    phis = np.asarray(phis, dtype=float)
    if len(phis) <= 2 * harmonic:
        return FringeFit(np.nan, np.nan, np.nan, harmonic, np.nan)
    y = np.asarray(values, dtype=float)
    A = np.column_stack([np.ones_like(phis), np.cos(harmonic * phis),
                         np.sin(harmonic * phis)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    a0, ac, as_ = coef
    resid = float(np.max(np.abs(A @ coef - y)))
    amp = float(np.hypot(ac, as_))
    if a0 <= 0:
        return FringeFit(float(a0), 0.0, 0.0, harmonic, resid)
    return FringeFit(float(a0), amp / a0, float(np.arctan2(as_, ac)), harmonic, resid)


def fringe_scan(seq, phi3_grid, dist, cfg, quadrature=DEFAULT_GH_NODES,
                backend="ladder", split_after=(0, 1),
                rtol=ladder.DEFAULT_RTOL, atol=ladder.DEFAULT_ATOL,
                grid_opts=gridprop.GridOptions()):
    """Port probabilities versus the final pulse's lattice phase.

    The grid must span at least 2*pi (as a periodic sampling).  Returns
    the per-phase table and a single-harmonic fit at the 2n-photon
    harmonic (n = sequence order); the fit's max residual quantifies
    multipath distortion.  The fit needs at least 2n + 1 phases and is NaN
    below that.

    split_after sets the detector.  Branches are split after the pulses in
    split_after as in path_resolved_mzi, and the far-field detector sees only
    trajectory-closing paths at the port spots (paths a mirror left
    displaced never reach them).  split_after=() bins the full final state
    by momentum class; it is the only detector of the grid backend, which
    tracks no branches.

    On the ladder backend the phase enters only as a gauge (see the
    ladder module): with Lambda(phi) = diag(e^{i j phi}) and the phase of the
    sequence's first pulse as reference phi_ref,
    U(phi) = Lambda(phi - phi_ref) U(phi_ref) Lambda(phi - phi_ref)^dagger.
    The pulses before the last run once; the branch columns the detector
    adds up are summed by linearity (the unsplit state for
    split_after=()), or kept per history when the last pulse is split
    too; and the gauge-rotated copies for all phases cross the last pulse
    as one batch, by its class block after a split.  The final Lambda does
    not change class populations.  The grid backend, the independent oracle, uses no ladder
    algebra: the items before the last pulse run once on comb rows, then
    one copy of the rows per phase runs the rest, the last pulse with each
    copy's own lattice phase in the potential substep.
    """
    phi3_grid = np.asarray(phi3_grid, dtype=float)
    span = phi3_grid.max() - phi3_grid.min()
    step = span / max(1, len(phi3_grid) - 1)
    if span + step < 2 * np.pi - 1e-9:   # periodic sampling covers a full turn
        raise ParameterError("phi3 grid must span at least 2*pi")
    n = seq.order_hint
    ports = (0, n)
    if backend != "ladder" and split_after:
        raise ParameterError("path-resolved runs support the ladder backend only")
    last = max(i for i, it in enumerate(seq.items) if isinstance(it, Pulse))
    nodes = dist.nodes(quadrature)
    if backend == "ladder":
        port_vals = _ladder_fringe(seq, last, phi3_grid, nodes, cfg, split_after, rtol, atol)
    else:
        port_vals = _grid_fringe(seq, last, phi3_grid, nodes, cfg, grid_opts)
    rows = []
    for k, phi3 in enumerate(phi3_grid):
        vals = {p: float(port_vals[p][k]) for p in ports}
        rows.append({"phi3": float(phi3),
                     **{f"port_{p}": vals[p] for p in ports},
                     "undetected": 1.0 - sum(vals.values())})
    return rows, {p: fit_fringe(phi3_grid, port_vals[p], harmonic=n) for p in ports}


def _grid_fringe(seq, last, phis, nodes, cfg, grid_opts):
    """{port: probabilities at each phase} from one run of the items before the last
    pulse, items[last]; its row k * len(qs) + i is phase k at node i."""
    qs, wts = nodes
    st = gridprop.run_sequence(gridprop.plane_wave(grid_opts.grid.comb, np.zeros(len(qs), int),
                                                   qs), seq.items[:last], cfg, grid_opts)
    st = gridprop.GridState(st.grid, np.tile(st.psi, (len(phis), 1)), np.tile(st.q, len(phis)))
    items = (replace(seq.items[last], phase=np.repeat(phis, len(qs))), *seq.items[last + 1:])
    st = gridprop.run_sequence(st, items, cfg, grid_opts)
    ports = (0, seq.order_hint)
    pops = gridprop.class_masses(st, ports).reshape(len(phis), len(qs), len(ports))
    return {p: pops[:, :, i] @ wts for i, p in enumerate(ports)}


def _ladder_fringe(seq, last, phis, nodes, cfg, split_after, rtol, atol):
    """{port: probabilities at each phase} from one run of the items before items[last]."""
    n = seq.order_hint
    split_after, _, closing = _branch_plan(seq, split_after)
    qs, wts = nodes
    j_min, j_max = window = ladder.default_j_window(n)
    jj = np.arange(j_min, j_max + 1)
    dim, nq, nphi, classes = len(jj), len(qs), len(phis), range(n + 1)
    kw = {"rtol": rtol, "atol": atol, "classes": classes, "blocks": {}}

    C, _ = ladder.run_sequence(qs, ladder.unit_columns(window, nq, (0,)), seq.items[:last],
                               cfg, window, split_after=split_after, **kw)
    if len(seq.pulses) - 1 not in split_after:
        # the detector's branch sum commutes with the last pulse
        C = C[:, :, closing].sum(axis=2, keepdims=True)
        closing = np.ones(n + 1, dtype=bool)

    # one gauge-rotated copy per phase, phase-major along the column axis, about the
    # first pulse's phase: a closing pulse like the opening one reuses its block
    phi_ref = float(seq.pulses[0].phase)
    gauge = np.exp(1j * np.outer(jj, phis - phi_ref))               # (dim, nphi)
    C = (np.conj(gauge)[:, None, :, None] * C[:, :, None, :]).reshape(dim, nq, -1)
    items = (replace(seq.items[last], phase=phi_ref), *seq.items[last + 1:])
    # split after the last pulse too: the ports are classes, so the detected sum is
    # unchanged, and columns confined to classes 0..n cross it by its class block
    C, _ = ladder.run_sequence(qs, C, items, cfg, window, split_after=(0,), **kw)
    C = C.reshape(dim, nq, nphi, len(closing)) * gauge[:, None, :, None]
    pops = np.abs(C[:, :, :, closing].sum(axis=3)) ** 2               # (dim, nq, nphi)
    return {p: wts @ pops[p - j_min] for p in (0, n)}
