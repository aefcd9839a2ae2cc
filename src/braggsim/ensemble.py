"""Incoherent momentum-spread averaging, class populations and reflectivities.

The atomic cloud is modeled as an incoherent mixture of plane waves drawn
from a momentum distribution; class populations are diagonal in
quasimomentum, so averaging the per-sample populations is exact (a
coherent wavepacket of the same width gives identical class populations,
which the tests verify against the grid backend).

Momenta in this module are in units of hbar*k_eff.  Classes are indexed
on each sample's own comb (class i sits at momentum q + i), matching the
far-field analysis of shifted clouds and keeping the grid and ladder
backends consistent for every quasimomentum.  Grid states are binned by
``gridprop.class_masses`` into [c - 1/2, c + 1/2).

One computation, ``_class_masses``, backs every result here: prepare a
plane wave in input class a on each quadrature momentum, run the pulse or
sequence, read the class populations and weight them over the
distribution.  ``ensemble_average`` is one input row of it and
``reflectivity_matrix`` the square matrix over classes 0..n; it is the
only place that chooses between the ladder and grid backends.

``_class_masses`` propagates only the ladder nodes q >= p_c and fills the
others by the momentum reflection of :mod:`braggsim.ladder` when the
sequence is one pulse of order n resonant at p_c = dist.p0, the quadrature
nodes are symmetric about p_c (a point cloud has nothing to mirror) and the
inputs and classes are closed under c -> n - c (each within 1e-12).
Otherwise, and always on the grid (the independent oracle), it runs the full
batch: on the grid, one state whose rows are every input at every node, on the
one-period ``Grid.comb``, which holds plane waves exactly.  Inputs and classes
must lie in the backend's window: the ladder's truncation window or the grid's
[-nyquist, nyquist).

``robustness_curve`` reads every spread from one response table when that
reflection holds for its widest ladder set: P_{a->b}(q) on [p0, largest
node] at 65 second-kind Chebyshev points, doubled on the nested grid until
the last eighth of the coefficients is below 1e-12 (Aurentz & Trefethen,
ACM TOMS 43, 33 (2017)).  The coefficients of the smooth response fall
geometrically, so the interpolation error is of the order of that tail, below
the solver's own; unresolved at 1025 points, each spread is solved instead.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval

from . import gridprop, ladder
from .errors import ParameterError
from .pulses import Pulse, PulseSequence

DEFAULT_GH_NODES = 41
RESPONSE_TAIL = 1e-12


@dataclass(frozen=True)
class MomentumDistribution:
    """Initial momentum distribution (units hbar*k_eff).

    dp is the standard deviation of the Gaussian, which is the point cloud
    p0 when dp = 0; kind "delta" is that point cloud for any dp.
    """

    kind: str = "gaussian"        # "gaussian" | "delta"
    p0: float = 0.0
    dp: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "delta"):
            raise ParameterError(f"unknown distribution kind {self.kind!r}")
        if self.dp < 0:
            raise ParameterError(f"momentum spread must be nonnegative, got {self.dp}")

    def nodes(self, n=DEFAULT_GH_NODES):
        """(momenta, weights) of the n-node Gauss-Hermite rule, weights summing to 1, less
        the node pairs of weight below 2^-53: no sum near 1 sees them (1.5e-16 of 41)."""
        if n < 1:
            raise ParameterError(f"quadrature size must be >= 1, got {n}")
        if self.kind == "delta" or self.dp == 0.0:
            return np.array([self.p0]), np.array([1.0])
        x, w = np.polynomial.hermite.hermgauss(n)
        w = w / np.sqrt(np.pi)
        keep = (w >= 2.0 ** -53) & (w[::-1] >= 2.0 ** -53)
        return self.p0 + np.sqrt(2.0) * self.dp * x[keep], w[keep]


@dataclass(frozen=True)
class ClassPopulations:
    """Momentum-class probabilities normalized over the requested classes;
    raw holds the unnormalized class masses."""

    probs: dict
    raw: dict

    def __getitem__(self, cls):
        return self.probs.get(cls, 0.0)


def _normalized(raw):
    """ClassPopulations of the class masses raw = {class: mass}."""
    total = sum(raw.values())
    if total <= 0:
        raise ParameterError("no population in the requested classes")
    return ClassPopulations(probs={c: m / total for c, m in raw.items()}, raw=raw)


def class_populations(state, classes):
    """Bin a state's momentum density into classes and normalize.

    Ladder states use |c_j|^2 directly; grid states use
    gridprop.class_masses, which bins |psi(p)|^2 over [c - 1/2, c + 1/2).
    """
    classes = tuple(int(c) for c in classes)
    if isinstance(state, ladder.LadderState):
        return _normalized({c: state.population(c) for c in classes})
    return _normalized(dict(zip(classes, gridprop.class_masses(state, classes).tolist())))


def _sequence_pulses(pulse_or_seq):
    if isinstance(pulse_or_seq, Pulse):
        return PulseSequence((pulse_or_seq,))
    return pulse_or_seq


def _mirror_order(seq, cfg, qs, inputs, classes):
    """The order n when the momentum reflection applies (module docstring), else None."""
    if len(seq.pulses) != 1:
        return None
    n = seq.order_hint
    p_c = (seq.pulses[0].dimensionless(cfg)[2] - n) / 2
    closed = all(n - x in cs for cs in (inputs, classes) for x in cs)
    symmetric = np.all(np.abs(qs + qs[::-1] - 2 * p_c) <= 2e-12)   # so dist.p0 = p_c
    return n if closed and symmetric else None


def _ladder_pops(qs, seq, cfg, j_window, inputs, classes, rtol, atol):
    """Populations (len(inputs), len(qs), len(classes)) after one ladder batch.  When every
    class is an input, it splits onto the inputs after the last pulse, which the runner
    may cross by a class block; the split columns hold one row each and sum back exactly."""
    split = (len(seq.pulses) - 1,) if set(classes) <= set(inputs) else ()
    c, _ = ladder.run_sequence(qs, ladder.unit_columns(j_window, len(qs), inputs), seq.items,
                               cfg, j_window, rtol=rtol, atol=atol, split_after=split,
                               classes=inputs)
    c = c.reshape(*c.shape[:2], len(inputs), -1).sum(axis=3)
    return np.abs(c[[cls - j_window[0] for cls in classes]].T) ** 2


def _weigh(pops, wts, n, inputs, classes):
    """Weight per-node populations pops (inputs, nodes, classes) over the
    distribution; when pops holds the last nodes only, the first ones are
    their reflections P_{a->b}(q_k) = P_{n-a->n-b}(q_{nq-1-k}) about order n."""
    h = len(wts) - pops.shape[1]
    if h:
        flip_in, flip_cl = ([cs.index(n - x) for x in cs] for cs in (inputs, classes))
        low = pops[flip_in][:, ::-1][:, :h][:, :, flip_cl]
        pops = np.concatenate([low, pops], axis=1)
    return np.tensordot(wts, pops, axes=(0, 1))


def backend_window(order, classes, backend, grid_opts):
    """The backend's class window for this order, (lowest, highest); ParameterError
    for classes outside it or a grid whose Nyquist margin cannot resolve the order."""
    if backend not in ("ladder", "grid"):
        raise ParameterError(f"unknown backend {backend!r}; use 'ladder' or 'grid'")
    nyq = int(grid_opts.grid.nyquist)
    j_window = ladder.default_j_window(order) if backend == "ladder" else (-nyq, nyq - 1)
    outside = sorted({c for c in classes if not j_window[0] <= c <= j_window[1]})
    if outside:
        raise ParameterError(f"classes {outside} outside the {backend} window {j_window}")
    if backend == "grid":
        grid_opts.grid.check_order(order)
    return j_window


def _class_masses(seq, dist, cfg, inputs, classes, quadrature, backend, rtol, atol,
                  grid_opts):
    """(distribution-weighted class populations, shape (len(inputs), len(classes)),
    norm drift).

    Row a is the cloud prepared in class inputs[a]; column b is its mass
    ending in class classes[b].  The ladder propagates every momentum and
    input as one batch on the window of the sequence's order; the grid
    propagates them as the rows of one state on the comb grid, and the norm
    drift is their largest |norm - 1| (None on the ladder).
    """
    j_window = backend_window(seq.order_hint, (*inputs, *classes), backend, grid_opts)
    qs, wts = dist.nodes(quadrature)
    n = drift = None
    if backend == "ladder":
        n = _mirror_order(seq, cfg, qs, inputs, classes)
        h = 0 if n is None else len(qs) // 2
        pops = _ladder_pops(qs[h:], seq, cfg, j_window, inputs, classes, rtol, atol)
    else:   # row a * len(qs) + k is input a at node k
        rows = gridprop.plane_wave(grid_opts.grid.comb, np.repeat(inputs, len(qs)),
                                   np.tile(qs, len(inputs)))
        st = gridprop.run_sequence(rows, seq.items, cfg, grid_opts)
        pops = gridprop.class_masses(st, classes).reshape(len(inputs), len(qs), len(classes))
        drift = float(np.max(np.abs(np.linalg.norm(st.psi, axis=-1) - 1.0)))
    return _weigh(pops, wts, n, inputs, classes), drift


def ensemble_average(pulse_or_seq, dist, cfg, classes=None,
                     quadrature=DEFAULT_GH_NODES, backend="ladder", rtol=ladder.DEFAULT_RTOL,
                     atol=ladder.DEFAULT_ATOL, grid_opts=gridprop.GridOptions()):
    """Average class populations over the momentum distribution, for the
    cloud prepared in class 0, on `quadrature` Gauss-Hermite nodes."""
    seq = _sequence_pulses(pulse_or_seq)
    classes = tuple(range(seq.order_hint + 1) if classes is None else classes)
    masses = _class_masses(seq, dist, cfg, (0,), classes, quadrature, backend,
                           rtol, atol, grid_opts)[0][0]
    return _normalized({c: float(m) for c, m in zip(classes, masses)})


@dataclass(frozen=True)
class ReflectivityRecord:
    """Momentum-class transfer matrix for one mirror pulse and spread.

    matrix[a][b] = normalized probability of ending in class b for a
    cloud prepared in class a; pair reflectivities are reported both
    per-direction and direction-averaged.  norm_drift is the largest
    |norm - 1| of the grid rows behind it (None on the ladder).
    """

    classes: tuple
    matrix: np.ndarray        # normalized, shape (n+1, n+1)
    raw_matrix: np.ndarray
    norm_drift: float | None = None

    def pair(self, a, b):
        """Direction-averaged pair reflectivity (P(a->b) + P(b->a)) / 2."""
        return 0.5 * (self.matrix[a, b] + self.matrix[b, a])

    def pair_directional(self, a, b):
        return self.matrix[a, b], self.matrix[b, a]


def _reflectivity(classes, raw, norm_drift=None):
    norm = raw.sum(axis=1, keepdims=True)
    if np.any(norm <= 0):
        raise ParameterError("an input class lost all population from the class set")
    return ReflectivityRecord(classes, raw / norm, raw, norm_drift)


def reflectivity_matrix(mirror, dist, cfg, order=None, quadrature=DEFAULT_GH_NODES,
                        backend="ladder", rtol=ladder.DEFAULT_RTOL,
                        atol=ladder.DEFAULT_ATOL, grid_opts=gridprop.GridOptions()):
    """Reflectivity matrix over classes 0..n for one mirror pulse.

    Each input class a is prepared as the distribution shifted by a; the
    same pulse is applied to all inputs.
    """
    n = mirror.order_hint if order is None else order
    classes = tuple(range(n + 1))
    return _reflectivity(classes, *_class_masses(_sequence_pulses(mirror), dist, cfg, classes,
                                                 classes, quadrature, backend, rtol, atol,
                                                 grid_opts))


def _response_table(seq, p_c, width, cfg, n, rtol, atol):
    """(Chebyshev coefficients (points, a, b) of P_{a->b}(q) on [p_c, p_c + width],
    the largest of their last eighth): 65 second-kind points, doubled onto the
    nested grid until that tail is below RESPONSE_TAIL or 1025 points hold it."""
    classes, window = tuple(range(n + 1)), ladder.default_j_window(n)
    qs = p_c + width * (1 + np.cos(np.pi * np.arange(1025) / 1024)) / 2
    pops = np.empty((n + 1, len(qs), n + 1))
    new = slice(None, None, 16)     # each grid is every stride-th point of the finest
    for stride in (16, 8, 4, 2, 1):
        pops[:, new] = _ladder_pops(qs[new], seq, cfg, window, classes, classes, rtol, atol)
        m = 1024 // stride
        x = pops[:, ::stride]       # DCT-I: the real FFT of the even extension
        coeffs = np.fft.rfft(np.concatenate([x, x[:, -2:0:-1]], axis=1), axis=1).real / m
        coeffs[:, [0, m]] /= 2
        tail = float(np.max(np.abs(coeffs[:, -(m // 8):])))
        if tail < RESPONSE_TAIL:
            break
        new = slice(stride // 2, None, stride)
    return coeffs.transpose(1, 0, 2), tail


def robustness_curve(mirror, dp_grid, cfg, p0=0.0, quadrature=DEFAULT_GH_NODES,
                     backend="ladder", rtol=ladder.DEFAULT_RTOL, atol=ladder.DEFAULT_ATOL,
                     grid_opts=gridprop.GridOptions()):
    """(records, stats): one ReflectivityRecord per momentum spread in dp_grid
    (ascending) of a cloud centred on p0 (hbar*k_eff), and how they were made.

    The records come from the response table (module docstring) when the
    reflection holds and the table resolves; otherwise each is one
    reflectivity_matrix call.  stats: response_points (the table's size, 0
    without it), response_tail and quasimomenta_propagated.
    """
    dp_grid = list(dp_grid)
    if not dp_grid or any(b < a for a, b in zip(dp_grid, dp_grid[1:])):
        raise ParameterError("dp grid must be nonempty and ascending")
    seq = _sequence_pulses(mirror)
    n = seq.order_hint
    classes = tuple(range(n + 1))
    dists = [MomentumDistribution(p0=p0, dp=float(dp)) for dp in dp_grid]
    nodes = [d.nodes(quadrature) for d in dists]
    width = nodes[-1][0].max() - p0     # the widest spread's nodes hold every other's
    mirrored = backend == "ladder" and _mirror_order(seq, cfg, nodes[-1][0], classes,
                                                     classes) is not None
    coeffs, tail = (_response_table(seq, p0, width, cfg, n, rtol, atol)
                    if mirrored and width > 0 else ((), 0.0))
    if len(coeffs) and tail < RESPONSE_TAIL:
        records = [_reflectivity(classes, _weigh(
            chebval(2 * (qs[len(qs) // 2:] - p0) / width - 1, coeffs).transpose(0, 2, 1),
            wts, n, classes, classes)) for qs, wts in nodes]
        return records, {"response_points": len(coeffs), "response_tail": tail,
                         "quasimomenta_propagated": len(coeffs)}
    records = [reflectivity_matrix(mirror, d, cfg, quadrature=quadrature,
                                   backend=backend, rtol=rtol, atol=atol, grid_opts=grid_opts)
               for d in dists]
    solved = sum(len(qs) - len(qs) // 2 * mirrored for qs, _ in nodes)
    return records, {"response_points": 0, "response_tail": tail,
                     "quasimomenta_propagated": len(coeffs) + solved}
