"""Momentum-ladder propagator: the reference backend.

The split-step grid (:mod:`braggsim.gridprop`) is the independent oracle
it is checked against.

For quasimomentum q (conserved by the lattice) the state lives on the
discrete comb p = q + j, j integer, in units of hbar*k_eff.  The coupled
amplitudes obey, in lattice-recoil units,

    i dc_j/dt = [(q+j)^2 + W f(t)] c_j
                + (W f(t)/2) [e^{-i(dw*t - phi)} c_{j-1}
                              + e^{+i(dw*t - phi)} c_{j+1}],

with W the peak two-photon Rabi frequency and dw the beam frequency
difference.  The raising matrix element <j+1|H|j> carries
e^{-i(dw*t - phi)}.

Integration runs in the interaction picture of the static
kinetic diagonal (c_j = e^{-i(q+j)^2 t} a_j), an exact reformulation that
removes the fastest phases; the oscillating lattice coupling itself is
integrated directly (no co-moving or rotating-wave transformation).  The
dense bare-frame ``ladder_hamiltonian`` is the reference the tests
integrate this right-hand side against.

The lattice phase is a gauge.  With Lambda(phi) = diag(e^{i j phi}) on the
window, H(phi) = Lambda(phi) H(0) Lambda(phi)^dagger (the raising element
picks up e^{i(j+1)phi} e^{-i j phi} = e^{i phi}), so the pulse propagator
obeys

    U(phi) = Lambda(phi - phi_ref) U(phi_ref) Lambda(phi - phi_ref)^dagger

for any reference phase.  This is the co-moving-frame statement of Siemß
et al., PRA 102, 033709 (2020); it is exact on the truncated window.  A
phase scan therefore propagates the gauge-rotated inputs
Lambda^dagger c0 once, at the reference phase, as columns of one batch.
Lambda is diagonal with unit-modulus entries, so the final Lambda leaves
every class population unchanged and commutes with free evolution and
with projections onto classes.

Momentum reflection about the resonant momentum p_c is exact too.  For a
pulse of order n with dw = n + 2 p_c, j -> n - j, q -> 2 p_c - q shifts
the co-moving diagonal (q+j)^2 - j*dw by a constant, conjugates the
coupling (phi -> -phi, a gauge) and maps the window [-(n+4), 2n+4] onto
itself, so for any envelope one pulse gives
P_{a->b}(p_c + d) = P_{n-a->n-b}(p_c - d).  The relative phases of
several pulses flip sign, so a sequence does not.

The stepper is the module's own ``solve_ivp``: scipy's DOP853 operation for
operation, so bitwise equal to it, without dense output or a scipy import.
"""
from __future__ import annotations

from dataclasses import dataclass

from types import SimpleNamespace

import numpy as np

from .errors import IntegrationError, ParameterError
from .pulses import FreeEvolution, Pulse, PulseSequence

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12

# DOP853 tableau of Hairer, Norsett & Wanner, Solving Ordinary Differential Equations I
# (2nd ed. 1993), Sec. II.10, as in scipy's integrate/_ivp/dop853_coefficients.py (BSD).
# _A is filled row by row below the diagonal; _E5 and _E3 also weight f(t + h, y_new).
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
_A = np.zeros((12, 12))
_A[np.tril_indices(12, -1)] = [
    0.05260015195876773, 0.0197250569845379, 0.0591751709536137, 0.02958758547680685, 0,
    0.08876275643042054, 0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242, 0.037109375, 0,
    0, 0.17025221101954405, 0.06021653898045596, -0.017578125, 0.03709200011850479, 0, 0,
    0.17038392571223998, 0.10726203044637328, -0.015319437748624402, 0.008273789163814023,
    0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996, 0.47766253643826434, 0, 0, -2.4881146199716677,
    -0.590290826836843, 21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627, -0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
    -3.0467644718982196, 2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
    12.360567175794303, 0.6433927460157636]
_B = np.array([0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
               -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
               0.20136540080403034, 0.04471061572777259])
_E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
                1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
                0.08192320648511571, -0.022355307863886294, 0])
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]


def solve_ivp(fun, t_span, y0, method="DOP853", *, rtol, atol, first_step, max_step=np.inf):
    """Integrate y' = fun(t, y) over t_span = (t0, t1), t1 > t0, by DOP853 with scipy's
    step control; the result holds the end state as the one column of ``y``, ``t = [t1]``,
    ``nfev`` (1 + 12 per attempted step), ``naccepted``, ``nrejected``, ``message`` and
    ``success``, False once the step is below the float spacing at t (a NaN derivative)."""
    if method != "DOP853":
        raise ParameterError(f"the ladder stepper is DOP853, not {method!r}")
    t, t1 = map(float, t_span)
    y, f, h_abs, acc, rej, ok = y0, fun(t, y0), first_step, 0, 0, True
    rtol, K = max(rtol, 100 * np.finfo(float).eps), np.empty((13, len(y0)), dtype=complex)
    while ok and t < t1:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs, rejected = min(max(h_abs, min_step), max_step), False
        while ok := h_abs >= min_step:
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs, K[0] = np.abs(h), f
            for s in range(1, 12):
                K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:12].T, _B)
            K[12] = f_new = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5 = np.linalg.norm(np.dot(K.T, _E5) / scale) ** 2
            e3 = np.linalg.norm(np.dot(K.T, _E3) / scale) ** 2
            err = np.abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * len(scale)) if e5 or e3 else 0.0
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                t, y, f, acc = t_new, y_new, f_new, acc + 1
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected, rej = True, rej + 1
    return SimpleNamespace(t=np.array([t]), y=y[:, None], nfev=1 + 12 * (acc + rej),
                           naccepted=acc, nrejected=rej, success=ok,
                           message="" if ok else "step size below the float spacing at t")


def default_j_window(order):
    """Truncation window [-(n+4), 2n+4] covering classes 0..n with margin."""
    return -(order + 4), 2 * order + 4


@dataclass
class LadderState:
    """Amplitudes c_j on the momentum comb q + j, j in [j_min, j_max]."""

    q: float
    j_min: int
    j_max: int
    amps: np.ndarray

    def __post_init__(self):
        if self.j_max <= self.j_min:
            raise ParameterError("empty ladder window")
        if len(self.amps) != self.dim:
            raise ParameterError(f"amplitude vector has length {len(self.amps)}, "
                                 f"window needs {self.dim}")

    @property
    def dim(self):
        return self.j_max - self.j_min + 1

    @property
    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def population(self, j):
        if not self.j_min <= j <= self.j_max:
            return 0.0
        return float(np.abs(self.amps[j - self.j_min]) ** 2)


def ladder_state(cls=0, q=0.0, order=None, j_window=None):
    """Unit-population state in class `cls` with a default or explicit window."""
    if j_window is None:
        j_window = default_j_window(order if order is not None else max(1, cls))
    j_min, j_max = j_window
    if not j_min <= cls <= j_max:
        raise ParameterError(f"class {cls} outside window [{j_min}, {j_max}]")
    amps = np.zeros(j_max - j_min + 1, dtype=complex)
    amps[cls - j_min] = 1.0
    return LadderState(float(q), j_min, j_max, amps)


def unit_columns(j_window, nq, classes):
    """Amplitudes of shape (dim, nq, len(classes)): column k is unit population
    in class classes[k] at every quasimomentum."""
    j_min, j_max = j_window
    c = np.zeros((j_max - j_min + 1, nq, len(classes)), dtype=complex)
    for col, cls in enumerate(classes):
        c[cls - j_min, :, col] = 1.0
    return c


def ladder_hamiltonian(q, pulse, cfg, t, j_window):
    """Dense Hermitian ladder Hamiltonian at dimensionless time t.

    Diagonal (q+j)^2 + W f(t); couplings W f(t)/2 with the phase
    convention stated in the module docstring.  t may lie outside the
    pulse, where the envelope is zero.
    """
    tau, W, dw, phi = pulse.dimensionless(cfg.units())
    j_min, j_max = j_window
    j = np.arange(j_min, j_max + 1)
    f = pulse.envelope.value_frac(t / tau)
    H = np.zeros((len(j), len(j)), dtype=complex)
    np.fill_diagonal(H, (q + j) ** 2 + W * f)
    raising = 0.5 * W * f * np.exp(-1j * (dw * t - phi))
    idx = np.arange(len(j) - 1)
    H[idx + 1, idx] = raising
    H[idx, idx + 1] = np.conj(raising)
    return H


def propagate_batch(qs, c0, pulse, cfg, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                    j_window=None):
    """Propagate amplitudes c0 of shape (dim, nq, ni) through one pulse.

    qs has shape (nq,); all quasimomenta share one integration (their
    dynamics are independent, the batching only amortizes solver
    overhead).  Returns the bare-frame amplitudes at the end of the
    pulse.  The solver restarts at each of the envelope's breakpoints, so
    no step straddles a jump in a tabulated envelope's derivatives.
    """
    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    if j_window is None:
        j_window = default_j_window(pulse.order_hint)
    j_min, j_max = j_window
    j = np.arange(j_min, j_max + 1)
    dim, nq, ni = c0.shape
    if dim != len(j) or nq != len(qs):
        raise ParameterError("c0 shape does not match window/quasimomentum batch")
    tau, W, dw, phi = pulse.dimensionless(cfg.units())
    env = pulse.envelope.scalar
    K = (qs[None, :] + j[:, None]) ** 2          # (dim, nq)
    eiphi = complex(np.exp(1j * phi))

    if W == 0.0:
        out = c0 * np.exp(-1j * K * tau)[:, :, None]
        return out

    wbond = (K[1:] - K[:-1]) - dw                # (dim-1, nq) bond j -> j+1

    def rhs(t, y):
        a = y.reshape(dim, nq, ni)
        f = env(t / tau)
        P = np.exp(1j * (t * wbond)) * eiphi
        da = np.empty_like(a)
        da[1:] = P[:, :, None] * a[:-1]
        da[0] = 0.0
        da[:-1] += np.conj(P)[:, :, None] * a[1:]
        da += 2.0 * a
        da *= -0.5j * (W * f)
        return da.ravel()

    y = np.ascontiguousarray(c0).ravel()
    edges = [u * tau for u in pulse.envelope.breakpoints]
    for t0, t1 in zip(edges, edges[1:]):
        sol = solve_ivp(rhs, (t0, t1), y, method="DOP853", rtol=rtol, atol=atol,
                        first_step=min(tau / 1000, t1 - t0), max_step=tau / 50)
        if not sol.success:
            raise IntegrationError(f"ladder integration failed: {sol.message}",
                                   context={"tau": tau, "rabi_peak": pulse.rabi_peak})
        y = sol.y[:, -1]
    return y.reshape(dim, nq, ni) * np.exp(-1j * K * tau)[:, :, None]


def integrate_ladder(state, pulse, cfg, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Advance one LadderState through a pulse."""
    c0 = state.amps.reshape(state.dim, 1, 1)
    c = propagate_batch(np.array([state.q]), c0, pulse, cfg, rtol=rtol, atol=atol,
                        j_window=(state.j_min, state.j_max))
    return LadderState(state.q, state.j_min, state.j_max, c[:, 0, 0])


def run_sequence(qs, c, items, cfg, j_window, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                 after_pulse=None):
    """Amplitudes of shape (dim, nq, ncol) after pulses and free evolutions.

    Every column goes through the same items; pulses propagate as one
    batch.  after_pulse(k, c), if given, is called after the k-th pulse of
    `items` (0-based) and returns the amplitudes to continue with, which
    may have a different number of columns (path-resolved runs split
    branches there).
    """
    j = np.arange(j_window[0], j_window[1] + 1)
    units = cfg.units()
    k = -1
    for item in items:
        if isinstance(item, Pulse):
            k += 1
            c = propagate_batch(qs, c, item, cfg, rtol=rtol, atol=atol, j_window=j_window)
            if after_pulse is not None:
                c = after_pulse(k, c)
        elif isinstance(item, FreeEvolution):
            T_t = units.to_dimensionless(item.duration, "time")
            K = (qs[None, :] + j[:, None]) ** 2
            c = c * np.exp(-1j * K * T_t)[:, :, None]
        else:
            raise ParameterError(f"unknown sequence item {type(item)}")
    return c


def propagate_sequence(state, seq: PulseSequence, cfg, rtol=DEFAULT_RTOL,
                       atol=DEFAULT_ATOL):
    """Run a full pulse sequence on one ladder state (a 1x1 run_sequence batch)."""
    c = run_sequence(np.array([state.q]), state.amps.reshape(state.dim, 1, 1), seq.items,
                     cfg, (state.j_min, state.j_max), rtol=rtol, atol=atol)
    return LadderState(state.q, state.j_min, state.j_max, c[:, 0, 0])


@dataclass(frozen=True)
class TruncationReport:
    max_population_change: float
    passes: bool


def truncation_check(state, pulse, cfg, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Re-run with the window widened by 2 classes on both sides; report the
    change.

    Passes when no class population moves by more than 1e-8.
    """
    base = integrate_ladder(state, pulse, cfg, rtol=rtol, atol=atol)
    wide_min, wide_max = state.j_min - 2, state.j_max + 2
    amps = np.zeros(wide_max - wide_min + 1, dtype=complex)
    amps[state.j_min - wide_min:state.j_max - wide_min + 1] = state.amps
    wide0 = LadderState(state.q, wide_min, wide_max, amps)
    wide = integrate_ladder(wide0, pulse, cfg, rtol=rtol, atol=atol)
    changes = [abs(base.population(j) - wide.population(j))
               for j in range(state.j_min, state.j_max + 1)]
    outer = sum(wide.population(j) for j in list(range(wide_min, state.j_min))
                + list(range(state.j_max + 1, wide_max + 1)))
    max_change = max(max(changes), outer)
    return TruncationReport(max_population_change=float(max_change),
                            passes=bool(max_change < 1e-8))
