"""Split-step Fourier propagation on a real-space grid.

The wavefunction is stored as the periodic part u(x) of
psi(x) = exp(i*q*x) u(x), with q the quasimomentum offset in units of
hbar*k_eff and x in units of 1/k_eff (lattice period 2*pi).  The kinetic
factor then uses (k + q)^2 on the FFT wavenumber comb k = m/num_periods,
and any q can be propagated on the same grid.

A state may hold rows: psi of shape (rows, num_points) with q one offset
per row, so that many plane-wave inputs and quasimomenta advance in one
array and one FFT per substep.  The rows share the adaptive steps, which
the largest row error sets; a 1-D state is one row and keeps the plain
vector norm.  A plane wave occupies every num_periods-th mode only, so
``Grid.comb`` (one period, the same Nyquist window) carries it exactly.

Steps follow the one splitting, pp56 of :mod:`braggsim.splitting`, 16
substeps per step; the kinetic substep carries the clock, the potential
substep is evaluated at the frozen clock time.  The pair's two members
advance in lockstep as one array, one FFT pair per kinetic substep for
both, from per-step tables of kinetic and potential factors.  Adaptive
stepping controls the embedded pair estimate per unit time, by default
below tol 1e-10.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft

from .errors import ParameterError, StiffnessError
from .pulses import Pulse
from .splitting import PP56

DEFAULT_NUM_POINTS = 512
DEFAULT_NUM_PERIODS = 8


@dataclass(frozen=True)
class Grid:
    """Periodic spatial grid spanning an integer number of lattice periods."""

    num_points: int = DEFAULT_NUM_POINTS
    num_periods: int = DEFAULT_NUM_PERIODS

    def __post_init__(self):
        n = self.num_points
        if n < 4 or (n & (n - 1)) != 0:
            raise ParameterError(f"num_points must be a power of two >= 4, got {n}")
        if self.num_periods < 1 or n % self.num_periods or n // self.num_periods < 4:
            raise ParameterError(f"num_periods must divide num_points into >= 4 points "
                                 f"per period, got {self.num_periods} for {n}")

    @property
    def length(self):
        return 2 * np.pi * self.num_periods

    @property
    def x(self):
        return np.arange(self.num_points) * (self.length / self.num_points)

    @property
    def k(self):
        """FFT-ordered wavenumbers in units of k_eff (momentum comb spacing
        1/num_periods)."""
        return np.fft.fftfreq(self.num_points, d=self.length / self.num_points) * 2 * np.pi

    @property
    def nyquist(self):
        """Largest resolvable |momentum| in hbar*k_eff."""
        return self.num_points / (2 * self.num_periods)

    @property
    def comb(self):
        """The one-period grid with this grid's Nyquist window (plane waves only)."""
        return Grid(self.num_points // self.num_periods, 1)

    def check_order(self, order):
        """Nyquist margin rule: resolve classes up to order + 4."""
        if self.nyquist <= order + 4:
            raise ParameterError(
                f"grid Nyquist momentum {self.nyquist} hbar*k_eff cannot resolve "
                f"order {order} with margin 4; increase num_points or decrease num_periods")


@dataclass(frozen=True)
class GridOptions:
    """Settings of the split-step backend: grid and tol > 0."""

    grid: Grid = Grid()
    tol: float = PP56.tol

    def __post_init__(self):
        if self.tol <= 0:
            raise ParameterError(f"tol must be positive, got {self.tol}")


@dataclass
class GridState:
    """Periodic amplitude array plus quasimomentum offset, or rows of both."""

    grid: Grid
    psi: np.ndarray            # complex, (num_points,) or (rows, num_points), unit rows
    q: float = 0.0             # hbar*k_eff; an array of one offset per row

    @property
    def k(self):
        """Kinetic wavenumbers k + q, one row per row of psi."""
        return self.grid.k + np.asarray(self.q)[..., None]


def plane_wave(grid, j=0, q=0.0):
    """Plane wave at momentum q + j (hbar*k_eff), unit norm; arrays j and q
    give one row per entry."""
    psi = np.exp(1j * np.multiply.outer(j, grid.x)) / np.sqrt(grid.num_points)
    return GridState(grid, psi.astype(complex), q=np.asarray(q, float) if np.ndim(q) else float(q))


def class_masses(state, classes):
    """Probability in each class's bin [c - 1/2, c + 1/2) on the state's
    comb, shape (rows, len(classes)) (1-D for a 1-D state)."""
    pk = np.abs(fft(state.psi)) ** 2
    pk /= pk.sum(axis=-1, keepdims=True)
    jj = np.floor(state.grid.k + 0.5)
    return np.array([pk[..., jj == c].sum(axis=-1) for c in classes]).T


def momentum_populations(state):
    """Probabilities on the exact comb modes q + j of the state, per class
    j, and the mass off the comb under key "offcomb"; ``class_masses`` bins
    the whole grid instead."""
    k = state.grid.k
    jj = np.floor(k + 0.5).astype(int)
    pk = np.abs(fft(state.psi)) ** 2
    pk /= pk.sum()
    on = np.abs(k - np.round(k)) < 1e-9
    out = {int(j): float(pk[on & (jj == j)].sum()) for j in np.unique(jj[on])}
    out["offcomb"] = float(pk[~on].sum())
    return out


class _Stepper:
    """One pulse's splitting substeps on one grid, after the Nyquist check.

    Member 0 is pp56's plain member, member 1 the role-swapped one; the
    scheme argument is a test seam.
    ``kinetic_table`` and ``potential_table`` build a step's A and B factors
    in one numpy call each.  ``pair`` advances both members in lockstep on one
    (2, *psi.shape) array, one fft/ifft per A substep; ``member`` runs one.
    Rows that share one q share one kinetic row; the phase may be one per row.
    """

    def __init__(self, state, pulse, cfg, scheme=PP56):
        state.grid.check_order(pulse.order_hint)
        self.tau, self.W, self.dw, phi = pulse.dimensionless(cfg)
        self.phi = np.reshape(phi, (-1, 1)) if np.ndim(phi) else phi
        self.env = pulse.envelope
        self.a = scheme.a
        self.slots = [[slot for slot, _ in scheme.substeps(r)] for r in (False, True)]
        self.axes = (-1,) + (1,) * state.psi.ndim      # a substep axis before psi's
        k2 = state.k * state.k
        self.k2 = k2[:1] if k2.ndim > 1 and (k2 == k2[0]).all() else k2
        self.cosx, self.sinx = np.cos(state.grid.x), np.sin(state.grid.x)
        self.h = None

    def kinetic_table(self, h):
        """exp(-i (k+q)^2 a_i h), cached per h: [i, 0] the plain member's i-th
        A factor, [i, 1] the swapped member's, whose A weights are reversed(a);
        then psi's axes, with one row if the rows share one q."""
        if h != self.h:
            k = np.exp((-1j * self.k2) * np.multiply(self.a, h).reshape(self.axes))
            self.h, self.kin = h, np.stack((k, k[::-1]), axis=1)
        return self.kin

    def potential_table(self, t, h, member=None):
        """B factors at the frozen clock times, one per substep on axis 0: of
        member 0 or 1 in its order, or with member None of both in lockstep
        order, swapped B_1, plain B_1, swapped B_2, ..., swapped B_s, plain B_s."""
        ws = [w * h for w in self.a]
        subs, plain, swapped = ([], []), t, t          # (clock, substep length)
        for w, v in zip(ws, reversed(ws)):
            plain += w
            subs[0].append((plain, v))
            subs[1].append((swapped, w))
            swapped += v
        subs = [s for two in zip(subs[1], subs[0]) for s in two] if member is None \
            else subs[member]
        # V(x,t) = W f (1 + cos(x - dw*t + phi)); f at fraction u = t/tau, mirrored
        # about the nearer edge when u leaves [0, 1]: f's smooth continuation
        f = [self.env.value_frac(min(abs(u), 2.0 - u)) for u in (c / self.tau for c, _ in subs)]
        clock, dt = np.array(subs).T.reshape((2, *self.axes))
        theta = self.dw * clock - self.phi
        cosshift = self.cosx * np.cos(theta) + self.sinx * np.sin(theta)
        c = self.W * np.reshape(f, self.axes) * dt
        return np.exp(-1j * c) * np.exp(-1j * c * cosshift)

    def pair(self, psi, t, h):
        """Both members' steps from psi, plain then role-swapped on axis 0."""
        kin, pot = self.kinetic_table(h), self.potential_table(t, h)
        two = np.stack((psi, psi * pot[0]))            # the swapped member's B_1 alone
        for i, k in enumerate(kin):                    # A weights a_i and a_{s+1-i} cross
            two = ifft(fft(two) * k)
            if 2 * i + 2 < len(pot):
                two *= pot[2 * i + 1:2 * i + 3]        # plain B_i beside swapped B_{i+1}
        two[0] *= pot[-1]                              # the plain member's B_s alone
        return two

    def member(self, psi, t, h, m):
        """Member m's step from psi: 0 the plain, 1 the role-swapped."""
        kin, pot = iter(self.kinetic_table(h)[:, m]), iter(self.potential_table(t, h, m))
        for slot in self.slots[m]:
            psi = ifft(fft(psi) * next(kin)) if slot == "A" else psi * next(pot)
        return psi


def propagate_pulse(state, pulse: Pulse, cfg, opts=GridOptions()):
    """Advance a grid state through one pulse with adaptive pair-mean steps.

    opts.tol bounds the pair error estimate per unit dimensionless time.  A
    step ending within 1% of tau ends on it (Hairer's DOPRI rule), so no
    remainder falls below the estimate's roundoff floor.  Raises
    StiffnessError if the controller underflows below tau * 1e-9.
    """
    tol = opts.tol
    st = _Stepper(state, pulse, cfg)
    psi = state.psi.copy()
    t = 0.0
    h = st.tau * (1 / 200)        # first trial step; tau / 200 can round differently
    h_min = st.tau * 1e-9
    expo = 1.0 / (PP56.err_order + 1)
    while t < st.tau:
        if t + 1.01 * h >= st.tau:
            h = st.tau - t
        two = st.pair(psi, t, h)
        d = two[0] - two[1]
        err = 0.5 * float(np.linalg.norm(d) if d.ndim == 1 else
                          np.max(np.linalg.norm(d, axis=-1)))
        tol_step = tol * h
        if err <= tol_step:
            psi = 0.5 * (two[0] + two[1])
            t += h
        if err > 0:
            h *= min(5.0, max(0.2, 0.9 * (tol_step / err) ** expo))
        else:
            h *= 5.0
        if h < h_min and t < st.tau:
            raise StiffnessError(
                "step size underflow in split-step propagation",
                context={"t": t, "tau": st.tau, "h": h, "tol": tol,
                         "rabi_peak": pulse.rabi_peak, "duration": pulse.duration})
    return GridState(state.grid, psi, state.q)


def propagate_pulse_fixed(state, pulse, cfg, n_steps=400, run="average"):
    """Fixed-step propagation, forward or exactly reversed.

    run "average" advances the pair mean, "primary" the plain member, and
    "backward" the role-swapped member with step -h, the clock from tau
    down to 0: the exact inverse (to roundoff) of a "primary" pass.
    """
    if run not in ("average", "primary", "backward"):
        raise ParameterError(f"run must be 'average', 'primary' or 'backward', got {run!r}")
    if n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
    st = _Stepper(state, pulse, cfg)
    psi = state.psi.copy()
    h = st.tau / n_steps
    for i in reversed(range(n_steps)) if run == "backward" else range(n_steps):
        if run == "backward":
            psi = st.member(psi, (i + 1) * h, -h, 1)
        elif run == "average":
            two = st.pair(psi, i * h, h)
            psi = 0.5 * (two[0] + two[1])
        else:
            psi = st.member(psi, i * h, h, 0)
    return GridState(state.grid, psi, state.q)


def free_evolve(state, T):
    """Exact lattice-off evolution for a dimensionless time T, the kinetic
    factor exp(-i (k+q)^2 T)."""
    if T < 0:
        raise ParameterError(f"free evolution must be nonnegative, got {T}")
    k = state.k
    psi = ifft(fft(state.psi) * np.exp(-1j * k * k * T)) if T else state.psi.copy()
    return GridState(state.grid, psi, state.q)


def run_sequence(state, items, cfg, opts):
    """Grid state after the pulses and free evolutions of a sequence's items;
    pulses step with the tolerance of opts."""
    for item in items:
        if isinstance(item, Pulse):
            state = propagate_pulse(state, item, cfg, opts)
        else:
            state = free_evolve(state, cfg.to_dimensionless(item.duration, "time"))
    return state
