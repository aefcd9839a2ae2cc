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

Steps follow a splitting scheme from :mod:`braggsim.splitting`; the
kinetic substep carries the clock, the potential substep is evaluated at
the frozen clock time.  Adaptive stepping controls the embedded pair
estimate per unit time, by default below the scheme's own tol: 1e-10 for
pp56 (the default), 1e-8 for pp34a; pp34a at 1e-8 reproduces 0.1.3.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft

from .errors import ParameterError, StiffnessError
from .pulses import Pulse
from .splitting import PP56, SplittingScheme

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
    """Settings of the split-step backend: grid, scheme, tol > 0 (None: the scheme's)."""

    grid: Grid = Grid()
    scheme: SplittingScheme = PP56
    tol: float = None

    def __post_init__(self):
        if self.tol is None:
            object.__setattr__(self, "tol", self.scheme.tol)
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

    ``step`` applies the scheme's plain member, or with swap_roles the
    role-swapped one.  Both take the same kinetic weights, so each
    exp(-i (k+q)^2 w h) is computed once per step size h, for both.  The
    pulse's phase may be one per row.
    """

    def __init__(self, state, pulse, cfg, scheme):
        state.grid.check_order(pulse.order_hint)
        self.tau, self.W, self.dw, phi = pulse.dimensionless(cfg)
        self.phi = np.reshape(phi, (-1, 1)) if np.ndim(phi) else phi
        self.env = pulse.envelope
        self.members = (scheme.substeps(), scheme.substeps(swap_roles=True))
        k = state.k
        self.k2 = k * k
        x = state.grid.x
        self.cosx = np.cos(x)
        self.sinx = np.sin(x)
        self.h, self.kinetic_factors = None, {}

    def kinetic(self, psi, dt):
        if dt not in self.kinetic_factors:
            self.kinetic_factors[dt] = np.exp(-1j * self.k2 * dt)
        return ifft(fft(psi) * self.kinetic_factors[dt])

    def potential(self, psi, t, dt):
        # V(x,t) = W f (1 + cos(x - dw*t + phi)); f at fraction u = t/tau, mirrored
        # about the nearer edge when u leaves [0, 1]: f's smooth continuation
        u = t / self.tau
        f = self.env.value_frac(min(abs(u), 2.0 - u))
        if f == 0.0 or self.W == 0.0:
            return psi
        theta = self.dw * t - self.phi
        cosshift = self.cosx * np.cos(theta) + self.sinx * np.sin(theta)
        c = self.W * f * dt
        return psi * (np.exp(-1j * c) * np.exp(-1j * c * cosshift))

    def step(self, psi, t, h, swap_roles=False):
        if h != self.h:
            self.h, self.kinetic_factors = h, {}
        clock = t
        for slot, w in self.members[swap_roles]:
            if slot == "A":
                psi = self.kinetic(psi, w * h)
                clock += w * h
            else:
                psi = self.potential(psi, clock, w * h)
        return psi


def propagate_pulse(state, pulse: Pulse, cfg, opts=GridOptions()):
    """Advance a grid state through one pulse with adaptive pair-mean steps.

    opts.tol bounds opts.scheme's pair error estimate per unit dimensionless
    time.  A step ending within 1% of tau ends on it (Hairer's DOPRI rule),
    so no remainder falls below the estimate's roundoff floor.  Raises
    StiffnessError if the controller underflows below tau * 1e-9.
    """
    scheme, tol = opts.scheme, opts.tol
    st = _Stepper(state, pulse, cfg, scheme)
    psi = state.psi.copy()
    t = 0.0
    h = st.tau * (1 / 200)        # first trial step; tau / 200 can round differently
    h_min = st.tau * 1e-9
    expo = 1.0 / (scheme.err_order + 1)
    while t < st.tau:
        if t + 1.01 * h >= st.tau:
            h = st.tau - t
        psi_ab = st.step(psi, t, h)
        psi_ba = st.step(psi, t, h, swap_roles=True)
        d = psi_ab - psi_ba
        err = 0.5 * float(np.linalg.norm(d) if d.ndim == 1 else
                          np.max(np.linalg.norm(d, axis=-1)))
        tol_step = tol * h
        if err <= tol_step:
            psi = 0.5 * (psi_ab + psi_ba)
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


def propagate_pulse_fixed(state, pulse, cfg, scheme=PP56, n_steps=400, run="average"):
    """Fixed-step propagation, forward or exactly reversed.

    run "average" advances the pair mean, "primary" the plain member, and
    "backward" the role-swapped member with step -h, the clock from tau
    down to 0: the exact inverse (to roundoff) of a "primary" pass.
    """
    if run not in ("average", "primary", "backward"):
        raise ParameterError(f"run must be 'average', 'primary' or 'backward', got {run!r}")
    if n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
    st = _Stepper(state, pulse, cfg, scheme)
    psi = state.psi.copy()
    h = st.tau / n_steps
    for i in reversed(range(n_steps)) if run == "backward" else range(n_steps):
        if run == "backward":
            psi = st.step(psi, (i + 1) * h, -h, swap_roles=True)
        elif run == "average":
            psi = 0.5 * (st.step(psi, i * h, h) + st.step(psi, i * h, h, swap_roles=True))
        else:
            psi = st.step(psi, i * h, h)
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
    pulses step with the scheme and tolerance of opts."""
    for item in items:
        if isinstance(item, Pulse):
            state = propagate_pulse(state, item, cfg, opts)
        else:
            state = free_evolve(state, cfg.to_dimensionless(item.duration, "time"))
    return state
