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
estimate of the scheme per unit time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft

from .errors import ParameterError, StiffnessError
from .pulses import Pulse
from .splitting import PP34A, SplittingScheme

DEFAULT_NUM_POINTS = 512
DEFAULT_NUM_PERIODS = 8
DEFAULT_TOL = 1e-8          # error estimate per unit dimensionless time


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
    """Settings of the split-step backend: grid, splitting scheme, step tolerance."""

    grid: Grid = Grid()
    scheme: SplittingScheme = PP34A
    tol: float = DEFAULT_TOL


@dataclass
class GridState:
    """Periodic amplitude array plus quasimomentum offset, or rows of both."""

    grid: Grid
    psi: np.ndarray            # complex, (num_points,) or (rows, num_points), unit rows
    q: float = 0.0             # hbar*k_eff; an array of one offset per row

    def copy(self):
        return GridState(self.grid, self.psi.copy(), self.q)

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


def momentum_populations(state, comb_only=False):
    """Probabilities on the momentum grid, binned per momentum class.

    Bins are centered on the state's comb q + j with halfwidth 1/2, so a
    plane-wave state maps exactly onto ladder class indices.  With
    comb_only=True only the exact comb modes are summed (off-comb mass is
    reported under key "offcomb").
    """
    k = state.grid.k
    jj = np.floor(k + 0.5).astype(int)
    if not comb_only:
        classes = np.unique(jj)
        return dict(zip(classes.tolist(), class_masses(state, classes).tolist()))
    pk = np.abs(fft(state.psi)) ** 2
    pk /= pk.sum()
    on = np.abs(k - np.round(k)) < 1e-9
    out = {int(j): float(pk[on & (jj == j)].sum()) for j in np.unique(jj[on])}
    out["offcomb"] = float(pk[~on].sum())
    return out


class _Stepper:
    """Applies splitting substeps for one pulse on one grid.

    Both members of a splitting pair take the same kinetic weights (PP34A:
    b = reversed(a)), so each factor exp(-i (k+q)^2 w h) is computed once
    per step size h, for both.  The pulse's phase may be one per row.
    """

    def __init__(self, state, pulse_dimless, envelope):
        self.grid = state.grid
        self.tau, self.W, self.dw, phi = pulse_dimless
        self.phi = np.reshape(phi, (-1, 1)) if np.ndim(phi) else phi
        self.env = envelope
        k = state.k
        self.k2 = k * k
        x = self.grid.x
        self.cosx = np.cos(x)
        self.sinx = np.sin(x)
        self.h, self.kinetic_factors = None, {}

    def kinetic(self, psi, dt):
        if dt not in self.kinetic_factors:
            self.kinetic_factors[dt] = np.exp(-1j * self.k2 * dt)
        return ifft(fft(psi) * self.kinetic_factors[dt])

    def potential(self, psi, t, dt):
        # V(x,t) = W f (1 + cos(x - dw*t + phi)); f evaluated at fraction t/tau
        f = self.env.scalar(t / self.tau)
        if f == 0.0 or self.W == 0.0:
            return psi
        theta = self.dw * t - self.phi
        cosshift = self.cosx * np.cos(theta) + self.sinx * np.sin(theta)
        c = self.W * f * dt
        return psi * (np.exp(-1j * c) * np.exp(-1j * c * cosshift))

    def step(self, psi, t, h, scheme, swap_roles=False):
        if h != self.h:
            self.h, self.kinetic_factors = h, {}
        clock = t
        for slot, w in scheme.substeps(swap_roles=swap_roles):
            if slot == "A":
                psi = self.kinetic(psi, w * h)
                clock += w * h
            else:
                psi = self.potential(psi, clock, w * h)
        return psi


def propagate_pulse(state, pulse: Pulse, cfg, scheme: SplittingScheme = PP34A,
                    tol=DEFAULT_TOL):
    """Advance a grid state through one pulse with adaptive splitting steps.

    tol bounds the embedded-pair error estimate per unit dimensionless
    time.  Raises StiffnessError if the controller underflows below
    tau * 1e-9.
    """
    if tol <= 0:
        raise ParameterError(f"tol must be positive, got {tol}")
    state.grid.check_order(pulse.order_hint)
    units = cfg.units()
    dl = pulse.dimensionless(units)
    tau = dl[0]
    st = _Stepper(state, dl, pulse.envelope)
    psi = state.psi.copy()
    t = 0.0
    h = tau * (1 / 200)        # first trial step; tau / 200 can round differently
    h_min = tau * 1e-9
    expo = 1.0 / (scheme.err_order + 1)
    while t < tau:
        h = min(h, tau - t)
        psi_ab = st.step(psi, t, h, scheme, swap_roles=False)
        psi_ba = st.step(psi, t, h, scheme, swap_roles=True)
        d = psi_ab - psi_ba
        err = 0.5 * float(np.linalg.norm(d) if d.ndim == 1 else
                          np.max(np.linalg.norm(d, axis=-1)))
        tol_step = tol * h
        if err <= tol_step:
            psi = 0.5 * (psi_ab + psi_ba) if scheme.advance == "average" else psi_ab
            t += h
        if err > 0:
            h *= min(5.0, max(0.2, 0.9 * (tol_step / err) ** expo))
        else:
            h *= 5.0
        if h < h_min and t < tau:
            raise StiffnessError(
                "step size underflow in split-step propagation",
                context={"t": t, "tau": tau, "h": h, "tol": tol,
                         "rabi_peak": pulse.rabi_peak, "duration": pulse.duration})
    return GridState(state.grid, psi, state.q)


def propagate_pulse_fixed(state, pulse, cfg, scheme=PP34A, n_steps=400,
                          swap_roles=False, backward=False):
    """Fixed-step propagation, forward or exactly reversed.

    backward=True steps the clock from tau down to 0 with negated
    weights; for a palindromic scheme run with swap_roles=True this is
    the exact inverse of a forward pass with advance "primary" (to
    roundoff).
    """
    if n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
    state.grid.check_order(pulse.order_hint)
    units = cfg.units()
    dl = pulse.dimensionless(units)
    tau = dl[0]
    st = _Stepper(state, dl, pulse.envelope)
    psi = state.psi.copy()
    h = tau / n_steps
    if backward:
        for i in range(n_steps - 1, -1, -1):
            t_end = (i + 1) * h
            psi = st.step(psi, t_end, -h, scheme, swap_roles=swap_roles)
        return GridState(state.grid, psi, state.q)
    for i in range(n_steps):
        t = i * h
        if scheme.advance == "average":
            psi = 0.5 * (st.step(psi, t, h, scheme, swap_roles=False)
                         + st.step(psi, t, h, scheme, swap_roles=True))
        else:
            psi = st.step(psi, t, h, scheme, swap_roles=swap_roles)
    return GridState(state.grid, psi, state.q)


def free_evolve(state, T, cfg=None):
    """Exact lattice-off evolution, the kinetic factor exp(-i (k+q)^2 T).

    T in seconds when cfg is given, else dimensionless.
    """
    if T < 0:
        raise ParameterError(f"free evolution must be nonnegative, got {T}")
    T_t = cfg.units().to_dimensionless(T, "time") if cfg is not None else T
    if T_t == 0.0:
        return state.copy()
    k = state.k
    psi = ifft(fft(state.psi) * np.exp(-1j * k * k * T_t))
    return GridState(state.grid, psi, state.q)


def run_sequence(state, items, cfg, opts):
    """Grid state after the pulses and free evolutions of a sequence's items;
    pulses step with the scheme and tolerance of opts."""
    for item in items:
        if isinstance(item, Pulse):
            state = propagate_pulse(state, item, cfg, scheme=opts.scheme, tol=opts.tol)
        else:
            state = free_evolve(state, item.duration, cfg)
    return state
