"""Pulse envelopes, resonance condition, pulse specifications and pulse
sequences.  Rabi frequencies enter as numbers; the module holds no
power-to-Rabi-frequency calibration.

Rabi-frequency conventions
--------------------------
``Pulse.rabi_peak`` is the peak two-photon Rabi frequency: the quantity
multiplying the envelope f(t) in the lattice potential
``2*hbar*rabi_peak*f(t)*cos^2((k_eff*x - delta_omega*t + phase)/2)``.

Laboratories usually quote the envelope-averaged value instead (for a
Blackman pulse the average power of the pulse carries the factor
mean(f) = 0.42, so power-calibrated numbers come out pre-multiplied by
it).  Constructors accept either convention via ``rabi_peak=`` or
``rabi_avg=``; the two are related by ``rabi_peak = rabi_avg / mean(f)``.
A ``PulseSpec`` names the convention once, for every pulse it builds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError
from .physics import PhysicalConfig

BLACKMAN_MEAN = 0.42  # exact: the DC Fourier coefficient of the window


def blackman_frac(u, cos=np.cos):
    """Blackman window 0.42 - 0.5*cos(2*pi*u) + 0.08*cos(4*pi*u) at fractional
    time u, without the cut to [0, 1].

    The one place the formula is written.  ``Envelope.scalar`` passes
    cos=math.cos to evaluate a Python float without numpy overhead.
    """
    w = 2 * np.pi * u
    return 0.42 - 0.5 * cos(w) + 0.08 * cos(2 * w)


def blackman(t, tau):
    """Blackman window on [0, tau], zero outside; t and tau in any common
    unit.  Vectorized in t."""
    return Envelope("blackman", tau).value(t)


@dataclass(frozen=True)
class Envelope:
    """Pulse envelope shape with values in [0, 1] on [0, duration].

    Tabulated envelopes keep their sample times as fractions of the
    duration, so the same shape can be evaluated in SI or dimensionless
    time.  Interpolation is monotone cubic, which cannot overshoot the
    clipped sample range.
    """

    kind: str                      # "blackman" | "rectangular" | "tabulated"
    duration: float                # seconds
    samples: tuple = ()            # tabulated only: ((t, value), ...)
    _interp: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.duration <= 0:
            raise ParameterError(f"envelope duration must be positive, got {self.duration}")
        if self.kind not in ("blackman", "rectangular", "tabulated"):
            raise ParameterError(f"unknown envelope kind {self.kind!r}")
        if self.kind == "tabulated":
            from scipy.interpolate import PchipInterpolator
            if len(self.samples) < 2:
                raise ParameterError("tabulated envelope needs at least 2 samples")
            t = np.asarray([s[0] for s in self.samples], dtype=float)
            v = np.clip([s[1] for s in self.samples], 0.0, 1.0)
            if t[0] < 0 or t[-1] > self.duration or np.any(np.diff(t) <= 0):
                raise ParameterError("tabulated samples must be strictly increasing in [0, duration]")
            object.__setattr__(self, "_interp", PchipInterpolator(t / self.duration, v,
                                                                  extrapolate=False))

    def value_frac(self, u):
        """Envelope at fractional time u = t/duration, zero outside [0, 1]."""
        u = np.asarray(u, dtype=float)
        if self.kind == "blackman":
            val = blackman_frac(u)
        elif self.kind == "rectangular":
            val = np.ones_like(u)
        else:
            val = np.nan_to_num(self._interp(np.clip(u, 0.0, 1.0)), nan=0.0)
        out = np.where((u >= 0) & (u <= 1), val, 0.0)
        return out if out.ndim else float(out)

    def scalar(self, u):
        """``value_frac`` of one Python float u, without numpy overhead; the
        ladder right-hand side and the grid's potential substep call it once
        per evaluation."""
        if not 0.0 <= u <= 1.0:
            return 0.0
        if self.kind == "blackman":
            return blackman_frac(u, math.cos)
        if self.kind == "rectangular":
            return 1.0
        return self.value_frac(u)

    def value(self, t):
        """Envelope at time t, in the unit of the duration."""
        return self.value_frac(np.asarray(t, dtype=float) / self.duration)

    @property
    def breakpoints(self):
        """Fractional times that bound the smooth pieces of the envelope: 0
        and 1, plus a tabulated envelope's sample times, where the
        interpolant's second derivative jumps."""
        if self.kind != "tabulated":
            return (0.0, 1.0)
        return tuple(sorted({0.0, 1.0, *map(float, self._interp.x)}))

    @property
    def mean(self):
        """Time average of the envelope over [0, duration]."""
        if self.kind == "blackman":
            return BLACKMAN_MEAN
        if self.kind == "rectangular":
            return 1.0
        return float(self._interp.integrate(0.0, 1.0))


def resonance_delta_omega(n, p0, cfg: PhysicalConfig):
    """Beam frequency difference for n-th order resonance at initial momentum p0.

    Returns n*hbar*k_eff^2/(2m) + p0*k_eff/m in rad/s; p0 in SI kg*m/s.
    """
    if n <= 0:
        raise ParameterError(f"diffraction order must be a positive integer, got {n}")
    return n * cfg.omega_k + p0 * cfg.k_eff / cfg.atom_mass


@dataclass(frozen=True)
class Pulse:
    """One lattice pulse: envelope, peak Rabi frequency, detuning and phase.

    All fields SI; order_hint records which Bragg order the pulse targets
    (metadata for truncation windows and reporting, not dynamics).
    """

    envelope: Envelope
    rabi_peak: float        # rad/s, peak two-photon Rabi frequency
    delta_omega: float      # rad/s
    phase: float = 0.0      # rad; on the grid, an array gives one per row
    order_hint: int = 1

    def __post_init__(self):
        if self.rabi_peak < 0:
            raise ParameterError(f"rabi_peak must be nonnegative, got {self.rabi_peak}")
        if self.order_hint < 1:
            raise ParameterError(f"order_hint must be >= 1, got {self.order_hint}")

    @property
    def duration(self):
        return self.envelope.duration

    @property
    def rabi_avg(self):
        """Envelope-averaged Rabi frequency (the lab-quoted convention)."""
        return self.rabi_peak * self.envelope.mean

    @classmethod
    def on_resonance(cls, cfg, n, tau, rabi_peak=None, rabi_avg=None, phase=0.0,
                     p0=0.0, envelope_kind="blackman", samples=()):
        """Pulse tuned to the n-th order resonance for initial momentum p0 (SI).

        Exactly one of rabi_peak / rabi_avg must be given.
        """
        if (rabi_peak is None) == (rabi_avg is None):
            raise ParameterError("give exactly one of rabi_peak or rabi_avg")
        env = Envelope(envelope_kind, tau, tuple(samples))
        if rabi_peak is None:
            rabi_peak = rabi_avg / env.mean
        return cls(envelope=env, rabi_peak=rabi_peak,
                   delta_omega=resonance_delta_omega(n, p0, cfg),
                   phase=phase, order_hint=n)

    def dimensionless(self, units):
        """(tau, rabi_peak, delta_omega, phase) in lattice-recoil units."""
        return (units.to_dimensionless(self.duration, "time"),
                units.to_dimensionless(self.rabi_peak, "frequency"),
                units.to_dimensionless(self.delta_omega, "frequency"),
                self.phase)


@dataclass(frozen=True)
class PulseSpec:
    """How (order, duration, Rabi frequency) becomes a pulse: the envelope,
    the Rabi convention ("avg" = envelope-averaged lab convention, "peak" =
    peak of f(t)), the momentum p0 in hbar*k_eff the pulse is tuned to, and
    the lattice phase.  The fields are the ``[pulse]`` config keys."""

    envelope: str = "blackman"
    convention: str = "avg"
    p0: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.convention not in ("avg", "peak"):
            raise ParameterError(f"unknown Rabi convention {self.convention!r}; "
                                 "use 'avg' or 'peak'")

    def build(self, cfg, n, tau, omega):
        """n-th order pulse of duration tau (s) and Rabi frequency omega (rad/s)."""
        return Pulse.on_resonance(cfg, n, tau, phase=self.phase,
                                  p0=self.p0 * cfg.units().momentum_unit,
                                  envelope_kind=self.envelope,
                                  **{f"rabi_{self.convention}": omega})


@dataclass(frozen=True)
class FreeEvolution:
    """Lattice-off segment of a pulse sequence."""

    duration: float  # seconds

    def __post_init__(self):
        if self.duration < 0:
            raise ParameterError(f"free evolution must be nonnegative, got {self.duration}")


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulses and free-evolution gaps.

    Each pulse's lattice phase restarts its local clock: the potential of
    item k is evaluated with t measured from that pulse's own start, so
    ``phase`` is the lattice phase at the start of the pulse.  For
    symmetric sequences (equal gaps) this matches the usual
    phi_1 - 2*phi_2 + phi_3 readout convention.
    """

    items: tuple

    def __post_init__(self):
        if not self.items:
            raise ParameterError("pulse sequence must not be empty")
        for it in self.items:
            if not isinstance(it, (Pulse, FreeEvolution)):
                raise ParameterError(f"sequence items must be Pulse or FreeEvolution, got {type(it)}")

    @property
    def total_duration(self):
        return sum(it.duration for it in self.items)

    @property
    def pulses(self):
        return [it for it in self.items if isinstance(it, Pulse)]

    @property
    def order_hint(self):
        return max((p.order_hint for p in self.pulses), default=1)


def mach_zehnder_sequence(cfg, n, tau_bs, omega_bs, tau_mirror, omega_mirror,
                          t_free, phi1=0.0, phi2=0.0, phi3=0.0, spec=PulseSpec()):
    """pi/2 - pi - pi/2 sequence on the n-th order resonance.

    spec builds every pulse, with phi1, phi2, phi3 in place of its phase.
    t_free = 0 yields a valid back-to-back 3-pulse sequence.
    """
    def mk(tau, omega, phi):
        return replace(spec, phase=phi).build(cfg, n, tau, omega)

    gap = (FreeEvolution(t_free),) if t_free != 0 else ()  # FreeEvolution rejects t_free < 0
    return PulseSequence((mk(tau_bs, omega_bs, phi1), *gap,
                          mk(tau_mirror, omega_mirror, phi2), *gap,
                          mk(tau_bs, omega_bs, phi3)))
