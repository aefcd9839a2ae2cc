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

Envelopes are closed form, Blackman or rectangular: each is smooth on
[0, duration], so the ladder integrates a pulse without a restart.
``Envelope.value_frac`` evaluates one at one float, the fractional time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ParameterError
from .physics import PhysicalConfig

BLACKMAN_MEAN = 0.42  # exact: the DC Fourier coefficient of the window


@dataclass(frozen=True)
class Envelope:
    """Closed-form pulse envelope shape with values in [0, 1] on [0, duration]."""

    KINDS = ("blackman", "rectangular")   # each time symmetric, f(1 - u) = f(u)
    kind: str                      # one of KINDS
    duration: float                # seconds

    def __post_init__(self):
        if self.duration <= 0:
            raise ParameterError(f"envelope duration must be positive, got {self.duration}")
        if self.kind not in self.KINDS:
            raise ParameterError(f"unknown envelope kind {self.kind!r}")

    def value_frac(self, u):
        """Envelope at one float u = t/duration, zero outside [0, 1]: the one place
        the Blackman formula is written, called once per ladder right-hand side
        and grid potential substep."""
        if not 0.0 <= u <= 1.0:
            return 0.0
        if self.kind == "rectangular":
            return 1.0
        w = 2 * math.pi * u
        return 0.42 - 0.5 * math.cos(w) + 0.08 * math.cos(2 * w)

    @property
    def mean(self):
        """Time average of the envelope over [0, duration]."""
        return BLACKMAN_MEAN if self.kind == "blackman" else 1.0


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
                     p0=0.0, envelope_kind="blackman"):
        """Pulse tuned to the n-th order resonance for initial momentum p0 (SI).

        Exactly one of rabi_peak / rabi_avg must be given.
        """
        if (rabi_peak is None) == (rabi_avg is None):
            raise ParameterError("give exactly one of rabi_peak or rabi_avg")
        env = Envelope(envelope_kind, tau)
        if rabi_peak is None:
            rabi_peak = rabi_avg / env.mean
        return cls(envelope=env, rabi_peak=rabi_peak,
                   delta_omega=resonance_delta_omega(n, p0, cfg),
                   phase=phase, order_hint=n)

    def dimensionless(self, cfg):
        """(tau, rabi_peak, delta_omega, phase) in the lattice-recoil units of
        the PhysicalConfig cfg."""
        return (cfg.to_dimensionless(self.duration, "time"),
                cfg.to_dimensionless(self.rabi_peak, "frequency"),
                cfg.to_dimensionless(self.delta_omega, "frequency"),
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
                                  p0=self.p0 * cfg.unit("momentum"),
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
