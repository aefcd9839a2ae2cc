"""Physical constants, atom/laser configuration, and the conversions to the
dimensionless units used by every propagator.

Internally all dynamics run in lattice-recoil units: hbar = 1, momentum in
units of hbar*k_eff, energy in hbar*omega_k and time in 1/omega_k, where
omega_k = hbar*k_eff^2/(2m) is the two-photon recoil angular frequency
(the n = 1 Bragg resonance). Positions are measured in 1/k_eff, so the
lattice period is 2*pi.  ``PhysicalConfig.unit``, ``to_dimensionless`` and
``from_dimensionless`` convert between SI and these units.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ParameterError

# CODATA 2018
HBAR = 1.054571817e-34          # J s
ATOMIC_MASS_KG = 1.660539066e-27  # kg

# AME 2020 atomic mass of Rb-87
RB87_MASS_U = 86.909180531
RB87_MASS_KG = RB87_MASS_U * ATOMIC_MASS_KG

# Effective wavelength of the Bragg beams used for the Rb-87 default.
RB87_WAVELENGTH_M = 780.226e-9


@dataclass(frozen=True)
class PhysicalConfig:
    """Atom and laser constants for one simulation setup.

    k_eff is taken as twice the single-beam wavenumber (counterpropagating
    beams); the kHz-scale frequency difference between the beams shifts
    k_eff at the 1e-11 level and is ignored.
    """

    atom_mass: float            # kg
    wavelength: float           # m
    label: str = ""
    k_eff: float = field(init=False)
    omega_k: float = field(init=False)    # two-photon recoil hbar*k_eff^2/(2m), rad/s

    def __post_init__(self):
        if self.atom_mass <= 0:
            raise ParameterError(f"atom_mass must be positive, got {self.atom_mass}")
        if self.wavelength <= 0:
            raise ParameterError(f"wavelength must be positive, got {self.wavelength}")
        k_eff = 2 * (2 * np.pi / self.wavelength)
        object.__setattr__(self, "k_eff", k_eff)
        object.__setattr__(self, "omega_k", HBAR * k_eff**2 / (2 * self.atom_mass))

    def unit(self, kind):
        """SI value of one lattice-recoil unit: "time" 1/omega_k, "momentum"
        hbar*k_eff, "frequency" omega_k (angular, rad/s), "length" 1/k_eff,
        "energy" hbar*omega_k."""
        units = {"time": 1.0 / self.omega_k, "momentum": HBAR * self.k_eff,
                 "frequency": self.omega_k, "length": 1.0 / self.k_eff,
                 "energy": HBAR * self.omega_k}
        if kind not in units:
            raise ConfigurationError(
                f"unknown quantity kind {kind!r}; expected one of {tuple(units)}")
        return units[kind]

    def to_dimensionless(self, value, kind):
        """Divide an SI value by the matching unit."""
        return value / self.unit(kind)

    def from_dimensionless(self, value, kind):
        """Inverse of :meth:`to_dimensionless`."""
        return value * self.unit(kind)


def default_rb87():
    """Rb-87 with counterpropagating beams at 780.226 nm.

    The derived two-photon recoil comes out at omega_k/(2*pi) = 15.08 kHz.
    """
    return PhysicalConfig(atom_mass=RB87_MASS_KG, wavelength=RB87_WAVELENGTH_M,
                          label="Rb-87 D2")

