import numpy as np
import pytest

from braggsim.errors import ConfigurationError, ParameterError
from braggsim.physics import HBAR, PhysicalConfig, default_rb87

TWO_PI = 2 * np.pi


def test_rb87_wavelength(rb87):
    assert rb87.wavelength == 780.226e-9


def test_rb87_recoil_frequency_matches_resonance_scale(rb87):
    f = rb87.omega_k / TWO_PI
    assert 14.95e3 <= f <= 15.25e3
    assert abs(f - 15.1e3) / 15.1e3 < 0.01


def test_k_eff_from_wavelength(rb87):
    # independent: k_eff = 4*pi/lambda
    assert abs(rb87.k_eff - 4 * np.pi / 780.226e-9) / rb87.k_eff < 1e-6


def test_omega_k_two_ways(rb87):
    direct = HBAR * rb87.k_eff**2 / (2 * rb87.atom_mass)
    assert abs(direct - rb87.omega_k) / direct < 1e-12


def test_to_dimensionless_momentum_unit(rb87):
    assert rb87.to_dimensionless(HBAR * rb87.k_eff, "momentum") == pytest.approx(1.0, rel=1e-14)


def test_to_dimensionless_time_zero(rb87):
    assert rb87.to_dimensionless(0.0, "time") == 0.0


def test_to_dimensionless_resonance_frequency(rb87):
    val = rb87.to_dimensionless(TWO_PI * 15.1e3, "frequency")
    assert val == pytest.approx(1.0, abs=0.01)


def test_round_trip_identity(rb87):
    rng = np.random.default_rng(11)
    for kind in ("time", "momentum", "frequency", "length", "energy"):
        for _ in range(20):
            v = 10.0 ** rng.uniform(-30, 6)
            back = rb87.from_dimensionless(rb87.to_dimensionless(v, kind), kind)
            assert abs(back / v - 1) < 1e-12


def test_dimensionless_values_finite(rb87):
    for kind, v in (("time", 90e-6), ("momentum", HBAR * rb87.k_eff),
                    ("frequency", TWO_PI * 23e3), ("length", 1e-6),
                    ("energy", HBAR * rb87.omega_k)):
        x = rb87.to_dimensionless(v, kind)
        assert np.isfinite(x) and not np.isnan(x)


def test_unknown_kind_rejected(rb87):
    with pytest.raises(ConfigurationError):
        rb87.to_dimensionless(1.0, "velocity")


def test_invalid_constants_rejected():
    with pytest.raises(ParameterError):
        PhysicalConfig(atom_mass=-1.0, wavelength=780e-9)
    with pytest.raises(ParameterError):
        PhysicalConfig(atom_mass=1.4e-25, wavelength=0.0)


def test_positive_derived_quantities(rb87):
    assert rb87.omega_k > 0 and rb87.k_eff > 0 and rb87.atom_mass > 0
