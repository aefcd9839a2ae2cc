import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from braggsim.errors import ParameterError
from braggsim.physics import HBAR
from braggsim.pulses import (Envelope, FreeEvolution, Pulse, PulseSequence, PulseSpec,
                             mach_zehnder_sequence, resonance_delta_omega)

TWO_PI = 2 * np.pi


class TestBlackman:
    ENV = Envelope("blackman", 90e-6)

    def test_peak_at_center(self):
        assert self.ENV.value_frac(45e-6 / 90e-6) == pytest.approx(1.0, abs=1e-15)

    def test_zero_at_edges(self):
        # 0.42 - 0.5 + 0.08 = 0 exactly
        assert self.ENV.value_frac(0.0) == pytest.approx(0.0, abs=1e-16)
        assert self.ENV.value_frac(90e-6 / 90e-6) == pytest.approx(0.0, abs=1e-15)

    def test_zero_outside_support(self):
        assert self.ENV.value_frac(-1e-6 / 90e-6) == 0.0
        assert self.ENV.value_frac(91e-6 / 90e-6) == 0.0

    def test_symmetry(self):
        tau = 123e-6
        env = Envelope("blackman", tau)
        rng = np.random.default_rng(5)
        for t in rng.uniform(0, tau, 200).tolist():
            assert abs(env.value_frac(t / tau) - env.value_frac((tau - t) / tau)) < 1e-14

    def test_fwhm(self):
        # independent root finding of f(t) = 1/2
        f = Envelope("blackman", 1.0).value_frac
        lo = brentq(lambda u: f(u) - 0.5, 0.0, 0.5)
        hi = brentq(lambda u: f(u) - 0.5, 0.5, 1.0)
        assert (hi - lo) == pytest.approx(0.405, abs=0.002)

    def test_mean_by_quadrature(self):
        val, _ = quad(Envelope("blackman", 1.0).value_frac, 0.0, 1.0)
        assert val == pytest.approx(0.42, abs=1e-10)
        assert Envelope("blackman", 1.0).mean == 0.42

    def test_invalid_duration(self):
        with pytest.raises(ParameterError):
            Envelope("blackman", -1e-6)


class TestEnvelope:
    def test_rectangular(self):
        env = Envelope("rectangular", 2.0)
        assert env.mean == 1.0
        assert env.value_frac(1.0 / 2.0) == 1.0
        assert env.value_frac(2.5 / 2.0) == 0.0

    def test_every_kind_is_time_symmetric(self):
        # the half-pulse block needs f(tau - t) = f(t), and ladder.run_sequence takes
        # it for every Envelope pulse: an asymmetric kind must fail here first
        us = np.linspace(0.0, 1.0, 1001)
        for kind in Envelope.KINDS:
            f = Envelope(kind, 90e-6).value_frac
            assert max(abs(f(u) - f(1.0 - u)) for u in us.tolist()) <= 1e-15


class TestResonance:
    def test_third_order(self, rb87):
        # n * 2*pi*15.1 kHz, n = 3
        assert resonance_delta_omega(3, 0.0, rb87) == pytest.approx(TWO_PI * 45.3e3,
                                                                    rel=0.01)

    def test_fifth_order(self, rb87):
        assert resonance_delta_omega(5, 0.0, rb87) == pytest.approx(TWO_PI * 75.5e3,
                                                                    rel=0.01)

    def test_nonzero_initial_momentum(self, rb87):
        # p0 = hbar*k_eff adds 2*omega_k: total 3*omega_k for n = 1
        got = resonance_delta_omega(1, HBAR * rb87.k_eff, rb87)
        assert got == pytest.approx(3 * rb87.omega_k, rel=1e-12)

    def test_affine_in_p0(self, rb87):
        p = np.linspace(-2, 2, 7) * HBAR * rb87.k_eff
        vals = [resonance_delta_omega(2, x, rb87) for x in p]
        slopes = np.diff(vals) / np.diff(p)
        assert np.allclose(slopes, rb87.k_eff / rb87.atom_mass, rtol=1e-12)

    def test_linear_in_n(self, rb87):
        vals = [resonance_delta_omega(n, 0.0, rb87) for n in range(1, 8)]
        assert np.allclose(np.diff(vals), rb87.omega_k, rtol=1e-12)

    def test_invalid_order(self, rb87):
        with pytest.raises(ParameterError):
            resonance_delta_omega(0, 0.0, rb87)


class TestPulse:
    def test_avg_peak_conversion(self, rb87):
        p = Pulse.on_resonance(rb87, 3, 90e-6, rabi_avg=TWO_PI * 23e3)
        assert p.rabi_peak * 0.42 == pytest.approx(TWO_PI * 23e3, rel=1e-14)
        assert p.rabi_avg == pytest.approx(TWO_PI * 23e3, rel=1e-14)

    def test_on_resonance_detuning(self, rb87):
        p = Pulse.on_resonance(rb87, 3, 90e-6, rabi_peak=1e5)
        ref = resonance_delta_omega(3, 0.0, rb87)
        assert abs(p.delta_omega - ref) <= 1e-12 * ref

    def test_requires_one_convention(self, rb87):
        with pytest.raises(ParameterError):
            Pulse.on_resonance(rb87, 3, 90e-6)
        with pytest.raises(ParameterError):
            Pulse.on_resonance(rb87, 3, 90e-6, rabi_peak=1.0, rabi_avg=1.0)

    def test_negative_rabi_rejected(self, rb87):
        with pytest.raises(ParameterError):
            Pulse.on_resonance(rb87, 3, 90e-6, rabi_peak=-1.0)


class TestSequence:
    def test_mzi_structure_and_resonance(self, rb87):
        seq = mach_zehnder_sequence(rb87, 3, 90e-6, 1e5, 120e-6, 9e4, 1e-3)
        assert len(seq.items) == 5
        for p in seq.pulses:
            assert p.delta_omega == pytest.approx(TWO_PI * 45.3e3, rel=0.01)

    def test_degenerate_back_to_back(self, rb87):
        seq = mach_zehnder_sequence(rb87, 3, 90e-6, 1e5, 120e-6, 9e4, 0.0)
        assert len(seq.items) == 3
        assert all(isinstance(i, Pulse) for i in seq.items)

    def test_mirror_matches_dichroic_parameters(self, rb87):
        seq = mach_zehnder_sequence(rb87, 3, 90e-6, 1e5, 120e-6, TWO_PI * 21e3, 1e-3)
        mirror = seq.pulses[1]
        assert mirror.duration == 120e-6
        assert mirror.rabi_avg == pytest.approx(TWO_PI * 21e3, rel=1e-12)

    def test_unknown_rabi_convention_rejected(self, rb87):
        assert PulseSpec(convention="peak").build(rb87, 3, 90e-6, 2.0).rabi_peak == 2.0
        with pytest.raises(ParameterError):
            PulseSpec(convention="Peak")

    def test_empty_sequence_rejected(self):
        with pytest.raises(ParameterError):
            PulseSequence(())

    def test_negative_free_evolution_rejected(self, rb87):
        with pytest.raises(ParameterError):
            FreeEvolution(-1e-6)
        with pytest.raises(ParameterError):
            mach_zehnder_sequence(rb87, 3, 90e-6, 1e5, 120e-6, 9e4, -1e-6)
        with pytest.raises(ParameterError):
            mach_zehnder_sequence(rb87, 3, 90e-6, 1e5, -120e-6, 9e4, 1e-3)
