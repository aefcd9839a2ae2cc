import numpy as np
import pytest
from scipy.integrate import solve_ivp

from braggsim import gridprop, ladder
from braggsim.errors import IntegrationError, ParameterError
from braggsim.ladder import (LadderState, default_j_window,
                             integrate_ladder, ladder_hamiltonian, ladder_state,
                             propagate_batch, propagate_sequence, truncation_check)
from braggsim.pulses import Envelope, FreeEvolution, Pulse, PulseSequence

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def mirror(rb87):
    return Pulse.on_resonance(rb87, 3, 90e-6, rabi_avg=TWO_PI * 23e3)


class TestHamiltonian:
    def test_zero_rabi_diagonal(self, rb87):
        pulse = Pulse.on_resonance(rb87, 3, 90e-6, rabi_peak=0.0)
        H = ladder_hamiltonian(0.2, pulse, rb87, 1.0, (-3, 5))
        j = np.arange(-3, 6)
        assert np.allclose(H, np.diag((0.2 + j) ** 2))

    def test_hermitian_random_arguments(self, rb87):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pulse = Pulse.on_resonance(rb87, 3, 90e-6, rabi_avg=TWO_PI * 20e3,
                                       phase=rng.uniform(0, TWO_PI))
            H = ladder_hamiltonian(rng.uniform(-1, 1), pulse, rb87,
                                   rng.uniform(0, 8), (-5, 8))
            assert np.allclose(H, H.conj().T, atol=1e-15)

    def test_coupling_value_and_phase(self, rb87):
        W = 1.1 * rb87.omega_k
        phi = 0.63
        pulse = Pulse.on_resonance(rb87, 1, 80e-6, rabi_peak=W, phase=phi,
                                   envelope_kind="rectangular")
        t = 2.31
        H = ladder_hamiltonian(0.0, pulse, rb87, t, (-2, 3))
        dw = pulse.delta_omega / rb87.omega_k
        expected = 0.5 * (W / rb87.omega_k) * np.exp(-1j * (dw * t - phi))
        assert H[1, 0] == pytest.approx(expected, rel=1e-12)
        assert H[0, 1] == pytest.approx(np.conj(expected), rel=1e-12)

    def test_two_level_reduction_matches_grid(self, rb87):
        # deep-Bragg n=1: ladder vs grid within 1e-3 through a pi/2 flop
        tau = 250e-6
        pulse = Pulse.on_resonance(rb87, 1, tau, rabi_avg=(np.pi / 2) / tau)
        lout = integrate_ladder(ladder_state(0, 0.0, order=1), pulse, rb87)
        gout = gridprop.propagate_pulse(gridprop.plane_wave(gridprop.Grid(), 0, 0.0),
                                        pulse, rb87)
        gpops = gridprop.momentum_populations(gout)
        for j in (0, 1):
            assert lout.population(j) == pytest.approx(gpops[j], abs=1e-3)


class TestIntegrate:
    def test_zero_rabi_kinetic_phases(self, rb87):
        pulse = Pulse.on_resonance(rb87, 2, 70e-6, rabi_peak=0.0)
        st = ladder_state(1, 0.2, order=2)
        st.amps[0] = 0.6
        st.amps[1 - st.j_min] = 0.8
        out = integrate_ladder(st, pulse, rb87)
        tau_t = rb87.units().to_dimensionless(70e-6, "time")
        ref = st.amps * np.exp(-1j * (st.q + np.arange(st.j_min, st.j_max + 1)) ** 2 * tau_t)
        assert np.max(np.abs(out.amps - ref)) < 1e-12

    def test_norm_conservation(self, rb87, mirror):
        out = integrate_ladder(ladder_state(0, 0.0, order=3), mirror, rb87)
        assert abs(out.norm - 1.0) < 1e-10

    def test_matches_grid_on_mirror(self, rb87, mirror):
        lout = integrate_ladder(ladder_state(0, 0.05, order=3), mirror, rb87)
        gout = gridprop.propagate_pulse(
            gridprop.plane_wave(gridprop.Grid(), 0, 0.05), mirror, rb87)
        gpops = gridprop.momentum_populations(gout)
        for j in range(-2, 8):
            assert lout.population(j) == pytest.approx(gpops.get(j, 0.0), abs=1e-4)

    def test_interaction_and_bare_frames_agree(self, rb87):
        # the interaction-frame right-hand side against the dense bare-frame
        # Hamiltonian integrated directly
        pulse = Pulse.on_resonance(rb87, 1, 40e-6, rabi_avg=TWO_PI * 10e3)
        st = ladder_state(0, 0.1, order=1)
        a = integrate_ladder(st, pulse, rb87)
        tau = pulse.dimensionless(rb87.units())[0]
        window = (st.j_min, st.j_max)
        b = solve_ivp(lambda t, y: -1j * (ladder_hamiltonian(st.q, pulse, rb87, t, window) @ y),
                      (0.0, tau), st.amps, method="DOP853", rtol=1e-11, atol=1e-13)
        assert np.max(np.abs(a.amps - b.y[:, -1])) < 1e-8

    def test_phase_gauge_invariance(self, rb87):
        base = Pulse.on_resonance(rb87, 3, 60e-6, rabi_avg=TWO_PI * 20e3)
        shifted = Pulse.on_resonance(rb87, 3, 60e-6, rabi_avg=TWO_PI * 20e3,
                                     phase=1.234567)
        a = integrate_ladder(ladder_state(0, 0.0, order=3), base, rb87,
                             rtol=1e-13, atol=1e-15)
        b = integrate_ladder(ladder_state(0, 0.0, order=3), shifted, rb87,
                             rtol=1e-13, atol=1e-15)
        diff = max(abs(a.population(j) - b.population(j))
                   for j in range(a.j_min, a.j_max + 1))
        assert diff < 1e-12

    def test_gauge_covariance_on_random_superposition(self, rb87):
        # U(phi) = Lambda(phi) U(0) Lambda(phi)^dagger, Lambda = diag(e^{i j phi}),
        # on the full amplitudes, not only on populations
        rng = np.random.default_rng(11)
        qs = np.array([-0.31, 0.0, 0.17, 0.42])
        j_min, j_max = default_j_window(3)
        j = np.arange(j_min, j_max + 1)
        c0 = rng.normal(size=(len(j), len(qs), 3)) + 1j * rng.normal(size=(len(j), len(qs), 3))
        c0 /= np.sqrt(np.sum(np.abs(c0) ** 2, axis=0, keepdims=True))
        base = Pulse.on_resonance(rb87, 3, 70e-6, rabi_avg=TWO_PI * 21e3)
        for phi in (0.9, -2.4):
            lam = np.exp(1j * j * phi)[:, None, None]
            shifted = Pulse.on_resonance(rb87, 3, 70e-6, rabi_avg=TWO_PI * 21e3, phase=phi)
            direct = propagate_batch(qs, c0, shifted, rb87, rtol=1e-12, atol=1e-14)
            gauged = lam * propagate_batch(qs, np.conj(lam) * c0, base, rb87,
                                           rtol=1e-12, atol=1e-14)
            assert np.max(np.abs(direct - gauged)) <= 1e-10

    def test_solution_keeps_only_the_end_state(self, rb87, mirror, monkeypatch):
        sols = []

        def recording_solve_ivp(*args, **kwargs):
            sols.append(ladder_solve_ivp(*args, **kwargs))
            return sols[-1]

        ladder_solve_ivp = ladder.solve_ivp
        monkeypatch.setattr(ladder, "solve_ivp", recording_solve_ivp)
        integrate_ladder(ladder_state(0, 0.0, order=3), mirror, rb87)
        assert len(sols) == 1 and sols[0].y.shape[1] == 1

    def test_batch_equals_single(self, rb87, mirror):
        qs = np.array([-0.2, 0.0, 0.15])
        j_min, j_max = default_j_window(3)
        dim = j_max - j_min + 1
        c0 = np.zeros((dim, 3, 2), dtype=complex)
        c0[0 - j_min, :, 0] = 1.0
        c0[1 - j_min, :, 1] = 1.0
        batch = propagate_batch(qs, c0, mirror, rb87)
        for iq, q in enumerate(qs):
            for col, cls in enumerate((0, 1)):
                single = integrate_ladder(ladder_state(cls, q, order=3), mirror, rb87)
                assert np.max(np.abs(batch[:, iq, col] - single.amps)) < 5e-9

    def test_tabulated_envelope_batch_equals_single(self, rb87):
        # the solver restarts at every sample of a tabulated envelope, so the
        # batch and single-state step sequences both resolve its knots
        tau, u = 90e-6, np.linspace(0.0, 1.0, 41)
        f = np.sin(np.pi * u) ** 2 * np.exp(-2.0 * u)
        pulse = Pulse.on_resonance(rb87, 3, tau, rabi_avg=TWO_PI * 23e3,
                                   envelope_kind="tabulated",
                                   samples=tuple(zip(u * tau, f / f.max())))
        batch = propagate_batch(np.array([0.0]), ladder.unit_columns(
            default_j_window(3), 1, range(4)), pulse, rb87)
        for cls in range(4):
            single = integrate_ladder(ladder_state(cls, 0.0, order=3), pulse, rb87)
            assert np.max(np.abs(np.abs(batch[:, 0, cls]) ** 2
                                 - np.abs(single.amps) ** 2)) <= 1e-10

    def test_comb_relabelling(self, rb87, mirror):
        # the Hamiltonian depends on q + j only, so class j at q on window W
        # evolves like class j-1 at q+1 on window W-1
        j_min, j_max = default_j_window(3)
        qs = np.array([-0.4, -0.1, 0.2, 0.35])
        c0 = np.zeros((j_max - j_min + 1, len(qs), 2), dtype=complex)
        c0[0 - j_min, :, 0] = 1.0
        c0[2 - j_min, :, 1] = 1.0
        here = propagate_batch(qs, c0, mirror, rb87, j_window=(j_min, j_max))
        relabelled = propagate_batch(qs + 1, c0, mirror, rb87,
                                     j_window=(j_min - 1, j_max - 1))
        assert np.max(np.abs(np.abs(here) ** 2 - np.abs(relabelled) ** 2)) <= 1e-12

    @pytest.mark.parametrize("n, tau, rabi_khz", [(3, 90e-6, 23.0), (4, 120e-6, 30.0)])
    @pytest.mark.parametrize("p_c", [0.0, 0.3])
    @pytest.mark.parametrize("envelope", ["blackman", "rectangular", "tabulated"])
    def test_momentum_reflection(self, rb87, n, tau, rabi_khz, p_c, envelope):
        # a pulse resonant at p_c is symmetric under j -> n - j, q -> 2 p_c - q:
        # P_{a->b}(p_c + d) = P_{n-a->n-b}(p_c - d) for any envelope and phase
        u = np.linspace(0.0, 1.0, 9)
        f = np.sin(np.pi * u) ** 2 * np.exp(-2.0 * u)
        samples = tuple(zip(u * tau, f / f.max())) if envelope == "tabulated" else ()
        pulse = Pulse.on_resonance(rb87, n, tau, rabi_avg=TWO_PI * rabi_khz * 1e3,
                                   phase=0.7, p0=p_c * rb87.units().momentum_unit,
                                   envelope_kind=envelope, samples=samples)
        d = np.array([0.0, 0.15, 0.6])
        j_min, j_max = default_j_window(n)
        c = propagate_batch(np.concatenate([p_c + d, p_c - d]),
                            ladder.unit_columns((j_min, j_max), 2 * len(d), range(n + 1)),
                            pulse, rb87, rtol=1e-13, atol=1e-15)
        P = np.abs(c[np.arange(n + 1) - j_min]) ** 2               # (b, q, a)
        up, down = P[:, :len(d)], P[:, len(d):]
        assert np.max(np.abs(up - down[::-1, :, ::-1])) <= 1e-12
        assert np.max(np.abs(up - up[::-1, :, ::-1])) > 1e-3  # the flip is not trivial

    def test_unitarity_on_identity_basis(self, rb87, mirror):
        j_min, j_max = default_j_window(3)
        dim = j_max - j_min + 1
        qs = np.array([-0.3, 0.0, 0.25])
        c0 = np.repeat(np.eye(dim, dtype=complex)[:, None, :], len(qs), axis=1)
        U = propagate_batch(qs, c0, mirror, rb87)                    # (dim, nq, dim)
        for iq in range(len(qs)):
            u = U[:, iq, :]
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-9


class TestStepper:
    """``ladder.solve_ivp`` is scipy's DOP853, bit for bit, without dense output."""

    @pytest.mark.parametrize("envelope, rtol", [("blackman", 1e-10), ("blackman", 1e-13),
                                                ("blackman", 1e-6), ("tabulated", 1e-10)])
    def test_bitwise_equal_to_scipy(self, rb87, mirror, monkeypatch, envelope, rtol):
        u = np.linspace(0.0, 1.0, 9)
        f = np.sin(np.pi * u) ** 2 * np.exp(-2.0 * u)
        pulse = mirror if envelope == "blackman" else Pulse.on_resonance(
            rb87, 3, 90e-6, rabi_avg=TWO_PI * 23e3, envelope_kind="tabulated",
            samples=tuple(zip(u * 90e-6, f / f.max())))
        qs = np.linspace(-0.3, 0.4, 5)
        c0 = ladder.unit_columns(default_j_window(3), len(qs), range(4))
        own = propagate_batch(qs, c0, pulse, rb87, rtol=rtol, atol=rtol / 100)
        # the reference is the call made before the port: scipy with t_eval = [t1]
        monkeypatch.setattr(ladder, "solve_ivp", lambda fun, t_span, y0, **kw: solve_ivp(
            fun, t_span, y0, t_eval=[t_span[1]], **kw))
        assert np.array_equal(own, propagate_batch(qs, c0, pulse, rb87, rtol=rtol,
                                                   atol=rtol / 100))

    def test_counts_every_stage(self, rb87, mirror, monkeypatch):
        # one evaluation at t0, then 12 per attempted step (FSAL); no dense output
        sols, stepper = [], ladder.solve_ivp
        monkeypatch.setattr(ladder, "solve_ivp",
                            lambda *a, **kw: sols.append(stepper(*a, **kw)) or sols[-1])
        propagate_batch(np.array([0.0, 0.2]), ladder.unit_columns(default_j_window(3), 2, [0]),
                        mirror, rb87)
        (sol,) = sols
        assert sol.success and sol.naccepted > 0
        assert sol.t.tolist() == [mirror.dimensionless(rb87.units())[0]]
        assert sol.nfev == 1 + 12 * (sol.naccepted + sol.nrejected)

    def test_rejected_steps_match_scipy(self):
        # a first step far too long is rejected and shrunk as scipy does it
        def fun(t, y):
            return -1j * (1 + 40 * t) * y[::-1]
        y0, kw = np.array([1, 0.5j, 0]), dict(rtol=1e-9, atol=1e-12, first_step=0.5,
                                               max_step=1.0)
        own = ladder.solve_ivp(fun, (0.0, 3.0), y0, **kw)
        ref = solve_ivp(fun, (0.0, 3.0), y0, method="DOP853", **kw)
        assert own.nrejected > 0 and own.nfev == ref.nfev == 1 + 12 * (own.naccepted
                                                                       + own.nrejected)
        assert own.naccepted == len(ref.t) - 1 and np.array_equal(own.y[:, 0], ref.y[:, -1])

    def test_tableau_is_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as dop
        for own, theirs in [(ladder._A, dop.A[:12, :12]), (ladder._B, dop.B),
                            (ladder._C, dop.C[:12]), (ladder._E3, dop.E3), (ladder._E5, dop.E5)]:
            assert np.array_equal(own, theirs)

    def test_other_methods_are_rejected(self):
        with pytest.raises(ParameterError):
            ladder.solve_ivp(lambda t, y: -y, (0.0, 1.0), np.ones(2, complex), method="RK45",
                             rtol=1e-8, atol=1e-10, first_step=0.1)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_right_hand_side_fails_typed(self, rb87, mirror, monkeypatch):
        # a NaN derivative rejects every step until the step is below the
        # spacing of floats at t: a failed result, then an IntegrationError
        sol = ladder.solve_ivp(lambda t, y: np.full_like(y, np.nan), (1.0, 2.0),
                               np.ones(3, complex), rtol=1e-10, atol=1e-12,
                               first_step=1e-3, max_step=0.02)
        assert not sol.success and sol.naccepted == 0 and sol.nrejected > 0
        assert sol.nfev == 1 + 12 * sol.nrejected and "spacing" in sol.message
        monkeypatch.setattr(Envelope, "scalar", lambda self, u: np.nan)
        with pytest.raises(IntegrationError, match="ladder integration failed"):
            integrate_ladder(ladder_state(0, 0.0, order=3), mirror, rb87)


class TestSequenceAndFree:
    def test_free_evolution_phases(self, rb87):
        st = ladder_state(2, 0.3, order=3)
        out = propagate_sequence(st, PulseSequence((FreeEvolution(1e-3),)), rb87)
        T_t = rb87.units().to_dimensionless(1e-3, "time")
        assert out.amps[2 - st.j_min] == pytest.approx(
            np.exp(-1j * (0.3 + 2) ** 2 * T_t), rel=1e-12)


class TestTruncation:
    def test_zero_rabi_no_change(self, rb87):
        pulse = Pulse.on_resonance(rb87, 3, 90e-6, rabi_peak=0.0)
        rep = truncation_check(ladder_state(0, 0.0, order=3), pulse, rb87)
        assert rep.passes and rep.max_population_change == 0.0

    def test_acceptance_window_passes(self, rb87, mirror):
        st = ladder_state(0, 0.0, j_window=(-6, 9))
        rep = truncation_check(st, mirror, rb87)
        assert rep.passes

    def test_extreme_rabi_flagged(self, rb87):
        pulse = Pulse.on_resonance(rb87, 3, 90e-6, rabi_peak=TWO_PI * 500e3)
        rep = truncation_check(ladder_state(0, 0.0, order=3), pulse, rb87,
                               rtol=1e-8, atol=1e-10)
        assert not rep.passes
