import json
import os
from dataclasses import replace

import numpy as np
import pytest

from braggsim import gridprop, ladder
from braggsim.errors import ParameterError
from braggsim.gridprop import Grid, GridOptions, class_masses, free_evolve, plane_wave, \
    momentum_populations, propagate_pulse, propagate_pulse_fixed
from braggsim.pulses import Pulse
from braggsim.splitting import PP56, SplittingScheme

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def mirror(rb87):
    return Pulse.on_resonance(rb87, 3, 90e-6, rabi_avg=TWO_PI * 23e3)


class TestGrid:
    def test_power_of_two_required(self):
        with pytest.raises(ParameterError):
            Grid(num_points=500)

    def test_momentum_spacing(self):
        g = Grid(512, 8)
        k = np.sort(g.k)
        assert np.allclose(np.diff(k), 1.0 / 8)
        assert g.nyquist == 32.0

    def test_order_check(self):
        Grid(512, 8).check_order(8)
        with pytest.raises(ParameterError):
            Grid(64, 8).check_order(3)  # nyquist 4 < 3 + 4

    @pytest.mark.parametrize("periods", [3, 256, 1024])
    def test_periods_must_leave_a_comb_grid(self, periods):
        # 3 does not divide 512; 256 and 1024 leave fewer than 4 points per period
        with pytest.raises(ParameterError):
            Grid(512, periods)

    def test_comb_grid_keeps_the_nyquist_window(self):
        g = Grid(512, 8)
        assert g.comb == Grid(64, 1)
        assert g.comb.nyquist == g.nyquist
        assert np.allclose(np.sort(g.comb.k), np.arange(-32, 32), rtol=0, atol=1e-12)


class TestKinetic:
    def test_identity_on_zero_momentum(self):
        st = plane_wave(Grid(), 0, 0.0)
        out = free_evolve(st, 0.37)
        assert np.allclose(out.psi, st.psi, atol=1e-14)

    def test_global_phase_on_recoil_state(self):
        st = plane_wave(Grid(), 1, 0.0)
        t = 0.83
        out = free_evolve(st, t)
        assert np.allclose(out.psi, st.psi * np.exp(-1j * t), atol=1e-12)

    def test_gaussian_spreading_law(self):
        # sigma(t)^2 = sigma0^2 + (t/sigma0)^2 for H = p^2 (hbar = 1, 2m = 1)
        g = Grid(2048, 32)
        x = g.x
        x0 = g.length / 2
        sigma0 = 2.0
        psi = np.exp(-((x - x0) ** 2) / (4 * sigma0**2)).astype(complex)
        psi /= np.linalg.norm(psi)
        st = gridprop.GridState(g, psi, 0.0)
        t = 1.5
        out = free_evolve(st, t)
        prob = np.abs(out.psi) ** 2
        prob /= prob.sum()
        mean = float(np.sum(x * prob))
        var = float(np.sum((x - mean) ** 2 * prob))
        expected = sigma0**2 + (t / sigma0) ** 2
        assert var == pytest.approx(expected, rel=1e-10)


# one weight: the role-swapped member's first B substep is at clock t and lasts h
ONE_WEIGHT = SplittingScheme(a=(1.0,), err_order=1)


def potential_phase(state, pulse, cfg, t, duration):
    """The potential substep's pointwise phase exp(-i V(x, t) duration) applied to psi."""
    table = gridprop._Stepper(state, pulse, cfg, ONE_WEIGHT).potential_table(t, duration, 1)
    return state.psi * table[0]


class TestPotential:
    def test_zero_rabi_is_identity(self, rb87):
        st = plane_wave(Grid(), 0, 0.0)
        pulse = Pulse.on_resonance(rb87, 3, 90e-6, rabi_peak=0.0)
        out = potential_phase(st, pulse, rb87, 1.0, 0.01)
        assert np.array_equal(out, st.psi)

    def test_norm_preserved(self, rb87, mirror):
        st = plane_wave(Grid(), 0, 0.0)
        out = potential_phase(st, mirror, rb87, 4.0, 0.05)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-14

    def test_lattice_average_phase(self, rb87):
        # rectangular envelope, f = 1: <V> over a lattice period = rabi_peak
        W = 1.3 * rb87.omega_k
        pulse = Pulse.on_resonance(rb87, 1, 90e-6, rabi_peak=W,
                                   envelope_kind="rectangular")
        st = plane_wave(Grid(), 0, 0.0)
        dt = 1e-3
        out = potential_phase(st, pulse, rb87, 0.0, dt)
        # projection onto the unchanged plane wave gives exp(-i <V> dt) to O(dt^2)
        overlap = np.vdot(st.psi, out)
        W_t = W / rb87.omega_k
        assert np.angle(overlap) == pytest.approx(-W_t * dt, abs=1e-5 * W_t * dt + 1e-12)

    def test_first_order_sideband_transfer(self, rb87):
        # exp(-iV dt) ~ 1 - iV dt puts W*f*dt/2 amplitude at p = +-1
        W = 0.8 * rb87.omega_k
        pulse = Pulse.on_resonance(rb87, 1, 90e-6, rabi_peak=W,
                                   envelope_kind="rectangular")
        st = plane_wave(Grid(), 0, 0.0)
        dt = 1e-4
        out = potential_phase(st, pulse, rb87, 0.0, dt)
        ft = np.fft.fft(out) / np.sqrt(out.size)
        k = st.grid.k
        amp_plus = ft[np.argmin(np.abs(k - 1))]
        expected = 0.8 * dt / 2
        assert abs(amp_plus) == pytest.approx(expected, rel=1e-3)


class TestPropagatePulse:
    def test_zero_rabi_equals_kinetic(self, rb87):
        pulse = Pulse.on_resonance(rb87, 3, 90e-6, rabi_peak=0.0)
        st = plane_wave(Grid(), 2, 0.1)
        out = propagate_pulse(st, pulse, rb87)
        tau_t = rb87.to_dimensionless(90e-6, "time")
        ref = free_evolve(st, tau_t)
        assert np.max(np.abs(out.psi - ref.psi)) < 1e-9

    def test_norm_drift(self, rb87, mirror):
        st = plane_wave(Grid(), 0, 0.0)
        out = propagate_pulse(st, mirror, rb87)
        assert abs(np.linalg.norm(out.psi) - 1.0) < 1e-10

    def test_quasimomentum_conservation(self, rb87, mirror):
        st = plane_wave(Grid(), 0, 0.0)
        out = propagate_pulse(st, mirror, rb87)
        pops = momentum_populations(out)
        assert pops["offcomb"] < 1e-12

    def test_two_level_pi_half_pulse(self, rb87):
        # deep-Bragg first order: area = rabi_avg * tau = pi/2
        tau = 300e-6
        rabi_avg = (np.pi / 2) / tau
        pulse = Pulse.on_resonance(rb87, 1, tau, rabi_avg=rabi_avg)
        out = propagate_pulse(plane_wave(Grid(), 0, 0.0), pulse, rb87)
        pops = class_masses(out, (0, 1))
        assert pops[0] == pytest.approx(0.5, abs=0.02)
        assert pops[1] == pytest.approx(0.5, abs=0.02)
        # cross-check against the ladder oracle
        lout = ladder.integrate_ladder(ladder.ladder_state(0, 0.0, order=1), pulse, rb87)
        assert pops[0] == pytest.approx(lout.population(0), abs=1e-4)

    def test_third_order_mirror_plane_wave_transfer(self, rb87, mirror):
        out = propagate_pulse(plane_wave(Grid(), 0, 0.0), mirror, rb87)
        pops = class_masses(out, range(4))
        assert pops[3] > 0.9
        lout = ladder.integrate_ladder(ladder.ladder_state(0, 0.0, order=3), mirror, rb87)
        assert pops[3] == pytest.approx(lout.population(3), abs=1e-4)

    def test_rectangular_pulse_keeps_the_order_at_its_edges(self, rb87):
        # pp56's substep clocks leave the pulse by up to 0.21 h, where the envelope's
        # mirror image continues it; a zero there would be a jump that no step clears
        pulse = Pulse.on_resonance(rb87, 1, 100e-6, rabi_avg=(np.pi / 2) / 100e-6,
                                   envelope_kind="rectangular")
        out = propagate_pulse(plane_wave(Grid().comb, np.arange(2), 0.0), pulse, rb87)
        for j in (0, 1):
            lout = ladder.integrate_ladder(ladder.ladder_state(j, 0.0, order=1), pulse, rb87,
                                           rtol=1e-13, atol=1e-15)
            pops = class_masses(gridprop.GridState(out.grid, out.psi[j], 0.0), (0, 1))
            assert np.max(np.abs(pops - [lout.population(0), lout.population(1)])) < 1e-11

    def test_stiffness_guard(self):
        for tol in (-1.0, 0.0):
            with pytest.raises(ParameterError):
                GridOptions(tol=tol)

    def test_pp56_tol_has_a_tenfold_margin_above_underflow(self, rb87, mirror):
        # the pair's estimate has a roundoff floor, below which a step can never pass;
        # pp56 clears it at a tenth of its default tol on the check pulse's comb rows
        rows = plane_wave(Grid().comb, np.arange(4), 0.0)
        out = propagate_pulse(rows, mirror, rb87, GridOptions(tol=PP56.tol / 10))
        assert np.max(np.abs(np.linalg.norm(out.psi, axis=-1) - 1.0)) < 1e-10

    def test_last_step_ends_on_tau(self, rb87):
        # at tol 3e-11 an accepted step used to end 1.2e-6 short of tau, a
        # remainder below the pair estimate's roundoff floor: every retry failed
        pulse = Pulse.on_resonance(rb87, 3, 120e-6, rabi_avg=TWO_PI * 21e3, phase=0.4)
        out = propagate_pulse(plane_wave(Grid().comb, np.arange(4), 0.0), pulse, rb87,
                              GridOptions(tol=3e-11))
        for j in range(4):
            lout = ladder.integrate_ladder(ladder.ladder_state(j, 0.0, order=3), pulse, rb87,
                                           rtol=1e-13, atol=1e-15)
            pops = class_masses(gridprop.GridState(out.grid, out.psi[j], 0.0), range(4))
            assert np.max(np.abs(pops - [lout.population(c) for c in range(4)])) < 1e-12


class TestFixedStepAndReversal:
    def test_zero_steps_rejected(self, rb87, mirror):
        with pytest.raises(ParameterError):
            propagate_pulse_fixed(plane_wave(Grid(), 0, 0.0), mirror, rb87, n_steps=0)

    def test_order_beyond_nyquist_rejected(self, rb87, mirror):
        with pytest.raises(ParameterError):   # nyquist 4 < 3 + 4
            propagate_pulse_fixed(plane_wave(Grid(16, 2), 0, 0.0), mirror, rb87)

    def test_unknown_run_rejected(self, rb87, mirror):
        with pytest.raises(ParameterError):
            propagate_pulse_fixed(plane_wave(Grid(), 0, 0.0), mirror, rb87, run="reverse")

    def test_palindromic_reversal(self, rb87, mirror):
        st = plane_wave(Grid(), 0, 0.0)
        fwd = propagate_pulse_fixed(st, mirror, rb87, n_steps=350, run="primary")
        back = propagate_pulse_fixed(fwd, mirror, rb87, n_steps=350, run="backward")
        assert np.linalg.norm(back.psi - st.psi) < 1e-8

    def test_convergence_order(self, rb87):
        pulse = Pulse.on_resonance(rb87, 2, 40e-6, rabi_avg=TWO_PI * 18e3)
        st = plane_wave(Grid(256, 8), 0, 0.0)
        steps = [48, 96, 192]
        ref = propagate_pulse_fixed(st, pulse, rb87, n_steps=steps[-1] * 16)
        errs = [np.linalg.norm(propagate_pulse_fixed(st, pulse, rb87, n_steps=ns).psi
                               - ref.psi) for ns in steps]
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert -slope >= 4.8


class TestLockstep:
    """The pair's members advance side by side on one (2, *psi.shape) array."""

    @pytest.mark.parametrize("case", ["comb-rows-at-q0", "rows-with-phases", "one-row"])
    def test_pair_is_both_members_one_after_the_other(self, rb87, mirror, case):
        comb, pulse = Grid().comb, mirror
        if case == "comb-rows-at-q0":        # the oracle's rows: one shared kinetic row
            st = plane_wave(comb, np.arange(4), np.zeros(4))
        elif case == "rows-with-phases":     # the grid fringe scan's rows
            st = plane_wave(comb, np.zeros(6, int), np.tile([-0.1, 0.2], 3))
            pulse = replace(mirror, phase=np.repeat([0.0, 1.0, 2.5], 2))
        else:
            st = plane_wave(Grid(), 1, 0.07)
        stepper = gridprop._Stepper(st, pulse, rb87)
        tau = stepper.tau
        for t, h in ((0.0, tau / 7), (0.4 * tau, tau / 11), (tau - tau / 9, tau / 9)):
            two = stepper.pair(st.psi, t, h)
            one_by_one = np.stack([stepper.member(st.psi, t, h, m) for m in (0, 1)])
            assert two.tobytes() == one_by_one.tobytes()
        rows = stepper.kinetic_table(tau / 9).shape[2:-1]
        assert rows == {"comb-rows-at-q0": (1,), "rows-with-phases": (6,), "one-row": ()}[case]

    def test_one_pp56_step_makes_eight_ffts(self, rb87, mirror, monkeypatch):
        # both members' A substeps cross as one transform of the stacked array
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return np.fft.fft(a, *args, **kwargs)
        monkeypatch.setattr(gridprop, "fft", counted)
        st = plane_wave(Grid().comb, np.arange(4), np.zeros(4))
        propagate_pulse_fixed(st, mirror, rb87, n_steps=1)
        assert len(calls) == len(PP56.a) == 8


class TestFreeEvolve:
    def test_zero_duration_identity(self, rb87):
        st = plane_wave(Grid(), 1, 0.2)
        out = free_evolve(st, 0.0)
        assert np.array_equal(out.psi, st.psi)

    def test_plane_wave_phase(self, rb87):
        st = plane_wave(Grid(), 2, 0.0)
        T = 0.71
        out = free_evolve(st, T)
        assert np.allclose(out.psi, st.psi * np.exp(-1j * 4 * T), atol=1e-12)

    def test_composition(self, rb87):
        st = plane_wave(Grid(), 1, 0.13)
        a = free_evolve(free_evolve(st, 0.4), 0.6)
        b = free_evolve(st, 1.0)
        assert np.max(np.abs(a.psi - b.psi)) < 1e-12

    def test_negative_rejected(self, rb87):
        with pytest.raises(ParameterError):
            free_evolve(plane_wave(Grid(), 0, 0.0), -1e-6)


class TestRows:
    """A (rows, M) state: one plane wave and quasimomentum per row."""

    JS, QS = np.array([0, 1, 2, 3]), np.array([0.1, -0.2, 0.05, 0.3])

    def test_rows_match_one_at_a_time(self, rb87):
        # the rows share the steps of the worst row, so each differs from its own
        # run by less than the controller's error, which shrinks with tol: 4.3e-13 at
        # the default 1e-10 and 1.1e-13 at 3e-11 (6.2e-12 at 1e-9)
        pulse = Pulse.on_resonance(rb87, 2, 40e-6, rabi_avg=TWO_PI * 18e3)
        g = Grid(64, 1)
        classes = range(-2, 6)
        for tol in (PP56.tol, 3e-11):
            opts = GridOptions(tol=tol)
            rows = propagate_pulse(plane_wave(g, self.JS, self.QS), pulse, rb87, opts)
            assert rows.psi.shape == (4, 64)
            one = np.array([gridprop.class_masses(propagate_pulse(
                plane_wave(g, j, q), pulse, rb87, opts), classes)
                for j, q in zip(self.JS, self.QS)])
            assert np.max(np.abs(gridprop.class_masses(rows, classes) - one)) <= 1e-12

    def test_fixed_steps_and_free_evolution_broadcast(self, rb87, mirror):
        g = Grid(64, 1)
        rows = free_evolve(propagate_pulse_fixed(plane_wave(g, self.JS, self.QS), mirror,
                                                 rb87, n_steps=50), 0.37)
        for r, (j, q) in enumerate(zip(self.JS, self.QS)):
            one = free_evolve(propagate_pulse_fixed(plane_wave(g, j, q), mirror, rb87,
                                                    n_steps=50), 0.37)
            assert np.max(np.abs(rows.psi[r] - one.psi)) <= 1e-14

    def test_one_dimensional_state_keeps_its_steps(self, rb87, monkeypatch):
        # a stored run of the one-row controller: every trial step and the result
        with open(os.path.join(os.path.dirname(__file__), "data", "grid_1d_steps.json")) as fh:
            ref = json.load(fh)
        steps, pair = [], gridprop._Stepper.pair

        def spy(self, psi, t, h):
            steps.append(h)
            return pair(self, psi, t, h)
        monkeypatch.setattr(gridprop._Stepper, "pair", spy)
        pulse = Pulse.on_resonance(rb87, ref["order"], ref["tau_s"],
                                   rabi_avg=TWO_PI * ref["rabi_avg_hz"])
        out = propagate_pulse(plane_wave(Grid(*ref["grid"]), ref["input"], ref["q"]), pulse,
                              rb87, GridOptions(tol=ref["tol"]))
        assert np.array_equal(steps, ref["h"])
        assert np.array_equal(out.psi, np.array(ref["psi_re"]) + 1j * np.array(ref["psi_im"]))

    def test_fixed_step_pair_keeps_its_result(self, rb87):
        # a stored forward (pair-averaged) and backward pass: every step has the same h,
        # so both members of the pair reuse each cached kinetic factor
        with open(os.path.join(os.path.dirname(__file__), "data",
                               "grid_1d_fixed_pair.json")) as fh:
            ref = json.load(fh)
        pulse = Pulse.on_resonance(rb87, ref["order"], ref["tau_s"],
                                   rabi_avg=TWO_PI * ref["rabi_avg_hz"])
        st = plane_wave(Grid(*ref["grid"]), ref["input"], ref["q"])
        fwd = propagate_pulse_fixed(st, pulse, rb87, n_steps=ref["n_steps"])
        back = propagate_pulse_fixed(fwd, pulse, rb87, n_steps=ref["n_steps"], run="backward")
        for name, out in (("fwd", fwd), ("back", back)):
            assert np.array_equal(out.psi, np.array(ref[f"{name}_re"])
                                  + 1j * np.array(ref[f"{name}_im"]))

    def test_fixed_primary_pair_keeps_its_result(self, rb87):
        # check's two fixed passes on rows, stored: the plain member forward and the
        # role-swapped member backward
        with open(os.path.join(os.path.dirname(__file__), "data",
                               "grid_fixed_primary.json")) as fh:
            ref = json.load(fh)
        pulse = Pulse.on_resonance(rb87, ref["order"], ref["tau_s"],
                                   rabi_avg=TWO_PI * ref["rabi_avg_hz"])
        st = plane_wave(Grid(*ref["grid"]), np.array(ref["inputs"]), np.array(ref["q"]))
        fwd = propagate_pulse_fixed(st, pulse, rb87, n_steps=ref["n_steps"], run="primary")
        back = propagate_pulse_fixed(fwd, pulse, rb87, n_steps=ref["n_steps"], run="backward")
        for name, out in (("fwd", fwd), ("back", back)):
            assert np.array_equal(out.psi, np.array(ref[f"{name}_re"])
                                  + 1j * np.array(ref[f"{name}_im"]))
