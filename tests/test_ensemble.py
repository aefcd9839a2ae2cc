import numpy as np
import pytest
from scipy.stats import norm as norm_dist

from braggsim import ensemble, gridprop, ladder
from braggsim.ensemble import (DEFAULT_GH_NODES, MomentumDistribution, _class_masses,
                               class_populations, ensemble_average, reflectivity_matrix,
                               robustness_curve)
from braggsim.errors import ParameterError
from braggsim.pulses import FreeEvolution, Pulse, PulseSequence

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def mirror(rb87):
    return Pulse.on_resonance(rb87, 3, 90e-6, rabi_avg=TWO_PI * 23e3)


@pytest.fixture(scope="module")
def dmp(rb87):
    return Pulse.on_resonance(rb87, 3, 120e-6, rabi_avg=TWO_PI * 21e3)


def _full_matrix(pulse, dist, cfg, quadrature, n, **tol):
    """Raw reflectivity matrix from full-pulse propagate_batch columns at every node."""
    qs, wts = dist.nodes(quadrature)
    j_min, j_max = ladder.default_j_window(n)
    c = ladder.propagate_batch(qs, ladder.unit_columns((j_min, j_max), len(qs),
                                                       range(n + 1)), pulse, cfg, **tol)
    pops = np.abs(c[np.arange(n + 1) - j_min]) ** 2               # (b, q, a)
    return np.einsum("q,bqa->ab", wts, pops)


TIGHT = {"rtol": 1e-13, "atol": 1e-15}


class TestDistribution:
    def test_gauss_hermite_weights_normalized(self):
        d = MomentumDistribution("gaussian", 0.0, 0.13)
        p, w = d.nodes(41)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(p) == 31

    def test_delta_single_node(self):
        d = MomentumDistribution("delta", 0.4, 0.0)
        p, w = d.nodes()
        assert list(p) == [0.4] and list(w) == [1.0]

    def test_node_count_below_one_rejected(self, rb87, mirror):
        with pytest.raises(ParameterError):
            MomentumDistribution("gaussian", 0.0, 0.13).nodes(0)
        with pytest.raises(ParameterError):
            reflectivity_matrix(mirror, MomentumDistribution("gaussian", 0.0, 0.13), rb87,
                                quadrature=0)

    def test_negative_spread_rejected(self):
        with pytest.raises(ParameterError):
            MomentumDistribution("gaussian", 0.0, -0.1)


class TestClassPopulations:
    def test_plane_wave(self):
        st = gridprop.plane_wave(gridprop.Grid(), 0, 0.0)
        cp = class_populations(st, classes=range(4))
        assert cp[0] == pytest.approx(1.0, abs=1e-12)
        assert all(cp[c] < 1e-12 for c in (1, 2, 3))

    def test_equal_superposition(self):
        g = gridprop.Grid()
        psi = (np.exp(0j * g.x) + np.exp(3j * g.x)) / np.sqrt(2 * g.num_points)
        st = gridprop.GridState(g, psi, 0.0)
        cp = class_populations(st, classes=range(4))
        assert cp[0] == pytest.approx(0.5, abs=1e-12)
        assert cp[3] == pytest.approx(0.5, abs=1e-12)

    def test_ladder_state_exact(self):
        st = ladder.ladder_state(2, 0.0, order=3)
        cp = class_populations(st, classes=range(4))
        assert cp[2] == 1.0

    def test_gaussian_wavepacket_capture(self):
        # |psi(p)|^2 Gaussian with sigma = 0.13: the b = 0.5 bin around class 0
        # captures the erf mass, > 0.999
        g = gridprop.Grid(2048, 64)
        sigma_p = 0.13
        x = g.x - g.length / 2
        sigma_x = 1.0 / (2 * sigma_p)
        psi = np.exp(-x**2 / (4 * sigma_x**2)).astype(complex)
        psi /= np.linalg.norm(psi)
        st = gridprop.GridState(g, psi, 0.0)
        cp = class_populations(st, classes=range(-1, 2))
        expected = norm_dist.cdf(0.5 / sigma_p) - norm_dist.cdf(-0.5 / sigma_p)
        assert cp.raw[0] > 0.999
        assert cp.raw[0] == pytest.approx(expected, abs=5e-4)

    def test_normalization(self, rb87, mirror):
        out = ladder.integrate_ladder(ladder.ladder_state(0, 0.0, order=3),
                                      mirror, rb87)
        cp = class_populations(out, classes=range(4))
        assert sum(cp.probs.values()) == pytest.approx(1.0, abs=1e-12)


class TestEnsembleAverage:
    def test_zero_spread_equals_plane_wave(self, rb87, mirror):
        delta = MomentumDistribution("delta", 0.0, 0.0)
        cp = ensemble_average(mirror, delta, rb87)
        single = ladder.integrate_ladder(ladder.ladder_state(0, 0.0, order=3),
                                         mirror, rb87)
        for c in range(4):
            assert cp.raw[c] == pytest.approx(single.population(c), abs=1e-12)

    def test_quadrature_convergence(self, rb87, mirror, cloud):
        a = ensemble_average(mirror, cloud, rb87, quadrature=41)
        b = ensemble_average(mirror, cloud, rb87, quadrature=49)
        for c in range(4):
            assert abs(a[c] - b[c]) < 1e-4

    def test_incoherent_average_equals_coherent_wavepacket(self, rb87):
        # coherent wavepacket on the grid vs incoherent ladder average over
        # the same discrete momentum components
        pulse = Pulse.on_resonance(rb87, 1, 60e-6, rabi_avg=TWO_PI * 8e3)
        g = gridprop.Grid(512, 8)
        sigma_p = 0.1
        ks = np.sort(g.k)
        comps = ks[np.abs(ks) < 0.45]
        amps = np.exp(-comps**2 / (4 * sigma_p**2))
        amps /= np.linalg.norm(amps)
        psi = np.zeros(g.num_points, dtype=complex)
        for a, kv in zip(amps, comps):
            psi += a * np.exp(1j * kv * g.x) / np.sqrt(g.num_points)
        st = gridprop.GridState(g, psi, 0.0)
        out = gridprop.propagate_pulse(st, pulse, rb87, gridprop.GridOptions(tol=1e-9))
        pk = np.abs(np.fft.fft(out.psi)) ** 2
        pk /= pk.sum()
        coherent = {c: float(pk[(g.k >= c - 0.5) & (g.k < c + 0.5)].sum())
                    for c in (0, 1)}
        # each component a point cloud, weighted by a_k^2 by hand
        incoherent = sum(a**2 * np.array([ensemble_average(
            pulse, MomentumDistribution(p0=float(kv), dp=0.0), rb87, classes=(0, 1)).raw[c]
            for c in (0, 1)]) for kv, a in zip(comps, amps))
        for c in (0, 1):
            assert coherent[c] == pytest.approx(incoherent[c], abs=2e-6)

    def test_invalid_backend(self, rb87, mirror, cloud):
        with pytest.raises(ParameterError):
            ensemble_average(mirror, cloud, rb87, backend="tensor")

    def test_class_set_without_population_rejected(self, rb87):
        # a zero-Rabi pulse leaves class 0 full and classes 1, 2 exactly empty
        pulse = Pulse.on_resonance(rb87, 3, 90e-6, rabi_peak=0.0)
        delta = MomentumDistribution("delta", 0.0, 0.0)
        for classes in ((1, 2), ()):
            with pytest.raises(ParameterError):
                ensemble_average(pulse, delta, rb87, classes=classes)

    def test_classes_outside_ladder_window_rejected(self, rb87, mirror, monkeypatch):
        # the order-3 window is [-7, 10]: class -20 must not wrap onto class -2
        def never(*args, **kwargs):
            raise AssertionError("integrated before checking the classes")
        monkeypatch.setattr(ladder, "propagate_batch", never)
        delta = MomentumDistribution("delta", 0.0, 0.0)
        for classes in ((-20, 0, 1, 2, 3), (0, 30)):
            with pytest.raises(ParameterError):
                ensemble_average(mirror, delta, rb87, classes=classes)

    def test_classes_outside_grid_window_rejected(self, rb87, mirror, monkeypatch):
        # Grid(512, 8) resolves [-32, 32): class 40 must not alias onto class -24
        def never(*args, **kwargs):
            raise AssertionError("propagated before checking the classes")
        monkeypatch.setattr(gridprop, "run_sequence", never)
        delta = MomentumDistribution("delta", 0.0, 0.0)
        for backend in ("ladder", "grid"):
            with pytest.raises(ParameterError):
                ensemble_average(mirror, delta, rb87, backend=backend, classes=(40, -24))
        for kw in ({"classes": (0, 32)}, {"classes": (-33, 0)}):
            with pytest.raises(ParameterError):
                ensemble_average(mirror, delta, rb87, backend="grid", **kw)
        with pytest.raises(AssertionError):   # the window's own edges pass the check
            ensemble_average(mirror, delta, rb87, backend="grid", classes=(-32, 31))


class TestReflectivity:
    def test_zero_rabi_identity(self, rb87, cloud):
        pulse = Pulse.on_resonance(rb87, 3, 90e-6, rabi_peak=0.0)
        rec = reflectivity_matrix(pulse, cloud, rb87)
        assert np.allclose(rec.matrix, np.eye(4), atol=1e-12)

    def test_rows_normalized(self, rb87, mirror, cloud):
        rec = reflectivity_matrix(mirror, cloud, rb87)
        assert np.allclose(rec.matrix.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(rec.raw_matrix.sum(axis=1) <= 1.0 + 1e-10)

    def test_delta_ladder_equals_plane_wave(self, rb87, mirror):
        delta = MomentumDistribution("delta", 0.0, 0.0)
        rec = reflectivity_matrix(mirror, delta, rb87)
        for a in range(4):
            st = ladder.integrate_ladder(ladder.ladder_state(a, 0.0, order=3),
                                         mirror, rb87)
            total = sum(st.population(b) for b in range(4))
            for b in range(4):
                assert rec.matrix[a, b] == pytest.approx(st.population(b) / total,
                                                         abs=1e-12)

    def test_direction_symmetry(self, rb87, mirror, cloud):
        rec = reflectivity_matrix(mirror, cloud, rb87)
        for a, b in ((0, 3), (1, 2)):
            fwd, rev = rec.pair_directional(a, b)
            assert abs(fwd - rev) < 0.02

    def test_grid_backend_agrees(self, rb87, mirror):
        delta = MomentumDistribution("delta", 0.0, 0.0)
        rl = reflectivity_matrix(mirror, delta, rb87, backend="ladder")
        rg = reflectivity_matrix(mirror, delta, rb87, backend="grid")
        assert np.max(np.abs(rl.matrix - rg.matrix)) < 1e-4

    def test_order_5_mirror_matches_tight_reference(self, rb87, cloud):
        # the order-5 Blackman mirror at 200 us, 2*pi*110 kHz; the literals are the
        # raw matrix of an rtol 1e-13, atol 1e-15 run over the same 41 nodes
        pulse = Pulse.on_resonance(rb87, 5, 200e-6, rabi_avg=TWO_PI * 110e3)
        ref = np.array([
            [0.360037267728819, 0.00258469182081496, 6.83280993016272e-05,
             7.9182158541467e-05, 0.00545914891728509, 0.62994339002377],
            [0.00258469182081495, 0.950007863537528, 0.0131795042641964,
             0.0028160846596266, 0.0259502814122752, 0.00545914891728513],
            [6.83280993016272e-05, 0.0131795042641964, 0.981682696034638,
             0.00217415804708883, 0.00281608465962673, 7.91821585414808e-05],
            [7.9182158541467e-05, 0.0028160846596266, 0.00217415804708883,
             0.981682696034638, 0.0131795042641965, 6.83280993015989e-05],
            [0.00545914891728508, 0.0259502814122752, 0.00281608465962673,
             0.0131795042641965, 0.950007863537528, 0.00258469182081495],
            [0.62994339002377, 0.00545914891728513, 7.91821585414808e-05,
             6.83280993015988e-05, 0.00258469182081495, 0.360037267728819]])
        raw = reflectivity_matrix(pulse, cloud, rb87).raw_matrix
        assert np.max(np.abs(raw - ref)) <= 1e-9


class TestReciprocity:
    """A time-symmetric envelope gives P(a -> b) = P(b -> a) exactly."""

    @pytest.mark.parametrize("n, tau, rabi_khz", [(3, 90e-6, 23.0), (5, 150e-6, 40.0)])
    def test_symmetric_envelope_symmetric_matrix(self, rb87, cloud, n, tau, rabi_khz):
        # on full-pulse columns: reflectivity_matrix is symmetric by construction
        pulse = Pulse.on_resonance(rb87, n, tau, rabi_avg=TWO_PI * rabi_khz * 1e3)
        for dist in (MomentumDistribution("delta", 0.0, 0.0), cloud):
            raw = _full_matrix(pulse, dist, rb87, 9, n)
            assert np.max(np.abs(raw - raw.T)) <= 1e-12

    def test_asymmetric_envelope_control(self, rb87, ramp_pulse):
        # a linear ramp-down has no time symmetry, so reciprocity is lost; the
        # matrix is not symmetric, so matching row 1 pins (input, class) order
        pulse = ramp_pulse(rb87, 3, 90e-6, TWO_PI * 23e3)
        raw = reflectivity_matrix(pulse, MomentumDistribution("delta", 0.0, 0.0),
                                  rb87).raw_matrix
        assert np.max(np.abs(raw - raw.T)) > 1e-2
        single = ladder.integrate_ladder(ladder.ladder_state(1, 0.0, order=3), pulse, rb87)
        for b in range(4):
            assert raw[1, b] == pytest.approx(single.population(b), abs=1e-12)


class TestRobustness:
    def test_grid_must_ascend(self, rb87, mirror):
        with pytest.raises(ParameterError):
            robustness_curve(mirror, [0.2, 0.1], rb87)

    def test_curve_fields(self, rb87, dmp):
        recs, stats = robustness_curve(dmp, [0.0, 0.1], rb87, quadrature=21)
        assert recs[0].pair(0, 3) > recs[1].pair(0, 3)  # velocity selectivity
        assert stats["response_points"] == stats["quasimomenta_propagated"] >= 65


class TestResponseTable:
    """One Chebyshev table of P_ab(q) stands in for the per-spread solves."""

    DPS = np.linspace(0.0, 0.3, 21)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of reflectivity_matrix calls and of ladder solves, whole or half pulse."""
        calls = {"reflectivity_matrix": 0, "propagate_batch": 0}
        for module, name in ((ensemble, "reflectivity_matrix"), (ladder, "propagate_batch")):
            def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("n, p_c", [(3, 0.0), (3, 0.3), (4, 0.0), (4, 0.3)])
    def test_table_matches_direct_path(self, rb87, calls, n, p_c):
        pulse = Pulse.on_resonance(rb87, n, 100e-6, rabi_avg=TWO_PI * 25e3,
                                   p0=p_c * rb87.unit("momentum"))
        dps = self.DPS[::10]
        recs, stats = robustness_curve(pulse, dps, rb87, p0=p_c)
        assert calls["reflectivity_matrix"] == 0 and stats["response_points"] >= 65
        for dp, rec in zip(dps, recs):
            direct = reflectivity_matrix(pulse, MomentumDistribution(p0=p_c, dp=dp), rb87)
            assert np.max(np.abs(rec.raw_matrix - direct.raw_matrix)) <= 1e-10
        # a one-node solve at the default tolerance is itself ~2e-12 off, so the
        # point cloud is solved tightly
        delta = reflectivity_matrix(pulse, MomentumDistribution("delta", p_c), rb87,
                                    rtol=1e-13, atol=1e-15)
        assert np.max(np.abs(recs[0].raw_matrix - delta.raw_matrix)) <= 1e-12

    def test_table_takes_few_solves(self, rb87, calls, mirror):
        recs, stats = robustness_curve(mirror, self.DPS, rb87)
        assert len(recs) == 21 and calls["reflectivity_matrix"] == 0
        assert calls["propagate_batch"] <= 3
        assert stats["quasimomenta_propagated"] == stats["response_points"]
        assert stats["response_tail"] < 1e-12

    def test_fallbacks_solve_each_spread(self, rb87, calls, monkeypatch, mirror):
        monkeypatch.setattr(ensemble, "_class_masses", lambda *args: (np.eye(4), None))
        dps = self.DPS[:3]
        for kw, nodes in [({"backend": "grid"}, 1 + 31 * 2),     # dp = 0 is one node
                          ({"p0": 0.1}, 1 + 31 * 2)]:
            calls["reflectivity_matrix"] = 0
            recs, stats = robustness_curve(mirror, dps, rb87, **kw)
            assert calls["reflectivity_matrix"] == len(recs) == 3, kw
            assert calls["propagate_batch"] == 0
            assert stats == {"response_points": 0, "response_tail": 0.0,
                             "quasimomenta_propagated": nodes}


class TestMomentumMirror:
    """The ladder propagates the nodes q >= p_c only when the reflection holds."""

    @pytest.fixture
    def batch_sizes(self, monkeypatch):
        """Quasimomenta per ladder solve, whole pulse or half pulse, in call order."""
        sizes = []
        def spy(qs, *args, _run=ladder.propagate_batch, **kwargs):
            sizes.append(len(qs))
            return _run(qs, *args, **kwargs)
        monkeypatch.setattr(ladder, "propagate_batch", spy)
        return sizes

    @pytest.mark.parametrize("n, p_c, nodes, half", [(3, 0.0, 41, 16), (3, 0.3, 40, 16),
                                                     (4, 0.3, 41, 16), (4, 0.0, 40, 16)])
    def test_centred_gauss_hermite_runs_half(self, rb87, batch_sizes, n, p_c, nodes, half):
        pulse = Pulse.on_resonance(rb87, n, 100e-6, rabi_avg=TWO_PI * 25e3,
                                   p0=p_c * rb87.unit("momentum"))
        dist = MomentumDistribution("gaussian", p_c, 0.13)
        raw = reflectivity_matrix(pulse, dist, rb87, quadrature=nodes).raw_matrix
        assert batch_sizes == [half]
        ref = _full_matrix(pulse, dist, rb87, nodes, n, **TIGHT)
        assert np.max(np.abs(raw - ref)) <= 1e-12
        # the half pulse at the default tolerance is no farther off than the whole one
        full = _full_matrix(pulse, dist, rb87, nodes, n)
        assert np.max(np.abs(raw - ref)) <= np.max(np.abs(full - ref))

    def test_full_batch_otherwise(self, rb87, batch_sizes, mirror, cloud):
        gh = 9
        tilted = Pulse.on_resonance(rb87, 3, 90e-6, rabi_avg=TWO_PI * 23e3,
                                    p0=0.3 * rb87.unit("momentum"))
        runs = [
            lambda: reflectivity_matrix(tilted, cloud, rb87, quadrature=gh),
            lambda: ensemble_average(mirror, cloud, rb87, quadrature=gh),
            lambda: reflectivity_matrix(mirror, cloud, rb87, order=4, quadrature=gh),
            lambda: reflectivity_matrix(PulseSequence((mirror, mirror)), cloud, rb87,
                                        quadrature=gh),
            lambda: reflectivity_matrix(mirror, MomentumDistribution(p0=0.0), rb87),
        ]
        for run in runs:
            run()
        assert batch_sizes == [9] * 5 + [1]

    def test_half_pulse_only_for_one_symmetric_pulse(self, rb87, mirror, cloud, ramp_pulse,
                                                     monkeypatch):
        paths = []   # the part of the pulse each ladder solve crosses
        def spy(*args, _run=ladder.propagate_batch, **kwargs):
            paths.append(kwargs.get("part", 1.0))
            return _run(*args, **kwargs)
        monkeypatch.setattr(ladder, "propagate_batch", spy)
        gh = 5
        lone = reflectivity_matrix(mirror, cloud, rb87, quadrature=gh).raw_matrix
        reflectivity_matrix(ramp_pulse(rb87, 3, 90e-6, TWO_PI * 23e3), cloud, rb87,
                            quadrature=gh)
        ensemble_average(mirror, cloud, rb87, quadrature=gh)
        reflectivity_matrix(PulseSequence((mirror, mirror)), cloud, rb87, quadrature=gh)
        assert paths == [0.5] + [1.0] * 4
        # free time around the one pulse leaves it a half-pulse solve
        paths.clear()
        for items in ((FreeEvolution(3e-4), mirror), (mirror, FreeEvolution(3e-4))):
            raw = reflectivity_matrix(PulseSequence(items), cloud, rb87,
                                      quadrature=gh).raw_matrix
            assert np.max(np.abs(raw - lone)) <= 1e-12
        assert paths == [0.5] * 2

    def test_grid_backend_runs_every_node(self, rb87, batch_sizes, mirror, cloud,
                                          monkeypatch):
        states = []
        monkeypatch.setattr(gridprop, "run_sequence",
                            lambda state, items, cfg, opts: states.append(state) or state)
        quad = 5
        reflectivity_matrix(mirror, cloud, rb87, quadrature=quad, backend="grid")
        assert batch_sizes == []
        (st,) = states      # one row per input and node, input-major
        assert st.psi.shape == (20, 64)
        assert list(st.q) == list(cloud.nodes(quad)[0]) * 4
        assert np.array_equal(np.argmax(np.abs(np.fft.fft(st.psi)), axis=1),
                              np.repeat(range(4), 5))


class TestGridRows:
    """The grid runs every input and node as a row of one comb-grid state."""

    def test_comb_grid_matches_configured_grid(self, rb87, mirror, monkeypatch):
        # the same rows on Grid(512, 8) take the same steps; tol 1e-5 keeps it quick
        opts = gridprop.GridOptions(tol=1e-5)
        seq = PulseSequence((mirror,))
        runs = [(MomentumDistribution("delta", 0.0, 0.0), range(4)),
                (MomentumDistribution("gaussian", 0.1, 0.13), (0,))]

        def masses(dist, inputs):
            return _class_masses(seq, dist, rb87, tuple(inputs), (0, 1, 2, 3), DEFAULT_GH_NODES,
                                 "grid", None, None, opts)[0]
        comb = [masses(*run) for run in runs]
        monkeypatch.setattr(gridprop.Grid, "comb", property(lambda grid: grid))
        for run, c in zip(runs, comb):
            assert np.max(np.abs(masses(*run) - c)) <= 1e-13

    def test_sequence_with_free_evolution_equals_ladder(self, rb87):
        tau = 250e-6
        bs = Pulse.on_resonance(rb87, 1, tau, rabi_avg=np.pi / 2 / tau)
        mirror = Pulse.on_resonance(rb87, 1, tau, rabi_avg=np.pi / tau, phase=0.4)
        seq = PulseSequence((bs, FreeEvolution(2e-4), mirror, FreeEvolution(2e-4), bs))
        cloud = MomentumDistribution("gaussian", 0.05, 0.02)
        quad = 5
        lad = ensemble_average(seq, cloud, rb87, quadrature=quad)
        grid = ensemble_average(seq, cloud, rb87, quadrature=quad, backend="grid")
        for c in (0, 1):
            assert grid.raw[c] == pytest.approx(lad.raw[c], abs=1e-8)
