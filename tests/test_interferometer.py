import json
import os
from dataclasses import replace

import numpy as np
import pytest

from braggsim import gridprop, ladder
from braggsim.config import parse_config
from braggsim.ensemble import MomentumDistribution
from braggsim.errors import ParameterError
from braggsim.interferometer import (fit_fringe, fringe_scan, mirror_response,
                                     path_resolved_mzi, run_mzi)
from braggsim.pulses import (FreeEvolution, Pulse, PulseSequence,
                             mach_zehnder_sequence)

TWO_PI = 2 * np.pi
FAST = 9
DELTA = MomentumDistribution("delta", 0.0, 0.0)


def _ideal_two_level_mzi(cfg, phi3=0.0, t_free=2e-4):
    # deep-Bragg first order: rabi_avg * tau sets the pulse area
    tau = 250e-6
    om_pi = np.pi / tau
    return mach_zehnder_sequence(cfg, 1, tau, om_pi / 2, tau, om_pi, t_free,
                                 phi3=phi3)


class TestRunMzi:
    def test_lattice_off_stays_in_class_zero(self, rb87):
        p0 = Pulse.on_resonance(rb87, 3, 90e-6, rabi_peak=0.0)
        seq = PulseSequence((p0, FreeEvolution(1e-4), p0, FreeEvolution(1e-4), p0))
        rep = run_mzi(seq, DELTA, rb87)
        assert rep.ports[0] == pytest.approx(1.0, abs=1e-10)
        assert rep.ports[3] == pytest.approx(0.0, abs=1e-10)

    def test_ports_plus_undetected_is_one(self, rb87, cloud):
        seq = mach_zehnder_sequence(rb87, 3, 90e-6, TWO_PI * 16.2e3,
                                    120e-6, TWO_PI * 21e3, 5e-4)
        rep = run_mzi(seq, cloud, rb87, quadrature=FAST)
        assert sum(rep.ports.values()) + rep.undetected == pytest.approx(1.0, abs=1e-9)

    def test_two_level_fringe_extrema(self, rb87):
        bright = run_mzi(_ideal_two_level_mzi(rb87, phi3=0.0), DELTA, rb87)
        dark = run_mzi(_ideal_two_level_mzi(rb87, phi3=np.pi), DELTA, rb87)
        # (1 + cos(phi3))/2 behavior up to a fixed offset phase: the two
        # extremes must be swapped and near 0/1
        hi = max(bright.ports[0], dark.ports[0])
        lo = min(bright.ports[0], dark.ports[0])
        assert hi > 0.98 and lo < 0.02

    def test_global_phase_invariance(self, rb87):
        # propagate a phased copy of the same initial state
        pulse = Pulse.on_resonance(rb87, 1, 100e-6, rabi_avg=TWO_PI * 4e3)
        st = ladder.ladder_state(0, 0.0, order=1)
        stp = ladder.ladder_state(0, 0.0, order=1)
        stp.amps = stp.amps * np.exp(1j * 0.7321)
        a = ladder.integrate_ladder(st, pulse, rb87)
        b = ladder.integrate_ladder(stp, pulse, rb87)
        for j in range(a.j_min, a.j_max + 1):
            assert abs(a.population(j) - b.population(j)) < 1e-12


class TestPathResolved:
    def test_pure_class_single_branch(self, rb87):
        p0 = Pulse.on_resonance(rb87, 3, 90e-6, rabi_peak=0.0)
        seq = PulseSequence((p0, FreeEvolution(1e-4), p0, FreeEvolution(1e-4), p0))
        tree, rep = path_resolved_mzi(seq, DELTA, rb87, split_after=(0,))
        live = [nd for nd in tree if nd.weight > 1e-12]
        assert len(live) == 1 and live[0].history == (0,)

    def test_branch_explosion_guard(self, rb87):
        # order 5 split after all three pulses: 6^3 = 216 branches > MAX_BRANCHES
        seq = mach_zehnder_sequence(rb87, 5, 90e-6, TWO_PI * 16e3, 120e-6,
                                    TWO_PI * 21e3, 1e-4)
        with pytest.raises(ParameterError):
            path_resolved_mzi(seq, DELTA, rb87, split_after=(0, 1, 2))

    def test_weights_account_for_everything(self, rb87, cloud):
        seq = mach_zehnder_sequence(rb87, 3, 90e-6, TWO_PI * 16.2e3, 120e-6,
                                    TWO_PI * 21e3, 5e-4)
        tree, rep = path_resolved_mzi(seq, cloud, rb87, quadrature=FAST)
        total = sum(nd.weight for nd in tree)
        assert total + rep.pruned == pytest.approx(1.0, abs=2 * rep.pruned + 1e-9)

    def test_coherent_recombination_matches_unsplit_run(self, rb87):
        seq = mach_zehnder_sequence(rb87, 3, 90e-6, TWO_PI * 16.2e3, 120e-6,
                                    TWO_PI * 21e3, 5e-4)
        tree, rep = path_resolved_mzi(seq, DELTA, rb87, split_after=(0, 1))
        direct = run_mzi(seq, DELTA, rb87)
        for p in rep.ports:
            assert rep.ports[p] == pytest.approx(direct.ports[p],
                                                 abs=2 * rep.pruned + 1e-8)

    def test_free_time_independence_of_coupled_fraction(self, rb87):
        out = {}
        for T in (3e-4, 8e-4):
            seq = mach_zehnder_sequence(rb87, 3, 90e-6, TWO_PI * 16.2e3, 120e-6,
                                        TWO_PI * 21e3, T)
            tree, _ = path_resolved_mzi(seq, DELTA, rb87)
            # coupled fraction of the branches that took class cls at the first split
            out[T] = {cls: sum(nd.port_coupled_mass for nd in tree if nd.history[0] == cls)
                      / sum(nd.weight for nd in tree if nd.history[0] == cls) for cls in (1, 2)}
        for cls in (1, 2):
            assert out[3e-4][cls] == pytest.approx(out[8e-4][cls], abs=1e-9)

    def test_closing_rule_with_unequal_gaps(self, rb87, cloud):
        # with gaps T and 2T the history (c0, c1) drifts (c0 + 2 c1) T and closes at 3T
        # or 6T, the arms (3, 0) and (0, 3); with equal gaps it closes when c0 + c1 = 3
        bs1, mirror, bs3 = mach_zehnder_sequence(rb87, 3, 90e-6, TWO_PI * 16.2e3, 120e-6,
                                                 TWO_PI * 21e3, 3e-4, phi1=0.4321).pulses
        point = MomentumDistribution("gaussian", 0.0, 0.0)

        def mzi(t2):
            return PulseSequence((bs1, FreeEvolution(3e-4), mirror, FreeEvolution(t2), bs3))

        closing = [{nd.history for nd in path_resolved_mzi(mzi(t2), point, rb87)[0]
                    if nd.port_coupled_mass > 0} for t2 in (6e-4, 3e-4)]
        assert closing == [{(0, 3), (1, 1), (2, 2), (3, 0)}, {(0, 3), (1, 2), (2, 1), (3, 0)}]
        # the fringe scan's detector keeps the same paths
        phis = np.array([0.3, 0.5, 1.7, 2.2, 3.9, 5.0, 6.6])
        fast = 7
        for split_after in ((0, 1), (0, 1, 2)):
            ref = TestFringe._per_phase_reference(mzi(6e-4), phis, cloud, rb87, fast,
                                                  "closing", split_after)
            rows, _ = fringe_scan(mzi(6e-4), phis, cloud, rb87, quadrature=fast,
                                  split_after=split_after)
            new = np.array([[r["port_0"], r["port_3"]] for r in rows])
            assert np.max(np.abs(new - ref)) <= 1e-10

    def test_branch_walk_keeps_its_values(self):
        # stored runs of the default MZI: every PathNode field, the ports and
        # the closing-detector fringe rows, split after two and three pulses
        with open(os.path.join(os.path.dirname(__file__), "data",
                               "path_resolved_mzi.json")) as fh:
            ref = json.load(fh)
        cfg = parse_config().physical()
        seq = parse_config().mzi_sequence(cfg)
        dist = MomentumDistribution("gaussian", 0.0, ref["dp"])
        quad = ref["nodes"]
        phis = np.linspace(0.0, TWO_PI, ref["phi3_points"], endpoint=False)
        for key, want in ref["runs"].items():
            split_after = tuple(int(s) for s in key.split(","))
            tree, rep = path_resolved_mzi(seq, dist, cfg, quadrature=quad,
                                          split_after=split_after)
            rows, _ = fringe_scan(seq, phis, dist, cfg, quadrature=quad,
                                  split_after=split_after)
            assert rep.pruned == want["pruned"] and rep.undetected == want["undetected"]
            assert {str(p): v for p, v in rep.ports.items()} == want["ports"]
            assert {str(p): v for p, v in rep.meta["ports_closing"].items()} \
                == want["ports_closing"]
            assert [{**vars(nd), "history": list(nd.history)} for nd in tree] == want["tree"]
            assert rows == want["fringe_rows"]


class TestMirrorResponse:
    def test_lattice_off_before_equals_after(self, rb87, cloud):
        p0 = Pulse.on_resonance(rb87, 3, 90e-6, rabi_peak=0.0)
        rows = mirror_response(p0, cloud, rb87, quadrature=FAST)
        assert [r["input"] for r in rows] == [0, 1, 2, 3]
        for r in rows:
            assert r["after"][r["input"]] == pytest.approx(1.0, abs=1e-10)

    def test_dichroic_mirror_keeps_parasitic_input(self, rb87, cloud):
        dmp = Pulse.on_resonance(rb87, 3, 120e-6, rabi_avg=TWO_PI * 21e3)
        after = mirror_response(dmp, cloud, rb87, quadrature=FAST)[1]["after"]
        assert max(after, key=after.get) == 1

    def test_plain_mirror_redirects_parasitic_input(self, rb87, cloud):
        plain = Pulse.on_resonance(rb87, 3, 90e-6, rabi_avg=TWO_PI * 23e3)
        after = mirror_response(plain, cloud, rb87, quadrature=FAST)[1]["after"]
        assert max(after, key=after.get) == 2


class TestFringe:
    def test_fit_on_synthetic_fringe(self):
        phis = np.linspace(0, TWO_PI, 40, endpoint=False)
        y = 0.4 * (1 + 0.85 * np.cos(3 * phis - 0.6))
        fit = fit_fringe(phis, y, harmonic=3)
        assert fit.offset == pytest.approx(0.4, abs=1e-12)
        assert fit.contrast == pytest.approx(0.85, abs=1e-12)
        assert fit.phase == pytest.approx(0.6, abs=1e-12)
        assert fit.max_residual < 1e-12

    @pytest.mark.parametrize("points", [2, 4, 6, 7, 8])
    def test_fit_needs_more_than_two_n_phases(self, points):
        # at harmonic 3, 2, 4 or 6 uniform phases alias cos(3 phi) onto a lower
        # harmonic or lose its sine, so the fit is NaN; 7 and 8 resolve it
        phis = np.linspace(0, TWO_PI, points, endpoint=False)
        distortion = 0.02 * np.cos(phis - 0.3)
        fit = fit_fringe(phis, 0.4 * (1 + 0.85 * np.cos(3 * phis - 0.6)) + distortion,
                         harmonic=3)
        assert fit.harmonic == 3
        values = (fit.offset, fit.contrast, fit.phase, fit.max_residual)
        if points <= 6:
            assert np.all(np.isnan(values))
        else:
            assert values == pytest.approx((0.4, 0.85, 0.6, np.max(np.abs(distortion))),
                                           abs=1e-12)

    def test_grid_must_span_two_pi(self, rb87):
        seq = _ideal_two_level_mzi(rb87)
        with pytest.raises(ParameterError):
            fringe_scan(seq, np.linspace(0, 2.0, 5), DELTA, rb87)

    def test_two_level_contrast_and_completeness(self, rb87):
        seq = _ideal_two_level_mzi(rb87)
        phis = np.linspace(0, TWO_PI, 12, endpoint=False)
        rows, fits = fringe_scan(seq, phis, DELTA, rb87)
        for r in rows:
            assert r["port_0"] + r["port_1"] + r["undetected"] == pytest.approx(
                1.0, abs=1e-9)
        assert fits[0].contrast > 0.99
        assert fits[0].max_residual < 0.01

    @staticmethod
    def _per_phase_reference(seq, phis, dist, cfg, quadrature, detected, split_after):
        """Port values from rerunning the whole sequence once per phase."""
        last = max(i for i, it in enumerate(seq.items) if isinstance(it, Pulse))
        n = seq.order_hint
        out = []
        for phi3 in phis:
            items = list(seq.items)
            items[last] = replace(items[last], phase=float(phi3))
            phased = PulseSequence(tuple(items))
            if detected == "closing":
                _, rep = path_resolved_mzi(phased, dist, cfg, quadrature=quadrature,
                                           split_after=split_after)
                ports = rep.meta["ports_closing"]
            else:
                ports = run_mzi(phased, dist, cfg, quadrature=quadrature).ports
            out.append([ports[0], ports[n]])
        return np.array(out)

    @pytest.mark.parametrize("detected, trailing_free, split_after, uniform", [
        ("closing", False, (0, 1), True),
        ("closing", True, (0, 1), False),
        ("closing", True, (0, 1, 2), False),
        ("closing", False, (2,), True),
        ("all", False, (), True),
        ("all", True, (), False),
    ])
    def test_one_propagation_matches_per_phase_loop(self, rb87, cloud, detected,
                                                    trailing_free, split_after, uniform):
        seq = mach_zehnder_sequence(rb87, 3, 90e-6, TWO_PI * 16.2e3, 120e-6,
                                    TWO_PI * 21e3, 3e-4, phi1=0.4321)
        if trailing_free:
            seq = PulseSequence(seq.items + (FreeEvolution(2e-4),))
        if uniform:
            phis = np.linspace(0, TWO_PI, 6, endpoint=False)
        else:
            phis = np.array([0.3, 0.5, 1.7, 2.2, 3.9, 5.0, 6.6])
        fast = 7
        ref = self._per_phase_reference(seq, phis, cloud, rb87, fast, detected, split_after)
        rows, _ = fringe_scan(seq, phis, cloud, rb87, quadrature=fast, split_after=split_after)
        new = np.array([[r["port_0"], r["port_3"]] for r in rows])
        assert [r["phi3"] for r in rows] == list(phis)
        assert np.max(np.abs(new - ref)) <= 1e-10

    @pytest.mark.parametrize("split_after", [(0, 1), (0, 1, 2), (2,)])
    def test_class_blocks_match_whole_pulses(self, rb87, cloud, monkeypatch, split_after):
        # split segments and the last pulse through half-pulse class blocks against
        # every pulse propagated whole on the full window
        seq = mach_zehnder_sequence(rb87, 3, 90e-6, TWO_PI * 16.2e3, 120e-6,
                                    TWO_PI * 21e3, 3e-4, phi1=0.4321)
        phis, tight = np.linspace(0, TWO_PI, 6, endpoint=False), {"rtol": 1e-13, "atol": 1e-15}
        quad = 7

        def run():
            rows, _ = fringe_scan(seq, phis, cloud, rb87, quadrature=quad,
                                  split_after=split_after, **tight)
            tree, rep = path_resolved_mzi(seq, cloud, rb87, quadrature=quad,
                                          split_after=split_after, **tight)
            return ([v for r in rows for v in r.values()]
                    + [v for nd in tree
                       for v in (nd.weight, nd.port_class_mass, nd.port_coupled_mass)]
                    + [rep.pruned, *rep.ports.values(), *rep.meta["ports_closing"].values()],
                    [nd.history for nd in tree])

        blocks, histories = run()
        # no pulse counts as time-symmetric, so the runner crosses every one whole
        monkeypatch.setattr(ladder, "Envelope", type("NoEnvelope", (), {}))
        whole, whole_histories = run()
        assert histories == whole_histories and len(blocks) == len(whole)
        assert np.max(np.abs(np.subtract(blocks, whole))) <= 1e-12

    def test_default_scan_takes_two_half_pulse_solves(self, rb87, cloud, monkeypatch):
        # the beam splitters share one block, the mirror has the other, and the
        # closing-path detector needs no whole pulse
        parts = []
        def spy(*args, _fn=ladder.propagate_batch, **kwargs):
            parts.append(kwargs.get("part", 1.0))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ladder, "propagate_batch", spy)
        cfg = parse_config().physical()
        fringe_scan(parse_config().mzi_sequence(cfg), np.linspace(0, TWO_PI, 8, endpoint=False),
                    cloud, cfg, quadrature=FAST)
        assert parts == [0.5] * 2

    def test_grid_backend_needs_all_detector(self, rb87):
        with pytest.raises(ParameterError):
            fringe_scan(_ideal_two_level_mzi(rb87), np.linspace(0, TWO_PI, 4, endpoint=False),
                        DELTA, rb87, backend="grid")

    def test_grid_fringe_equals_ladder(self, rb87):
        # the grid runs the last pulse once, with one row per phase and node; plane
        # waves need only the one-period comb grid
        seq = _ideal_two_level_mzi(rb87)
        phis = np.linspace(0, TWO_PI, 4, endpoint=False)
        opts = gridprop.GridOptions(grid=gridprop.Grid(64, 1))
        cloud, quad = MomentumDistribution("gaussian", 0.0, 0.02), 3
        ladder_rows, _ = fringe_scan(seq, phis, cloud, rb87, quadrature=quad, split_after=())
        grid_rows, _ = fringe_scan(seq, phis, cloud, rb87, quadrature=quad, backend="grid",
                                   split_after=(), grid_opts=opts)
        for lr, gr in zip(ladder_rows, grid_rows):
            for key in ("port_0", "port_1", "undetected"):
                assert gr[key] == pytest.approx(lr[key], abs=1e-8)

    def test_grid_fringe_default_options(self, rb87):
        p0 = Pulse.on_resonance(rb87, 1, 90e-6, rabi_peak=0.0)
        seq = PulseSequence((p0, FreeEvolution(1e-4), p0, FreeEvolution(1e-4), p0))
        rows, _ = fringe_scan(seq, np.linspace(0, TWO_PI, 4, endpoint=False), DELTA,
                              rb87, backend="grid", split_after=())
        assert all(r["port_0"] == pytest.approx(1.0, abs=1e-10) for r in rows)

    def test_multipath_residual_plain_vs_dichroic(self, rb87, cloud):
        phis = np.linspace(0, TWO_PI, 10, endpoint=False)
        fast = 7
        seq_plain = mach_zehnder_sequence(rb87, 3, 90e-6, TWO_PI * 16.2e3, 90e-6,
                                          TWO_PI * 23e3, 4e-4)
        seq_dmp = mach_zehnder_sequence(rb87, 3, 90e-6, TWO_PI * 16.2e3, 120e-6,
                                        TWO_PI * 21e3, 4e-4)
        _, fit_plain = fringe_scan(seq_plain, phis, cloud, rb87, quadrature=fast)
        _, fit_dmp = fringe_scan(seq_dmp, phis, cloud, rb87, quadrature=fast)
        assert fit_plain[0].max_residual > fit_dmp[0].max_residual
