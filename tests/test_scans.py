import ctypes
import glob
import multiprocessing
import os

import numpy as np
import pytest
import scipy.optimize

from braggsim import ensemble, ladder, scans
from braggsim.ensemble import MomentumDistribution
from braggsim.errors import IntegrationError, ParameterError
from braggsim.physics import ATOMIC_MASS_KG, PhysicalConfig
from braggsim.pulses import Envelope, PulseSpec
from braggsim.scans import (DmpCriterion, ScanPoint, ScanResult, find_dmp,
                            first_maximum, rabi_scan, reflectivity_map, spot_check)

TWO_PI = 2 * np.pi

FAST = 9


@pytest.fixture(scope="module")
def cloud9():
    return MomentumDistribution("gaussian", 0.0, 0.13)


class TestFirstMaximum:
    def test_parabolic_refinement(self):
        xs = np.linspace(0, 3, 61)
        ys = np.sin(xs) ** 2
        x0, y0 = first_maximum(xs, ys)
        assert x0 == pytest.approx(np.pi / 2, abs=1e-3)
        assert y0 == pytest.approx(1.0, abs=1e-3)

    def test_monotone_raises(self):
        with pytest.raises(ParameterError):
            first_maximum([0, 1, 2], [0.0, 0.5, 1.0])


class TestRabiScan:
    def test_small_rabi_keeps_class_zero(self, rb87, cloud9):
        grid = TWO_PI * np.array([10.0, 20.0])  # essentially off
        res = rabi_scan(rb87, 3, 90e-6, grid, cloud9, quadrature=FAST)
        assert res.points[0].values["P0"] > 0.999

    def test_continuity_between_neighbors(self, rb87, cloud9):
        grid = TWO_PI * 1e3 * np.linspace(18, 28, 26)
        res = rabi_scan(rb87, 3, 90e-6, grid, cloud9, quadrature=FAST)
        for c in range(4):
            vals = [pt.values[f"P{c}"] for pt in res.points]
            assert np.max(np.abs(np.diff(vals))) < 0.2

    def test_grid_must_ascend(self, rb87, cloud9):
        with pytest.raises(ParameterError):
            rabi_scan(rb87, 3, 90e-6, TWO_PI * np.array([2e3, 1e3]), cloud9)


class TestFailureTyping:
    """Package errors become failed points; any other exception is a bug and raises."""

    @staticmethod
    def _propagator_raising(monkeypatch, exc):
        def boom(*args, **kwargs):
            raise exc
        monkeypatch.setattr(ladder, "propagate_batch", boom)

    def _scans(self, rb87, cloud9):
        grid = TWO_PI * 1e3 * np.array([18.0, 21.0])
        yield lambda: rabi_scan(rb87, 3, 90e-6, grid, cloud9, quadrature=FAST).points
        yield lambda: reflectivity_map(rb87, 3, np.array([90e-6, 105e-6]), grid,
                                       [(0, 3)], cloud9, quadrature=FAST).points

    def test_package_error_is_a_failed_point(self, rb87, cloud9, monkeypatch):
        self._propagator_raising(monkeypatch, IntegrationError("step size underflow"))
        for run in self._scans(rb87, cloud9):
            points = run()
            assert points and all(pt.failed for pt in points)
            assert "underflow" in points[0].error

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_right_hand_side_is_a_failed_node(self, rb87, cloud9, monkeypatch):
        # the stepper fails on a NaN derivative; only that node is recorded as failed
        value_frac = Envelope.value_frac
        monkeypatch.setattr(Envelope, "value_frac", lambda self, u: (
            np.nan if self.duration == 105e-6 else value_frac(self, u)))
        points = reflectivity_map(rb87, 3, np.array([90e-6, 105e-6]),
                                  TWO_PI * 1e3 * np.array([18.0, 21.0]), [(0, 3)], cloud9,
                                  quadrature=FAST).points
        assert [pt.failed for pt in points] == [False, False, True, True]
        assert "ladder integration failed" in points[2].error

    def test_programming_error_raises(self, rb87, cloud9, monkeypatch):
        self._propagator_raising(monkeypatch, TypeError("unexpected argument"))
        for run in self._scans(rb87, cloud9):
            with pytest.raises(TypeError):
                run()


def _tiny_map(rb87, cloud, tmp_path, jobs=1, cache_name=None):
    taus = np.array([90e-6, 105e-6, 120e-6])
    oms = TWO_PI * 1e3 * np.array([18.0, 21.0, 24.0])
    cache = os.path.join(tmp_path, cache_name) if cache_name else None
    return reflectivity_map(rb87, 3, taus, oms, [(0, 3), (1, 2)], cloud,
                            quadrature=FAST, jobs=jobs, cache_path=cache)


def _numpy_openblas():
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            return lib.scipy_openblas_get_num_threads64_
    return None


def _blas_threads():
    return _numpy_openblas()()


class TestReflectivityMap:
    def test_values_and_shape(self, rb87, cloud9, tmp_path):
        res = _tiny_map(rb87, cloud9, tmp_path)
        assert len(res.points) == 9
        (_, taus), (_, oms) = res.axes
        assert [pt.params for pt in res.points] == [{"tau": t, "rabi": o}
                                                    for t in taus for o in oms]
        assert all(not pt.failed and np.isfinite(pt.values["R_0_3"]) for pt in res.points)

    def test_workers_run_one_blas_thread(self):
        lib = _numpy_openblas()
        if lib is None:
            pytest.skip("numpy carries no bundled OpenBLAS here")
        with multiprocessing.Pool(1, initializer=scans._one_blas_thread) as pool:
            assert pool.apply(_blas_threads) == 1

    def test_jobs_bitwise_identical(self, rb87, cloud9, tmp_path):
        r1 = _tiny_map(rb87, cloud9, tmp_path)
        r2 = _tiny_map(rb87, cloud9, tmp_path, jobs=2)
        for p1, p2 in zip(r1.points, r2.points):
            assert p1.values == p2.values

    def test_cache_resume_identical(self, rb87, cloud9, tmp_path):
        full = _tiny_map(rb87, cloud9, tmp_path, cache_name="a.jsonl")
        # simulate an interrupted run: seed the cache with a partial map
        taus = np.array([90e-6, 105e-6, 120e-6])
        oms = TWO_PI * 1e3 * np.array([18.0, 21.0, 24.0])
        cache = os.path.join(tmp_path, "b.jsonl")
        reflectivity_map(rb87, 3, taus[:2], oms, [(0, 3), (1, 2)], cloud9,
                         quadrature=FAST, cache_path=cache)
        resumed = reflectivity_map(rb87, 3, taus, oms, [(0, 3), (1, 2)], cloud9,
                                   quadrature=FAST, cache_path=cache)
        for pf, pr in zip(full.points, resumed.points):
            assert pf.values == pr.values

    @staticmethod
    def _values(cfg, cloud, cache_path, spec=PulseSpec(), quadrature=FAST):
        res = reflectivity_map(cfg, 3, np.array([90e-6, 105e-6]),
                               TWO_PI * 1e3 * np.array([18.0, 21.0]), [(0, 3), (1, 2)],
                               cloud, quadrature=quadrature, spec=spec, cache_path=cache_path)
        return [pt.values for pt in res.points]

    def test_cache_keyed_by_physics(self, rb87, cloud9, tmp_path):
        k39 = PhysicalConfig(atom_mass=38.9637 * ATOMIC_MASS_KG, wavelength=766.7e-9,
                             label="K-39")
        cache = os.path.join(tmp_path, "shared.jsonl")
        rb = self._values(rb87, cloud9, cache)
        k_shared = self._values(k39, cloud9, cache)
        assert k_shared == self._values(k39, cloud9, None)
        assert k_shared != rb

    def test_cache_keyed_by_pulse_spec(self, rb87, cloud9, tmp_path):
        rect = PulseSpec(envelope="rectangular")
        cache = os.path.join(tmp_path, "shared.jsonl")
        blackman = self._values(rb87, cloud9, cache)
        rect_shared = self._values(rb87, cloud9, cache, rect)
        assert rect_shared == self._values(rb87, cloud9, None, rect)
        assert rect_shared != blackman

    def test_cache_keyed_by_node_count(self, rb87, cloud9, tmp_path):
        cache = os.path.join(tmp_path, "shared.jsonl")
        nine = self._values(rb87, cloud9, cache)
        five_shared = self._values(rb87, cloud9, cache, quadrature=5)
        assert five_shared == self._values(rb87, cloud9, None, quadrature=5)
        assert five_shared != nine

    def test_interrupted_map_resumes(self, rb87, cloud9, tmp_path, monkeypatch):
        # each finished node is in the cache before the next one starts
        taus = np.array([90e-6, 105e-6])
        oms = TWO_PI * 1e3 * np.array([18.0, 21.0])
        cache = os.path.join(tmp_path, "c.jsonl")

        def run(cache_path):
            return reflectivity_map(rb87, 3, taus, oms, [(0, 3), (1, 2)], cloud9,
                                    quadrature=FAST, cache_path=cache_path)

        node, calls = scans._map_node, []

        def interrupted(args):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return node(args)

        monkeypatch.setattr(scans, "_map_node", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(cache)
        monkeypatch.undo()
        with open(cache) as fh:
            assert len(fh.readlines()) == 2
        assert [p.values for p in run(cache).points] == [p.values for p in run(None).points]

    def test_torn_cache_line_is_recomputed(self, rb87, cloud9, tmp_path, monkeypatch):
        # a kill during a write leaves the last record cut short
        _tiny_map(rb87, cloud9, tmp_path, cache_name="torn.jsonl")
        cache = os.path.join(tmp_path, "torn.jsonl")
        lines = open(cache).readlines()
        with open(cache, "w") as fh:
            fh.write("".join(lines[:2]) + lines[2][:150])
        fresh = [p.values for p in _tiny_map(rb87, cloud9, tmp_path).points]
        resumed = _tiny_map(rb87, cloud9, tmp_path, cache_name="torn.jsonl")
        assert [p.values for p in resumed.points] == fresh
        node, calls = scans._map_node, []
        monkeypatch.setattr(scans, "_map_node", lambda args: calls.append(args) or node(args))
        again = _tiny_map(rb87, cloud9, tmp_path, cache_name="torn.jsonl")
        assert calls == [] and [p.values for p in again.points] == fresh

    def test_cache_of_an_older_version_is_recomputed(self, rb87, cloud9, tmp_path,
                                                     monkeypatch):
        # rows from the full-batch code of 0.1.0 differ from the mirrored ones
        # by ~1e-13, so a resumed map must not mix them in
        monkeypatch.setattr(scans, "__version__", "0.1.0")
        monkeypatch.setattr(ensemble, "_mirror_order", lambda *args: None)
        _tiny_map(rb87, cloud9, tmp_path, cache_name="old.jsonl")
        monkeypatch.undo()
        node, calls = scans._map_node, []
        monkeypatch.setattr(scans, "_map_node", lambda args: calls.append(args) or node(args))
        resumed = _tiny_map(rb87, cloud9, tmp_path, cache_name="old.jsonl")
        assert len(calls) == 9
        assert [p.values for p in resumed.points] == [
            p.values for p in _tiny_map(rb87, cloud9, tmp_path).points]

    def test_zero_rabi_row_is_identity(self, rb87, cloud9):
        taus = np.array([90e-6, 120e-6])
        oms = np.array([1e-9, TWO_PI * 18e3])
        res = reflectivity_map(rb87, 3, taus, oms, [(0, 3), (1, 2)], cloud9,
                               quadrature=FAST)
        off = [pt for pt in res.points if pt.params["rabi"] == 1e-9]
        for pt in off:
            assert pt.values["R_0_3"] < 1e-9
            assert pt.values["R_1_2"] < 1e-9

    def test_bad_pair_rejected(self, rb87, cloud9):
        with pytest.raises(ParameterError):
            reflectivity_map(rb87, 3, np.array([9e-5, 1e-4]),
                             TWO_PI * np.array([1e4, 2e4]), [(0, 4)], cloud9)


def _synth_map():
    # analytic landscape: resonant sin^2 ridge, parasitic faster oscillation
    taus = tuple(np.linspace(1.0, 2.0, 11))
    oms = tuple(np.linspace(0.5, 3.0, 41))
    points = []
    for t in taus:
        for o in oms:
            res = np.sin(2.2 * t * o) ** 2
            par = np.sin(5.9 * t * o) ** 2
            points.append(ScanPoint({"tau": t, "rabi": o},
                                    {"R_0_3": res, "R_1_2": par,
                                     "R_0_3_fwd": res, "R_0_3_rev": res,
                                     "R_1_2_fwd": par, "R_1_2_rev": par}))
    return ScanResult(axes=(("tau", taus), ("rabi", oms)), points=points)


class TestFindDmp:
    def test_zero_penalty_is_argmax_resonant(self):
        m = _synth_map()
        crit = DmpCriterion((0, 3), ((1, 2),), lambda_pen=0.0, min_resonant=0.0,
                            max_parasitic=1.0)
        rep = find_dmp(m, crit)
        best = max((p for p in m.points), key=lambda p: p.values["R_0_3"])
        assert rep.resonant == best.values["R_0_3"]

    def test_objective_is_max_over_nodes(self):
        m = _synth_map()
        crit = DmpCriterion((0, 3), ((1, 2),), lambda_pen=1.0, min_resonant=0.0,
                            max_parasitic=1.0)
        rep = find_dmp(m, crit)
        objs = [p.values["R_0_3"] - p.values["R_1_2"] for p in m.points]
        assert rep.objective == pytest.approx(max(objs), abs=1e-12)

    def test_empty_feasible_set(self):
        m = _synth_map()
        crit = DmpCriterion((0, 3), ((1, 2),), min_resonant=1.5)
        rep = find_dmp(m, crit)
        assert not rep.found and "no" in rep.message.lower()

    def test_local_refinement_reruns_the_map_setting(self, rb87, monkeypatch):
        solved, runs = [], []
        node, minimize = scans._map_node, scipy.optimize.minimize
        monkeypatch.setattr(scans, "_map_node", lambda a: solved.append(a) or node(a))
        monkeypatch.setattr(scipy.optimize, "minimize",
                            lambda *a, **kw: runs.append(minimize(*a, **kw)) or runs[-1])
        delta = MomentumDistribution("delta", 0.0, 0.0)
        m = reflectivity_map(rb87, 3, np.array([90e-6, 120e-6]),
                             TWO_PI * 1e3 * np.array([40.0, 56.0]), [(0, 3), (1, 2)], delta,
                             spec=PulseSpec(convention="peak"))
        crit = DmpCriterion.for_order(3, min_resonant=0.0, max_parasitic=1.0)
        rep = find_dmp(m, crit, refine="local", max_refine_evals=8)
        assert rep.refined
        # each node is solved once: the simplex's best vertex is not run again
        assert len(solved) == len(m.points) + runs[0].nfev
        objective, _, res, paras = crit.evaluate(
            scans._map_node((rep.tau, rep.rabi, *m.setting)).values)
        assert (rep.objective, rep.resonant, rep.parasitic) == (objective, res, tuple(paras))
        with pytest.raises(ParameterError):
            find_dmp(_synth_map(), crit, refine="local")

    def test_for_order_parasitic_pairs(self):
        assert DmpCriterion.for_order(3).parasitic == ((1, 2),)
        assert DmpCriterion.for_order(5).parasitic == ((1, 4), (2, 3))


class TestSpotCheck:
    def test_passes_on_tiny_map(self, rb87, cloud9, tmp_path):
        res = _tiny_map(rb87, cloud9, tmp_path)
        rep = spot_check(res, n_nodes=2, seed=1)
        assert rep["passes"], rep
        assert rep["max_abs_dev"] < 1e-3

    def test_follows_the_map_pulse_spec(self, rb87, monkeypatch):
        spec = PulseSpec(envelope="rectangular")
        m = reflectivity_map(rb87, 3, np.array([90e-6, 105e-6]),
                             TWO_PI * 1e3 * np.array([18.0, 21.0]), [(0, 3)],
                             MomentumDistribution("delta", 0.0, 0.0), spec=spec)
        seen = []
        monkeypatch.setattr(scans, "oracle_diff", lambda pulse, cfg, **kw:
                            seen.append(pulse) or {"max_abs_dev": 0.0, "norm_drift": 0.0})
        rep = spot_check(m, n_nodes=2, seed=1)
        assert seen == [spec.build(rb87, 3, nd["tau"], nd["rabi"]) for nd in rep["nodes"]]
        assert [p.envelope.kind for p in seen] == ["rectangular"] * 2

    def test_needs_the_map_setting(self):
        with pytest.raises(ParameterError):
            spot_check(_synth_map(), n_nodes=1)
