"""Parameter sweeps: Rabi scans, 2D reflectivity maps, and the dichroic
operating-point search.

Map nodes are independent tasks; results merge by node index so output
is bitwise identical for any worker count.  Finished nodes are cached in
a JSON-lines file keyed by a hash of everything a node's result depends
on, making half-finished maps resumable with identical results.
"""
from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
from contextlib import ExitStack
from dataclasses import dataclass, field
from multiprocessing import Pool

import numpy as np

from . import __version__, ensemble, gridprop, ladder
from .ensemble import Quadrature, reflectivity_matrix
from .errors import BraggSimError, ParameterError
from .pulses import PulseSpec
from .validation import oracle_diff


@dataclass(frozen=True)
class ScanPoint:
    """One node of a scan with its observables (or an error marker)."""

    params: dict
    values: dict
    failed: bool = False
    error: str = ""


@dataclass
class ScanResult:
    """Rectangular scan output: points in row-major axis order."""

    axes: tuple                 # ((name, values), ...)
    points: list
    meta: dict = field(default_factory=dict)


def _node_hash(payload):
    # repr renders the frozen dataclasses (physics, distribution, grid
    # options) field by field with exact floats
    s = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(s.encode()).hexdigest()[:16]


def rabi_scan(cfg, n, tau, rabi_grid, dist, quadrature=Quadrature(),
              backend="ladder", spec=PulseSpec(), **kw):
    """Class populations 0..n versus Rabi frequency at fixed duration.

    rabi_grid in rad/s, ascending; spec builds each pulse and sets the Rabi
    convention the grid is quoted in.
    Per-point failures (BraggSimError) are recorded, not raised; any other
    exception is a bug and propagates.
    """
    rabi_grid = np.asarray(rabi_grid, dtype=float)
    if np.any(np.diff(rabi_grid) <= 0):
        raise ParameterError("rabi grid must be strictly ascending")
    classes = tuple(range(n + 1))
    points = []
    for om in rabi_grid:
        params = {"rabi": float(om)}
        try:
            pulse = spec.build(cfg, n, tau, om)
            cp = ensemble.ensemble_average(pulse, dist, cfg, classes=classes,
                                           quadrature=quadrature, backend=backend, **kw)
            points.append(ScanPoint(params, {f"P{c}": cp[c] for c in classes}))
        except BraggSimError as exc:  # propagation failures recorded per point
            points.append(ScanPoint(params, {}, failed=True, error=str(exc)))
    return ScanResult(axes=(("rabi", tuple(float(v) for v in rabi_grid)),),
                      points=points)


def first_maximum(xs, ys):
    """Location and height of the first interior local maximum.

    Parabolic refinement through the three points around the first index
    where the sequence turns over.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    for i in range(1, len(ys) - 1):
        if ys[i] >= ys[i - 1] and ys[i] > ys[i + 1]:
            denom = ys[i - 1] - 2 * ys[i] + ys[i + 1]
            if denom == 0:
                return float(xs[i]), float(ys[i])
            delta = 0.5 * (ys[i - 1] - ys[i + 1]) / denom
            delta = float(np.clip(delta, -0.5, 0.5))
            h = xs[i + 1] - xs[i]
            x0 = xs[i] + delta * h
            y0 = ys[i] - 0.25 * (ys[i - 1] - ys[i + 1]) * delta
            return float(x0), float(y0)
    raise ParameterError("no interior maximum found in scan range")


def check_pairs(pairs, n):
    """Raise ParameterError unless both classes of every (a, b) pair lie in 0..n."""
    for a, b in pairs:
        if not (0 <= a <= n and 0 <= b <= n):
            raise ParameterError(f"pair ({a},{b}) outside classes 0..{n}")


def _map_node(args):
    """Worker: one (tau, rabi) node of a reflectivity map."""
    (tau, om, n, cfg, dist, quadrature, backend, spec, pairs,
     rtol, atol, grid_opts) = args
    params = {"tau": float(tau), "rabi": float(om)}
    try:
        pulse = spec.build(cfg, n, tau, om)
        rec = reflectivity_matrix(pulse, dist, cfg, order=n, quadrature=quadrature,
                                  backend=backend, rtol=rtol, atol=atol,
                                  grid_opts=grid_opts)
        values = {}
        for a, b in pairs:
            values[f"R_{a}_{b}"] = rec.pair(a, b)
            values[f"R_{a}_{b}_fwd"], values[f"R_{a}_{b}_rev"] = rec.pair_directional(a, b)
        return ScanPoint(params, values)
    except BraggSimError as exc:
        return ScanPoint(params, {}, failed=True, error=str(exc))


def _one_blas_thread():
    """Map worker initializer: a forked worker keeps its parent's OpenBLAS thread
    pool, which environment variables no longer reach, so `jobs` workers would
    oversubscribe the cores.  Sets the OpenBLAS in numpy's wheel to one thread."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in map(ctypes.CDLL, glob.glob(os.path.join(libs, "*openblas*"))):
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


def reflectivity_map(cfg, n, tau_grid, rabi_grid, pairs, dist,
                     quadrature=Quadrature(), backend="ladder",
                     spec=PulseSpec(), jobs=1, cache_path=None,
                     rtol=ladder.DEFAULT_RTOL, atol=ladder.DEFAULT_ATOL,
                     grid_opts=gridprop.GridOptions()):
    """2D reflectivity map over (tau, rabi) for the given class pairs.

    Each finished node is appended to cache_path (JSON lines) under a hash
    of every `_map_node` argument and the code version, so an interrupted
    map resumes where it stopped and reproduces a fresh run exactly; the
    node of a line that a kill cut short is recomputed.  The `_map_node`
    arguments other than (tau, rabi) are kept as meta["setting"] for
    refinement and the spot check; meta["failures"] lists the params of
    failed nodes.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    rabi_grid = np.asarray(rabi_grid, dtype=float)
    for g, name in ((tau_grid, "tau"), (rabi_grid, "rabi")):
        if len(g) < 2 or np.any(np.diff(g) <= 0):
            raise ParameterError(f"{name} grid must be ascending with >= 2 points")
    check_pairs(pairs, n)

    node_params = [(float(tau), float(om)) for tau in tau_grid for om in rabi_grid]
    setting = (n, cfg, dist, quadrature, backend, spec, tuple(pairs),
               rtol, atol, grid_opts)
    hashes = [_node_hash({"setting": setting, "version": __version__, "tau": t,
                          "rabi": om}) for t, om in node_params]

    text = ""
    if cache_path and os.path.exists(cache_path):
        with open(cache_path) as fh:
            text = fh.read()
    cached = {}
    for line in text.splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:   # a record cut short by a kill mid-write
            continue
        cached[rec["hash"]] = rec
    todo = [i for i, h in enumerate(hashes) if h not in cached]

    args = [(*node_params[i], *setting) for i in todo]
    with ExitStack() as stack:
        if jobs > 1 and len(args) > 1:
            pool = stack.enter_context(Pool(processes=jobs, initializer=_one_blas_thread))
            fresh = pool.imap(_map_node, args, chunksize=max(1, len(args) // (4 * jobs)))
        else:
            fresh = map(_map_node, args)
        sink = stack.enter_context(open(cache_path, "a")) if cache_path else None
        if sink and text and not text.endswith("\n"):
            sink.write("\n")   # the next record starts on a line of its own
        for i, pt in zip(todo, fresh):
            rec = {"hash": hashes[i], "params": pt.params, "values": pt.values,
                   "failed": pt.failed, "error": pt.error}
            cached[hashes[i]] = rec
            if sink:
                sink.write(json.dumps(rec, sort_keys=True) + "\n")
                sink.flush()

    points = []
    for i, h in enumerate(hashes):
        rec = cached[h]
        points.append(ScanPoint(rec["params"], rec["values"], rec["failed"],
                                rec.get("error", "")))
    failures = [p.params for p in points if p.failed]
    return ScanResult(axes=(("tau", tuple(float(v) for v in tau_grid)),
                            ("rabi", tuple(float(v) for v in rabi_grid))),
                      points=points, meta={"failures": failures, "setting": setting})


def _setting(map_result):
    """The `_map_node` arguments other than (tau, rabi) that made the map:
    (n, cfg, dist, quadrature, backend, spec, pairs, rtol, atol, grid_opts)."""
    setting = map_result.meta.get("setting")
    if setting is None:
        raise ParameterError("this needs a map from reflectivity_map, whose "
                             "meta['setting'] holds how its nodes were computed")
    return setting


@dataclass(frozen=True)
class DmpCriterion:
    """Selection rule for a dichroic operating point.

    objective = resonant pair reflectivity - lambda_pen * sum(parasitic);
    feasibility requires resonant >= min_resonant and every parasitic
    <= max_parasitic.
    """

    resonant: tuple
    parasitic: tuple
    lambda_pen: float = 1.0
    min_resonant: float = 0.5
    max_parasitic: float = 0.15

    def __post_init__(self):
        if self.lambda_pen < 0:
            raise ParameterError(f"lambda_pen must be nonnegative, got {self.lambda_pen}")

    @classmethod
    def for_order(cls, n, **kw):
        parasitic = tuple((i, n - i) for i in range(1, (n + 1) // 2))
        return cls(resonant=(0, n), parasitic=parasitic, **kw)

    def evaluate(self, values):
        res = values[f"R_{self.resonant[0]}_{self.resonant[1]}"]
        paras = [values[f"R_{a}_{b}"] for a, b in self.parasitic]
        objective = res - self.lambda_pen * sum(paras)
        feasible = res >= self.min_resonant and all(p <= self.max_parasitic for p in paras)
        return objective, feasible, res, paras


@dataclass(frozen=True)
class DmpReport:
    found: bool
    tau: float = 0.0
    rabi: float = 0.0
    objective: float = 0.0
    resonant: float = 0.0
    parasitic: tuple = ()
    dichroic_ratio: float = 0.0
    refined: bool = False
    message: str = ""


def find_dmp(map_result, criterion: DmpCriterion, refine="none", max_refine_evals=60):
    """Best feasible node of a reflectivity map under the criterion.

    refine="local" polishes (tau, rabi) with a derivative-free simplex
    running fresh map nodes around the best node, under the map's own
    meta["setting"] (physics, distribution, quadrature, backend, pulse spec,
    tolerances and grid options).
    """
    best = None
    for pt in map_result.points:
        if pt.failed:
            continue
        objective, feasible, res, paras = criterion.evaluate(pt.values)
        if feasible and (best is None or objective > best[0]):
            best = (objective, pt, res, paras)
    if best is None:
        return DmpReport(found=False, message="no operating point in range satisfies "
                                              "the resonant/parasitic constraints")
    objective, pt, res, paras = best
    tau, om = pt.params["tau"], pt.params["rabi"]
    refined = False
    if refine == "local":
        from scipy.optimize import minimize
        setting = _setting(map_result)

        def neg_obj(x):
            t, o = x
            if t <= 0 or o <= 0:
                return 1e3
            p = _map_node((t, o, *setting))
            if p.failed:
                return 1e3
            obj, _, _, _ = criterion.evaluate(p.values)
            return -obj

        taus = map_result.axes[0][1]
        oms = map_result.axes[1][1]
        dt = (taus[-1] - taus[0]) / max(1, len(taus) - 1)
        do = (oms[-1] - oms[0]) / max(1, len(oms) - 1)
        r = minimize(neg_obj, x0=[tau, om], method="Nelder-Mead",
                     options={"maxfev": max_refine_evals, "xatol": dt / 10,
                              "fatol": 1e-4,
                              "initial_simplex": [[tau, om], [tau + dt, om],
                                                  [tau, om + do]]})
        if r.fun < -objective:
            tau, om = float(r.x[0]), float(r.x[1])
            objective = -float(r.fun)
            p = _map_node((tau, om, *setting))
            _, _, res, paras = criterion.evaluate(p.values)
            refined = True
    ratio = res / max(max(paras), 1e-12) if paras else np.inf
    return DmpReport(found=True, tau=tau, rabi=om, objective=objective,
                     resonant=res, parasitic=tuple(paras), dichroic_ratio=float(ratio),
                     refined=refined)


def spot_check(map_result, n_nodes=5, seed=0, tol=1e-3):
    """Cross-validate random map nodes against the grid backend.

    Runs `validation.oracle_diff` (plane-wave inputs 0..n, ladder vs
    split-step) at n_nodes nodes drawn by a seeded RNG, under the map's own
    physics, pulse spec, ladder tolerances and grid options; records
    the worst absolute deviation and the worst grid norm drift.
    """
    n, cfg, _, _, _, spec, _, rtol, atol, grid_opts = _setting(map_result)
    rng = np.random.default_rng(seed)
    ok_points = [p for p in map_result.points if not p.failed]
    picks = rng.choice(len(ok_points), size=min(n_nodes, len(ok_points)), replace=False)
    worst = drift = 0.0
    details = []
    for ipick in sorted(int(i) for i in picks):
        pt = ok_points[ipick]
        pulse = spec.build(cfg, n, pt.params["tau"], pt.params["rabi"])
        od = oracle_diff(pulse, cfg, grid_opts=grid_opts, tol=tol, rtol=rtol, atol=atol)
        worst, drift = max(worst, od["max_abs_dev"]), max(drift, od["norm_drift"])
        details.append({"tau": pt.params["tau"], "rabi": pt.params["rabi"],
                        "max_abs_dev": od["max_abs_dev"], "norm_drift": od["norm_drift"]})
    return {"max_abs_dev": worst, "norm_drift": drift, "tol": tol,
            "passes": bool(worst < tol), "nodes": details}
