"""Span tracer for one braggsim CLI invocation, installed from outside.

Run as a script it wraps the layer boundaries of the ``braggsim`` package,
calls ``braggsim.cli.main`` with the arguments after ``--``, restores
every patched attribute and writes the spans and counters as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py --out spans.json -- check -o out

The program's own files are not changed.  A function is wrapped at every
name that is bound to it in a ``braggsim`` module, so ``from x import f``
bindings (``scans.reflectivity_matrix``, ``cli.robustness_curve`` ...)
are traced like module lookups.

A span is ``[id, name, layer, start, end, parent, foreign_s, info]`` with
perf_counter times.  Calls that happen hundreds of thousands of times
(the ladder right-hand side, grid FFTs, envelope evaluations) are not
kept as spans: they are counted and timed as leaves, and the time an
envelope leaf spends inside a span of another layer is recorded in that
span's ``foreign_s`` so self times stay exact.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# module -> layer; config and results are the CLI's I/O and orchestration
LAYERS = {"cli": "cli", "config": "cli", "results": "cli", "scans": "scans",
          "ensemble": "ensemble", "interferometer": "interferometer",
          "ladder": "ladder", "gridprop": "gridprop", "pulses": "pulses",
          "validation": "validation"}

# (module, attribute path) of every call that becomes a span
SPAN_TARGETS = [
    ("cli", "main"), ("config", "parse_config"),
    ("results", "ResultTable.write"), ("results", "RunManifest.write"),
    ("scans", "reflectivity_map"), ("scans", "_map_node"), ("scans", "find_dmp"),
    ("scans", "rabi_scan"), ("scans", "spot_check"),
    ("ensemble", "reflectivity_matrix"), ("ensemble", "ensemble_average"),
    ("ensemble", "robustness_curve"), ("ensemble", "class_populations"),
    ("interferometer", "fringe_scan"), ("interferometer", "path_resolved_mzi"),
    ("interferometer", "run_mzi"), ("interferometer", "mirror_response"),
    ("ladder", "propagate_batch"), ("ladder", "integrate_ladder"),
    ("ladder", "propagate_sequence"), ("ladder", "truncation_check"),
    ("gridprop", "propagate_pulse"), ("gridprop", "propagate_pulse_fixed"),
    ("gridprop", "momentum_populations"),
    ("validation", "check_suite"), ("validation", "oracle_diff"),
]

# (module, attribute path, leaf counter key)
LEAF_TARGETS = [
    ("gridprop", "fft", "gridprop.fft"), ("gridprop", "ifft", "gridprop.fft"),
    ("pulses", "Envelope.value_frac", "pulses.envelope"),
]


def _resolve(module, path):
    """(owner, attribute name) of module.path, e.g. ("Envelope", "value_frac")."""
    owner = importlib.import_module(f"braggsim.{module}")
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Wraps braggsim layer calls; ``restore`` undoes every patch."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.leaves = {}            # key -> [calls, seconds]
        self.solver = {"nfev": 0, "accepted": 0, "attempts": 0, "y_bytes_max": 0}
        self.patches = []           # (owner, name, original)
        self.missing = []

    # ---- installation ------------------------------------------------
    def install(self):
        for module, path in SPAN_TARGETS:
            layer = LAYERS[module]
            self._patch(module, path,
                        lambda fn, n=f"{module}.{path}", l=layer: self._span(n, l, fn))
        for module, path, key in LEAF_TARGETS:
            layer = LAYERS[module]
            self.leaves[key] = [0, 0.0]
            self._patch(module, path, lambda fn, k=key, l=layer: self._leaf(k, l, fn))
        self._patch("ladder", "solve_ivp", self._solve_ivp)

    def _patch(self, module, path, make_wrapper):
        try:
            owner, name = _resolve(module, path)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        except (AttributeError, KeyError, ImportError):
            self.missing.append(f"{module}.{path}")
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        if isinstance(owner, type):
            self._set(owner, name, wrapper, original)
            return
        # every binding of the function in the package, from-imports included
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "braggsim" or mod_name.startswith("braggsim."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper, original)

    def _set(self, owner, name, wrapper, original):
        self.patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def restore(self):
        """Put every original back and check that each one is in place."""
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        for owner, name, original in self.patches:
            current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            if current is not original:
                raise RuntimeError(f"{owner!r}.{name} was not restored")
        self.patches = []

    # ---- wrappers ----------------------------------------------------
    def _span(self, name, layer, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [len(spans), name, layer, perf_counter(), 0.0,
                   stack[-1] if stack else -1, 0.0, _span_info(name, args, kwargs)]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = perf_counter()
            _result_info(name, rec, result)
            return result
        return wrapper

    def _leaf(self, key, layer, fn):
        counter, spans, stack = self.leaves[key], self.spans, self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                counter[0] += 1
                counter[1] += dt
                if stack and spans[stack[-1]][2] != layer:
                    spans[stack[-1]][6] += dt
        return wrapper

    def _solve_ivp(self, solve_ivp):
        from scipy import integrate

        rhs = self.leaves.setdefault("ladder.rhs", [0, 0.0])
        solver = self.solver

        def wrapper(fun, t_span, y0, method="RK45", **kwargs):
            def timed_fun(t, y, *a):
                t0 = perf_counter()
                try:
                    return fun(t, y, *a)
                finally:
                    rhs[0] += 1
                    rhs[1] += perf_counter() - t0

            sol = solve_ivp(timed_fun, t_span, y0, method=method, **kwargs)
            n_stages = (getattr(integrate, method) if isinstance(method, str) else method).n_stages
            solver["nfev"] += sol.nfev
            # one evaluation at t0, then n_stages per attempted step (FSAL)
            solver["attempts"] += (sol.nfev - 1) // n_stages
            # sol.t holds every accepted step only while no t_eval is passed
            solver["accepted"] += len(sol.t) - 1
            solver["y_bytes_max"] = max(solver["y_bytes_max"], sol.y.nbytes)
            return sol
        return wrapper

    def dump(self, path, exit_code):
        with open(path, "w") as fh:
            json.dump({"exit_code": exit_code, "spans": self.spans, "leaves": self.leaves,
                       "solver": self.solver, "missing": self.missing}, fh)


def _span_info(name, args, kwargs):
    """Shape facts recorded at call time: batch widths and grid rows.

    A signature this does not know records nothing rather than failing
    the traced run.
    """
    try:
        if name == "ladder.propagate_batch":
            c0 = kwargs["c0"] if "c0" in kwargs else args[1]
            return {"cols": int(c0.shape[2])}
        if name in ("gridprop.propagate_pulse", "gridprop.propagate_pulse_fixed"):
            state = kwargs["state"] if "state" in kwargs else args[0]
            return {"rows": int(state.psi.size // state.grid.num_points)}
    except (AttributeError, IndexError, TypeError):
        pass
    return None


def _result_info(name, rec, result):
    """Health facts read from return values: oracle deviation, failed checks."""
    if name == "validation.oracle_diff":
        rec[7] = {"dev": float(result["max_abs_dev"])}
    elif name == "validation.check_suite":
        rec[7] = {"failed": sum(1 for _, ok, _ in result if not ok)}


def main(argv):
    sep = argv.index("--")
    out = argv[argv.index("--out") + 1]
    import braggsim.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = braggsim.cli.main(argv[sep + 1:])
    finally:
        tracer.restore()
    tracer.dump(out, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
