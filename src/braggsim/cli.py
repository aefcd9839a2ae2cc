"""Command-line interface.

Every subcommand reads a config file plus repeatable
``--set section.key=value`` overrides, writes result tables and a run
manifest into the output directory, and exits nonzero with a JSON error
object on stderr when something fails; a bad option value exits 2 with a
``ConfigurationError``.  Result tables for a fixed config and seed are byte
identical across runs, worker counts and core counts.

``main`` pins numpy's OpenBLAS to one thread before any work, as each map
worker does: a threaded BLAS sums the integrator's stage combinations in
another order, which moves table values by ~1e-13 with the host's core
count.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, interferometer, scans, validation
from .config import parse_config
from .ensemble import backend_window, robustness_curve
from .errors import BraggSimError, ConfigurationError, ParameterError
from .results import ResultTable, RunManifest, output_dir
from .scans import DmpCriterion


def _build_parser():
    ap = argparse.ArgumentParser(prog="braggsim",
                                 description="Higher-order Bragg diffraction "
                                             "simulator and pulse-design toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", "-c", default=None, help="run configuration file")
        p.add_argument("--output", "-o", default=None, help="output directory override")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes, as [output] jobs (0: available parallelism)")
        p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                       help="config override (repeatable)")
        p.set_defaults(handler=handler)
        return p

    command("rabi-scan", cmd_rabi_scan, "class populations vs Rabi frequency")
    command("map", cmd_map, "2D (tau, Rabi) reflectivity map")
    command("dmp-find", cmd_dmp_find, "locate the dichroic operating point")
    command("mirror-response", cmd_mirror_response, "populations after the mirror per input class")
    p = command("mzi", cmd_mzi, "Mach-Zehnder interferometer run")
    p.add_argument("--path-resolved", action="store_true")
    p.add_argument("--split-after", default=None,
                   help="pulse ordinals to split at, default 0,1 (path-resolved runs "
                        "and the closing-path detector of a ladder --phi3-scan)")
    p.add_argument("--phi3-scan", type=int, default=0, metavar="N",
                   help="scan the final pulse phase over [0, 2pi) with N points")
    command("robustness", cmd_robustness, "reflectivities vs momentum spread")
    command("check", cmd_check, "run the numerical invariant suite")
    command("oracle-diff", cmd_oracle_diff, "grid vs ladder backend comparison")
    return ap


def _khz(omega):
    return omega / (2e3 * np.pi)


def _oracle_settings(rc):
    """[propagator] settings for the ladder-vs-grid comparisons (no backend choice)."""
    return {k: v for k, v in rc.propagator().items() if k != "backend"}


# Every handler takes (args, rc, cfg, outdir, manifest), cfg being the run's one
# PhysicalConfig, and returns the exit code.

def cmd_rabi_scan(args, rc, cfg, outdir, manifest):
    sc = rc["scan"]
    n = sc["order"]
    tau = rc.get("pulse", "tau")
    grid = np.linspace(sc["omega_min"], sc["omega_max"], sc["omega_count"])
    res = scans.rabi_scan(cfg, n, tau, grid, rc.distribution(),
                          quadrature=rc.quadrature(), spec=rc.pulse_spec(),
                          **rc.propagator())
    cols = [("omega_over_2pi_kHz", "kHz")] + [(f"P{c}", "probability")
                                              for c in range(n + 1)]
    table = ResultTable(cols)
    for pt in res.points:
        if pt.failed:
            manifest.failures.append(pt.params)
            continue
        table.add(_khz(pt.params["rabi"]), *[pt.values[f"P{c}"] for c in range(n + 1)])
    table.write(os.path.join(outdir, "rabi_scan.tsv"),
                manifest.provenance(order=n, tau_us=tau * 1e6))
    try:
        om_pk, p_pk = scans.first_maximum([pt.params["rabi"] for pt in res.points],
                                          [pt.values.get(f"P{n}", np.nan)
                                           for pt in res.points])
    except ParameterError:
        print(f"no interior maximum of P{n} in the scan range")
        return 0
    print(f"first maximum of P{n}: {p_pk:.4f} at Omega = 2*pi*{_khz(om_pk):.2f} kHz")
    return 0


def _map(rc, cfg, outdir, manifest):
    """Run the reflectivity map and its spot check, write map.tsv, return the map."""
    sc = rc["scan"]
    n = sc["order"]
    taus = np.linspace(sc["tau_min"], sc["tau_max"], sc["tau_count"])
    oms = np.linspace(sc["omega_min"], sc["omega_max"], sc["omega_count"])
    if sc["spot_check_nodes"] > 0:   # the grid of the spot check must hold the order first
        backend_window(n, range(n + 1), "grid", rc.grid_opts())
    res = scans.reflectivity_map(cfg, n, taus, oms, sc["pairs"], rc.distribution(),
                                 quadrature=rc.quadrature(), jobs=manifest.jobs,
                                 spec=rc.pulse_spec(),
                                 cache_path=os.path.join(outdir, "map_cache.jsonl"),
                                 **rc.propagator())
    manifest.failures.extend(pt.params for pt in res.points if pt.failed)
    if sc["spot_check_nodes"] > 0:
        manifest.spot_check = scans.spot_check(res, n_nodes=sc["spot_check_nodes"],
                                               seed=rc.get("ensemble", "seed"))
    pair_cols = [f"R_{a}_{b}{d}" for a, b in sc["pairs"] for d in ("", "_fwd", "_rev")]
    table = ResultTable([("tau_us", "us"), ("omega_over_2pi_kHz", "kHz")]
                        + [(c, "probability") for c in pair_cols] + [("failed", "flag")])
    for pt in res.points:
        vals = [pt.values.get(c, np.nan) for c in pair_cols]
        table.add(pt.params["tau"] * 1e6, _khz(pt.params["rabi"]), *vals,
                  1 if pt.failed else 0)
    table.write(os.path.join(outdir, "map.tsv"), manifest.provenance(order=n))
    print(f"map: {len(res.points)} nodes, {len(manifest.failures)} failures")
    if manifest.spot_check:
        okmsg = "ok" if manifest.spot_check["passes"] else "FAILED"
        print(f"spot-check vs grid backend: max dev "
              f"{manifest.spot_check['max_abs_dev']:.2e} ({okmsg})")
    return res


def cmd_map(args, rc, cfg, outdir, manifest):
    _map(rc, cfg, outdir, manifest)
    return 0


def cmd_dmp_find(args, rc, cfg, outdir, manifest):
    sc = rc["scan"]
    n = sc["order"]
    crit = DmpCriterion.for_order(n, lambda_pen=sc["lambda_pen"],
                                  min_resonant=sc["min_resonant"],
                                  max_parasitic=sc["max_parasitic"])
    missing = [p for p in (crit.resonant, *crit.parasitic) if p not in sc["pairs"]]
    if missing:
        raise ConfigurationError(f"[scan] pairs lacks {', '.join(f'{a}-{b}' for a, b in missing)}, "
                                 f"which the order-{n} criterion scores")
    res = _map(rc, cfg, outdir, manifest)
    rep = scans.find_dmp(res, crit, refine=sc["refine"])
    payload = {"found": rep.found, "tau_us": rep.tau * 1e6,
               "omega_over_2pi_kHz": _khz(rep.rabi), "objective": rep.objective,
               "resonant_reflectivity": rep.resonant,
               "parasitic_reflectivities": list(rep.parasitic),
               # strict JSON: null, not Infinity, when no parasitic pair is scored
               "dichroic_ratio": rep.dichroic_ratio if np.isfinite(rep.dichroic_ratio) else None,
               "refined": rep.refined,
               "message": rep.message}
    manifest.write_json(os.path.join(outdir, "dmp.json"), payload)
    if rep.found:
        print(f"DMP: tau = {rep.tau*1e6:.1f} us, Omega = 2*pi*{_khz(rep.rabi):.2f} kHz, "
              f"resonant {rep.resonant:.3f}, parasitic "
              f"{['%.3f' % p for p in rep.parasitic]}, dichroic ratio "
              f"{rep.dichroic_ratio:.1f}")
    else:
        print(f"no DMP in range: {rep.message}")
    return 0


def cmd_mirror_response(args, rc, cfg, outdir, manifest):
    pulse = rc.pulse(cfg)
    n = pulse.order_hint
    rows = interferometer.mirror_response(pulse, rc.distribution(), cfg,
                                          quadrature=rc.quadrature(), **rc.propagator())
    table = ResultTable([("input_class", "index")]
                        + [(f"P{c}_after", "probability") for c in range(n + 1)])
    for r in rows:
        table.add(r["input"], *[r["after"][c] for c in range(n + 1)])
    table.write(os.path.join(outdir, "mirror_response.tsv"),
                manifest.provenance(order=n, tau_us=pulse.duration * 1e6,
                                    omega_avg_kHz=_khz(pulse.rabi_avg)))
    for r in rows:
        dominant = max(r["after"], key=r["after"].get)
        print(f"input {r['input']}: dominant output {dominant} "
              f"({r['after'][dominant]:.3f})")
    return 0


def cmd_mzi(args, rc, cfg, outdir, manifest):
    if args.phi3_scan < 0:
        raise ConfigurationError(f"--phi3-scan needs a point count >= 0, got {args.phi3_scan}")
    if args.phi3_scan and args.path_resolved:
        raise ConfigurationError("--phi3-scan and --path-resolved are separate runs; give one")
    prop = rc.propagator()
    ladder_scan = args.phi3_scan and prop["backend"] == "ladder"
    if args.split_after is not None and not (args.path_resolved or ladder_scan):
        raise ConfigurationError("--split-after applies to --path-resolved runs and to a "
                                 "--phi3-scan on the ladder backend only")
    split_spec = "0,1" if args.split_after is None else args.split_after
    try:
        split_after = tuple(int(x) for x in split_spec.split(","))
    except ValueError:
        raise ConfigurationError(f"--split-after needs pulse ordinals like \"0,1\", "
                                 f"got {split_spec!r}") from None
    seq = rc.mzi_sequence(cfg)
    dist = rc.distribution()
    n = seq.order_hint
    if args.phi3_scan:
        phis = np.linspace(0.0, 2 * np.pi, args.phi3_scan, endpoint=False)
        rows, fits = interferometer.fringe_scan(seq, phis, dist, cfg,
                                                quadrature=rc.quadrature(),
                                                split_after=split_after if ladder_scan
                                                else (), **prop)
        table = ResultTable([("phi3", "rad"), ("port_0", "probability"),
                             (f"port_{n}", "probability"),
                             ("undetected", "probability")])
        for r in rows:
            table.add(r["phi3"], r["port_0"], r[f"port_{n}"], r["undetected"])
        table.write(os.path.join(outdir, "fringe_scan.tsv"),
                    manifest.provenance(order=n))
        f0 = fits[0]
        print(f"port-0 fringe: offset {f0.offset:.4f}, contrast {f0.contrast:.4f}, "
              f"phase {f0.phase:.4f} rad (harmonic {f0.harmonic}), "
              f"max residual {f0.max_residual:.2e}")
        return 0
    if args.path_resolved:
        tree, rep = interferometer.path_resolved_mzi(seq, dist, cfg,
                                                     quadrature=rc.quadrature(),
                                                     split_after=split_after,
                                                     backend=prop["backend"],
                                                     rtol=prop["rtol"], atol=prop["atol"])
        table = ResultTable([("branch", "history"), ("weight", "probability"),
                             ("port_class_mass", "probability"),
                             ("port_coupled_mass", "probability"),
                             ("port_class_fraction", "ratio"),
                             ("port_coupled_fraction", "ratio")])
        tree = sorted(tree, key=lambda nd: nd.key)
        for nd in tree:
            table.add(nd.key, nd.weight, nd.port_class_mass, nd.port_coupled_mass,
                      nd.port_class_fraction, nd.port_coupled_fraction)
        table.write(os.path.join(outdir, "mzi_paths.tsv"),
                    manifest.provenance(order=n, split_after=split_spec))
        print(f"ports {dict((k, round(v, 4)) for k, v in rep.ports.items())}, "
              f"undetected {rep.undetected:.4f}, pruned {rep.pruned:.2e}")
        for nd in tree:
            print(f"  branch {nd.key}: weight {nd.weight:.4f}, coupled into ports "
                  f"{nd.port_coupled_fraction:.3f} of branch mass")
        return 0
    rep = interferometer.run_mzi(seq, dist, cfg, quadrature=rc.quadrature(), **prop)
    table = ResultTable([("port", "class"), ("probability", "probability")])
    for p, v in rep.ports.items():
        table.add(p, v)
    table.add(-1, rep.undetected)
    table.write(os.path.join(outdir, "mzi_ports.tsv"), manifest.provenance(order=n))
    print(f"ports: {dict((k, round(v, 4)) for k, v in rep.ports.items())}, "
          f"undetected {rep.undetected:.4f}")
    return 0


def cmd_robustness(args, rc, cfg, outdir, manifest):
    pulse = rc.pulse(cfg)
    n = pulse.order_hint
    pairs = rc.get("scan", "pairs")
    scans.check_pairs(pairs, n)
    dps = np.linspace(0.0, 0.3, 21)
    recs, stats = robustness_curve(pulse, dps, cfg, p0=rc.get("ensemble", "p0"),
                                   quadrature=rc.quadrature(), **rc.propagator())
    table = ResultTable([("dp_hbark", "hbar*k_eff")]
                        + [(f"R_{a}_{b}", "probability") for a, b in pairs])
    for dp, rec in zip(dps, recs):
        table.add(float(dp), *[rec.pair(a, b) for a, b in pairs])
    table.write(os.path.join(outdir, "robustness.tsv"),
                manifest.provenance(order=n, tau_us=pulse.duration * 1e6,
                                    omega_avg_kHz=_khz(pulse.rabi_avg), **stats))
    print(f"robustness curve over {len(dps)} spreads written")
    return 0


def cmd_check(args, rc, cfg, outdir, manifest):
    results = validation.check_suite(cfg, **_oracle_settings(rc))
    table = ResultTable([("check", "name"), ("passed", "flag"), ("detail", "text")])
    for name, passed, detail in results:
        table.add(name, 1 if passed else 0, detail)
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    table.write(os.path.join(outdir, "check.tsv"), manifest.provenance())
    return 0 if all(passed for _, passed, _ in results) else 3


def cmd_oracle_diff(args, rc, cfg, outdir, manifest):
    pulse = rc.pulse(cfg)
    od = validation.oracle_diff(pulse, cfg, **_oracle_settings(rc))
    manifest.write_json(os.path.join(outdir, "oracle_diff.json"), od)
    print(f"max class-population deviation grid vs ladder: {od['max_abs_dev']:.3e} "
          f"({'ok' if od['passes'] else 'FAIL'})")
    return 0 if od["passes"] else 4


def main(argv=None):
    scans._one_blas_thread()
    ap = _build_parser()
    args = ap.parse_args(argv)
    t0 = time.time()
    try:
        jobs_set = [] if args.jobs is None else [f"output.jobs={args.jobs}"]
        rc = parse_config(args.config, overrides=args.set + jobs_set)
        outdir = output_dir(rc.get("output", "dir"), args.output)
        manifest = RunManifest(args.command, rc.echo(),
                               jobs=rc.get("output", "jobs") or os.cpu_count() or 1)
        code = args.handler(args, rc, rc.physical(), outdir, manifest)
        manifest.wall_time_s = time.time() - t0
        manifest.write(os.path.join(outdir, f"{args.command.replace('-', '_')}_manifest.json"))
        return code
    except BraggSimError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc),
                   "context": getattr(exc, "context", {})}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
