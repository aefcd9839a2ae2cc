import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import braggsim
from braggsim import interferometer, ladder, scans
from braggsim.cli import main
from braggsim.config import parse_config
from braggsim.errors import IntegrationError
from braggsim.pulses import PulseSpec, mach_zehnder_sequence
from braggsim.results import ResultTable

FAST_OVERRIDES = ["--set", "ensemble.nodes=7"]


def _cfg(tmp_path, body=""):
    path = os.path.join(tmp_path, "run.cfg")
    with open(path, "w") as fh:
        fh.write('[physics]\npreset = "rb87"\n' + body)
    return path


def _reads_back(path):
    """Read a table the CLI wrote; writing it again must give the same bytes."""
    table = ResultTable.read(path)
    table.write(path + ".again", table.provenance)
    assert open(path + ".again", "rb").read() == open(path, "rb").read()
    return table


def test_check_command(tmp_path, capsys):
    cfg = _cfg(tmp_path, f"[output]\ndir = {tmp_path}/out\n")
    code = main(["check", "-c", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert os.path.exists(f"{tmp_path}/out/check_manifest.json")
    table = _reads_back(f"{tmp_path}/out/check.tsv")
    # the checks, their order and their pass flags, whatever state each one reads
    assert [row[:2] for row in table.rows] == [
        (name, 1.0) for name in ("unit_round_trip", "ladder_norm_drift", "grid_norm_drift",
                                 "offcomb_population", "palindromic_reversal",
                                 "phase_gauge_invariance", "quadrature_convergence",
                                 "ladder_truncation", "oracle_diff")]
    assert all(isinstance(row[2], str) for row in table.rows)


def test_rabi_scan_follows_omega_convention(tmp_path, capsys):
    # peak Rabi values reach P3's first maximum at about 54 kHz, avg at 23 kHz
    cfg = _cfg(tmp_path, "[scan]\nomega_min = 10\nomega_max = 80\nomega_count = 15\n"
                         "[ensemble]\nnodes = 3\n")
    probs = {}
    for conv in ("avg", "peak"):
        assert main(["rabi-scan", "-c", cfg, "-o", f"{tmp_path}/{conv}",
                     "--set", f"pulse.omega_convention={conv}"]) == 0
        table = ResultTable.read(f"{tmp_path}/{conv}/rabi_scan.tsv")
        probs[conv] = [row[1:] for row in table.rows]
    assert probs["peak"] != probs["avg"]
    rc = parse_config(cfg, overrides=["pulse.omega_convention=peak"])
    sc = rc["scan"]
    res = scans.rabi_scan(rc.physical(), sc["order"], rc.get("pulse", "tau"),
                          np.linspace(sc["omega_min"], sc["omega_max"], sc["omega_count"]),
                          rc.distribution(), quadrature=rc.quadrature(),
                          spec=PulseSpec(convention="peak"), **rc.propagator())
    assert probs["peak"] == [tuple(pt.values[f"P{c}"] for c in range(4)) for pt in res.points]


def test_rabi_scan_without_maximum_writes_manifest(tmp_path, capsys):
    cfg = _cfg(tmp_path, f"[scan]\nomega_count = 2\n[ensemble]\nnodes = 3\n"
                         f"[output]\ndir = {tmp_path}/out\n")
    assert main(["rabi-scan", "-c", cfg]) == 0
    assert "no interior maximum of P3 in the scan range" in capsys.readouterr().out
    man = json.load(open(f"{tmp_path}/out/rabi_scan_manifest.json"))
    table = ResultTable.read(f"{tmp_path}/out/rabi_scan.tsv")
    assert table.provenance["manifest_hash"] == man["manifest_hash"]


@pytest.mark.parametrize("command, table, override", [
    ("rabi-scan", "rabi_scan.tsv", "pulse.envelope=rectangular"),
    ("mzi", "mzi_ports.tsv", "pulse.envelope=rectangular"),
    ("map", "map.tsv", "pulse.p0=0.2"),
    ("robustness", "robustness.tsv", "ensemble.p0=0.2"),
])
def test_data_rows_follow_pulse_and_cloud_keys(tmp_path, capsys, command, table, override):
    cfg = _cfg(tmp_path, "[scan]\ntau_count = 2\nomega_count = 7\nspot_check_nodes = 0\n"
                         "[ensemble]\nnodes = 3\n")
    rows = {}
    for name, sets in (("default", []), ("set", ["--set", override])):
        assert main([command, "-c", cfg, "-o", f"{tmp_path}/{name}", *sets]) == 0
        rows[name] = ResultTable.read(f"{tmp_path}/{name}/{table}").rows
    assert rows["set"] != rows["default"]


def test_robustness_header_records_the_response_table(tmp_path, capsys):
    cfg = _cfg(tmp_path, "[ensemble]\nnodes = 3\n")
    headers = {}
    for name, sets in (("table", []), ("direct", ["--set", "ensemble.p0=0.2"])):
        assert main(["robustness", "-c", cfg, "-o", f"{tmp_path}/{name}", *sets]) == 0
        headers[name] = ResultTable.read(f"{tmp_path}/{name}/robustness.tsv").provenance
    assert headers["table"]["response_points"] == headers["table"]["quasimomenta_propagated"]
    assert float(headers["table"]["response_tail"]) < 1e-12
    # off the pulse's resonant momentum every spread is solved: 3 nodes, 1 at dp = 0
    assert (headers["direct"]["response_points"], headers["direct"]["response_tail"],
            headers["direct"]["quasimomenta_propagated"]) == ("0", "0.0", str(1 + 3 * 20))


def test_oracle_diff_command(tmp_path, capsys):
    cfg = _cfg(tmp_path, f"[output]\ndir = {tmp_path}/out\n")
    code = main(["oracle-diff", "-c", cfg])
    assert code == 0
    data = json.load(open(f"{tmp_path}/out/oracle_diff.json"))
    assert data["passes"] and data["max_abs_dev"] < 1e-3
    assert 0.0 < data["norm_drift"] < 1e-10


def _map_body(outdir, taus=3, oms=3):
    return (f"[scan]\norder = 3\ntau_min = 90\ntau_max = 120\ntau_count = {taus}\n"
            f"omega_min = 18\nomega_max = 24\nomega_count = {oms}\n"
            f"spot_check_nodes = 2\n[ensemble]\nnodes = 7\n"
            f"[output]\ndir = {outdir}\n")


def test_map_command_and_determinism(tmp_path, capsys):
    cfg1 = _cfg(tmp_path, _map_body(f"{tmp_path}/out1"))
    assert main(["map", "-c", cfg1, "--jobs", "1"]) == 0
    cfg2text = _map_body(f"{tmp_path}/out2")
    with open(os.path.join(tmp_path, "run2.cfg"), "w") as fh:
        fh.write('[physics]\npreset = "rb87"\n' + cfg2text)
    assert main(["map", "-c", os.path.join(tmp_path, "run2.cfg"), "--jobs", "2"]) == 0
    t1 = open(f"{tmp_path}/out1/map.tsv", "rb").read()
    t2 = open(f"{tmp_path}/out2/map.tsv", "rb").read()
    assert t1 == t2
    man = json.load(open(f"{tmp_path}/out1/map_manifest.json"))
    assert man["spot_check"]["passes"]


def test_jobs_zero_is_available_parallelism(tmp_path, capsys):
    # --jobs follows the [output] jobs rule: 0 means every available CPU
    cfg = _cfg(tmp_path, f"[output]\ndir = {tmp_path}/out\n")
    assert main(["oracle-diff", "-c", cfg, "--jobs", "0"]) == 0
    man = json.load(open(f"{tmp_path}/out/oracle_diff_manifest.json"))
    assert man["jobs"] == (os.cpu_count() or 1)


def test_all_failed_map_fails_its_spot_check(tmp_path, capsys, monkeypatch):
    # a spot check that compared no node must not pass
    def boom(*args, **kwargs):
        raise IntegrationError("step size underflow")
    monkeypatch.setattr(ladder, "propagate_batch", boom)
    cfg = _cfg(tmp_path, _map_body(f"{tmp_path}/out", taus=2, oms=2))
    assert main(["map", "-c", cfg, "--jobs", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "map: 4 nodes, 4 failures" and out[1].endswith("(FAILED)")
    man = json.load(open(f"{tmp_path}/out/map_manifest.json"))
    assert man["spot_check"]["nodes"] == [] and man["spot_check"]["passes"] is False


def test_map_columns(tmp_path, capsys):
    cfg = _cfg(tmp_path, _map_body(f"{tmp_path}/out"))
    assert main(["map", "-c", cfg, "--jobs", "1"]) == 0
    head = open(f"{tmp_path}/out/map.tsv").read().splitlines()
    names = [l.split()[3] for l in head if l.startswith("# column")]
    assert names[:2] == ["tau_us", "omega_over_2pi_kHz"]
    assert "R_0_3" in names and "R_1_2" in names


def test_dmp_find_reports_point(tmp_path, capsys):
    body = _map_body(f"{tmp_path}/out") + ("min_resonant = 0.0\n"
                                           "max_parasitic = 1.0\n")
    # merge the scan keys into one section block
    cfg = os.path.join(tmp_path, "run.cfg")
    with open(cfg, "w") as fh:
        fh.write('[physics]\npreset = "rb87"\n'
                 f"[scan]\norder = 3\ntau_min = 90\ntau_max = 120\ntau_count = 3\n"
                 f"omega_min = 18\nomega_max = 24\nomega_count = 3\n"
                 f"spot_check_nodes = 0\nmin_resonant = 0.0\nmax_parasitic = 1.0\n"
                 f"[ensemble]\nnodes = 7\n[output]\ndir = {tmp_path}/out\n")
    assert main(["dmp-find", "-c", cfg, "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "DMP" in out and "dichroic ratio" in out
    data = json.load(open(f"{tmp_path}/out/dmp.json"))
    assert data["found"]


def test_dmp_json_without_parasitic_pair_is_strict_json(tmp_path, capsys):
    # order 2 has no parasitic pair, so the dichroic ratio is undefined: null,
    # not the Infinity that strict JSON readers refuse
    cfg = _cfg(tmp_path, _map_body(f"{tmp_path}/out", taus=2, oms=2))
    assert main(["dmp-find", "-c", cfg, "--jobs", "1", "--set", "scan.order=2",
                 "--set", "scan.pairs=0-2", "--set", "scan.spot_check_nodes=0",
                 "--set", "scan.min_resonant=0"]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    data = json.loads(open(f"{tmp_path}/out/dmp.json").read(), parse_constant=refuse)
    assert data["found"] and data["parasitic_reflectivities"] == []
    assert data["dichroic_ratio"] is None


@pytest.mark.parametrize("override, missing", [("scan.order=5", "0-5, 1-4, 2-3"),
                                               ("scan.pairs=0-3", "1-2")],
                         ids=["order-5", "pairs-0-3"])
def test_dmp_find_without_a_scored_pair_fails_before_any_node(tmp_path, capsys, override,
                                                               missing):
    # the criterion scores R_0_n and every parasitic pair; without the check the
    # whole map would run before a missing pair surfaced
    cfg = _cfg(tmp_path, _map_body(f"{tmp_path}/out", taus=2, oms=2))
    assert main(["dmp-find", "-c", cfg, "--jobs", "1", "--set", override]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError" and missing in err["message"]
    assert not os.path.exists(f"{tmp_path}/out/map_cache.jsonl")


def test_default_map_node_cache_key(tmp_path, monkeypatch):
    # every map cache on disk is keyed this way, so a change to how keys are
    # built must be deliberate
    monkeypatch.setattr(scans, "_map_node",
                        lambda args: scans.ScanPoint({"tau": args[0], "rabi": args[1]}, {}))
    assert main(["map", "-o", str(tmp_path), "--jobs", "1",
                 "--set", "scan.spot_check_nodes=0"]) == 0
    with open(f"{tmp_path}/map_cache.jsonl") as fh:
        assert json.loads(fh.readline())["hash"] == "ee2ca2692d98ed98"


def test_mirror_response_command(tmp_path, capsys):
    cfg = _cfg(tmp_path, f"[pulse]\norder = 3\ntau = 120\nomega = 21\n"
                         f"[ensemble]\nnodes = 7\n[output]\ndir = {tmp_path}/out\n")
    assert main(["mirror-response", "-c", cfg]) == 0
    out = capsys.readouterr().out
    assert "input 1: dominant output 1" in out


def test_mzi_fringe_scan(tmp_path, capsys):
    cfg = _cfg(tmp_path, f"[sequence]\nt_free = 0.4\n[ensemble]\nnodes = 5\n"
                         f"[output]\ndir = {tmp_path}/out\n")
    assert main(["mzi", "-c", cfg, "--phi3-scan", "8"]) == 0
    assert os.path.exists(f"{tmp_path}/out/fringe_scan.tsv")
    assert "contrast" in capsys.readouterr().out


def test_mzi_path_resolved(tmp_path, capsys):
    cfg = _cfg(tmp_path, f"[sequence]\nt_free = 0.4\n[ensemble]\nnodes = 5\n"
                         f"[output]\ndir = {tmp_path}/out\n")
    assert main(["mzi", "-c", cfg, "--path-resolved"]) == 0
    out = capsys.readouterr().out
    assert "branch" in out
    table = _reads_back(f"{tmp_path}/out/mzi_paths.tsv")
    assert table.rows[0][0] == "0>0" and isinstance(table.rows[0][1], float)


def test_mzi_follows_pulse_p0(tmp_path, capsys):
    # [pulse] p0 tunes every interferometer pulse to a moving cloud
    cfg = _cfg(tmp_path, "[ensemble]\nnodes = 3\n")
    ports = {}
    for p0 in ("0", "0.3"):
        assert main(["mzi", "-c", cfg, "-o", f"{tmp_path}/{p0}",
                     "--set", f"pulse.p0={p0}"]) == 0
        ports[p0] = ResultTable.read(f"{tmp_path}/{p0}/mzi_ports.tsv").rows
    assert ports["0.3"] != ports["0"]
    rc = parse_config(cfg)
    cfg_phys = rc.physical()
    s = rc["sequence"]
    seq = mach_zehnder_sequence(cfg_phys, 3, s["tau_bs"], s["omega_bs"], s["tau_mirror"],
                                s["omega_mirror"], s["t_free"],
                                spec=PulseSpec(p0=0.3))
    rep = interferometer.run_mzi(seq, rc.distribution(), cfg_phys,
                                 quadrature=rc.quadrature())
    assert ports["0.3"] == [(0.0, rep.ports[0]), (3.0, rep.ports[3]),
                            (-1.0, rep.undetected)]


def test_path_resolved_rejects_grid_backend(tmp_path, capsys):
    cfg = _cfg(tmp_path, f"[sequence]\nt_free = 0.4\n[ensemble]\nnodes = 5\n"
                         f"[output]\ndir = {tmp_path}/out\n")
    assert main(["mzi", "-c", cfg, "--path-resolved", "--set", "propagator.backend=grid"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"


def test_commands_use_configured_ladder_tolerances(tmp_path, capsys, monkeypatch):
    # every ladder solve is one propagate_batch call; a half pulse runs at a quarter of
    # the configured tolerances
    seen = []
    def recording(*args, _fn=ladder.propagate_batch, **kwargs):
        quarter = 4 if kwargs.get("part") == 0.5 else 1
        seen.append((quarter * kwargs["rtol"], quarter * kwargs["atol"]))
        return _fn(*args, **kwargs)
    monkeypatch.setattr(ladder, "propagate_batch", recording)
    cfg = _cfg(tmp_path, f"[ensemble]\nnodes = 3\n[output]\ndir = {tmp_path}/out\n")
    for command in ("mzi", "robustness", "mirror-response"):
        seen.clear()
        assert main([command, "-c", cfg, "--set", "propagator.ladder_rtol=1e-4",
                     "--set", "propagator.ladder_atol=1e-6"]) == 0
        assert seen and set(seen) == {(1e-4, 1e-6)}, command


def test_override_flags_dotted(tmp_path, capsys):
    # --set section.key=value is the one override spelling
    cfg = _cfg(tmp_path, f"[output]\ndir = {tmp_path}/out\n")
    for dotted in (["--propagator.tol", "1e-9"], ["--propagator.tol=1e-9"]):
        with pytest.raises(SystemExit) as exc:
            main(["oracle-diff", "-c", cfg, *dotted])
        assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["oracle-diff", "-c", cfg, "--set", "propagator.tol=1e-9"]) == 0
    man = json.load(open(f"{tmp_path}/out/oracle_diff_manifest.json"))
    assert man["config"]["propagator"]["tol"] == 1e-9
    assert main(["oracle-diff", "-c", cfg, "--set", "nosuch.key=1"]) == 2
    assert "unknown config section [nosuch]" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("argv, error", [
    (["mzi", "--path-resolved", "--split-after", "0,x"], "ConfigurationError"),
    (["mzi", "--phi3-scan", "-2"], "ConfigurationError"),
    (["robustness", "--set", "pulse.order=1"], "ParameterError"),   # [scan] pairs 0-3
    (["oracle-diff", "--set", "propagator.grid_periods=3"], "ParameterError"),
    (["check", "--jobs", "-1"], "ConfigurationError"),
    (["mzi", "--phi3-scan", "4", "--split-after", "7", "--set", "propagator.backend=grid"],
     "ConfigurationError"),                                # the grid scan has no branches
    (["mzi", "--split-after", "7"], "ConfigurationError"),  # a port run has no branches
    (["mzi", "--path-resolved", "--phi3-scan", "4"], "ConfigurationError"),
    # a grid no scan node fits (classes 2, 3 beyond Nyquist, or no margin 4 above order 3)
    *[([command, "--set", "propagator.backend=grid", "--set", f"propagator.grid_points={n}"],
       "ParameterError") for command in ("map", "rabi-scan") for n in (32, 64)],
    (["map", "--set", "scan.pairs=0-3,0-3"], "ConfigurationError"),  # columns named twice
], ids=["split-after", "phi3-scan", "pairs-beyond-order", "grid-periods-not-dividing",
        "negative-jobs", "split-after-on-grid-scan", "split-after-on-port-run",
        "path-resolved-with-phi3-scan", "map-grid-32", "map-grid-64", "rabi-scan-grid-32",
        "rabi-scan-grid-64", "repeated-pair"])
def test_bad_command_line_value_is_a_typed_error(tmp_path, capsys, argv, error):
    cfg = _cfg(tmp_path, f"[ensemble]\nnodes = 3\n[output]\ndir = {tmp_path}/out\n")
    assert main([*argv, "-c", cfg]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == error
    assert not os.path.exists(f"{tmp_path}/out/map_cache.jsonl")   # failed before any node


def test_spot_check_grid_is_checked_before_the_ladder_map(tmp_path, capsys):
    # the spot check runs on the [propagator] grid, whatever the map's backend: a grid
    # that cannot hold order 3 stops the map before its first node, not after the sweep
    small = ["--jobs", "1", "--set", "propagator.grid_points=64", "--set", "scan.tau_count=2",
             "--set", "scan.omega_count=2", "--set", "ensemble.nodes=7"]
    cfg = _cfg(tmp_path, f"[output]\ndir = {tmp_path}/out\n")
    assert main(["map", "-c", cfg, *small, "--set", "scan.spot_check_nodes=2"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParameterError" and "cannot resolve order 3" in err["message"]
    assert not os.path.exists(f"{tmp_path}/out/map_cache.jsonl")
    # without a spot check the same grid setting is never used, and the ladder maps
    assert main(["map", "-c", cfg, *small, "--set", "scan.spot_check_nodes=0"]) == 0
    assert len(ResultTable.read(f"{tmp_path}/out/map.tsv").rows) == 4


def test_fringe_scan_follows_split_after(tmp_path, capsys):
    # the closing-path detector depends on where the branches split
    cfg = _cfg(tmp_path, "[ensemble]\nnodes = 3\n")
    rows = {}
    for split in ("0", "0,1"):
        assert main(["mzi", "-c", cfg, "-o", f"{tmp_path}/{split}", "--phi3-scan", "4",
                     "--split-after", split]) == 0
        rows[split] = ResultTable.read(f"{tmp_path}/{split}/fringe_scan.tsv").rows
    assert rows["0"] != rows["0,1"]
    rc = parse_config(cfg)
    cfg_phys = rc.physical()
    lib, _ = interferometer.fringe_scan(rc.mzi_sequence(cfg_phys),
                                        np.linspace(0.0, 2 * np.pi, 4, endpoint=False),
                                        rc.distribution(), cfg_phys,
                                        quadrature=rc.quadrature(), split_after=(0,))
    assert rows["0"] == [(r["phi3"], r["port_0"], r["port_3"], r["undetected"])
                         for r in lib]


def test_grid_fringe_scan_detects_the_whole_state(tmp_path, capsys):
    # the grid backend has no closing-path detector; its fringe scan detects all
    cfg = _cfg(tmp_path, "[ensemble]\nnodes = 3\n")
    assert main(["mzi", "-c", cfg, "-o", f"{tmp_path}/all", "--phi3-scan", "4",
                 "--set", "propagator.backend=grid"]) == 0
    rows = ResultTable.read(f"{tmp_path}/all/fringe_scan.tsv").rows
    rc = parse_config(cfg, overrides=["propagator.backend=grid"])
    cfg_phys = rc.physical()
    lib, _ = interferometer.fringe_scan(rc.mzi_sequence(cfg_phys),
                                        np.linspace(0.0, 2 * np.pi, 4, endpoint=False),
                                        rc.distribution(), cfg_phys, quadrature=rc.quadrature(),
                                        split_after=(), **rc.propagator())
    assert rc.propagator()["backend"] == "grid"
    assert rows == [(r["phi3"], r["port_0"], r["port_3"], r["undetected"]) for r in lib]


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy costs a fresh process a quarter second; only [scan] refine = "local"
    # imports it, where it uses it, so importing the CLI and running `check` and
    # `robustness` load no scipy module
    src = os.path.dirname(os.path.dirname(os.path.abspath(braggsim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = ("import sys, braggsim.cli as cli\n"
              f"cli.main(['check', '-o', {str(tmp_path / 'check')!r}])\n"
              f"cli.main(['robustness', '-o', {str(tmp_path / 'rob')!r}, "
              "'--set', 'ensemble.nodes=3'])\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert os.path.exists(tmp_path / "rob" / "robustness.tsv")
    assert out.splitlines()[-1] == "[]"


def test_every_package_export_resolves():
    # a name deleted from its module must leave __all__ too, or the star import breaks
    assert [name for name in braggsim.__all__ if not hasattr(braggsim, name)] == []


def test_tables_do_not_depend_on_blas_threads(tmp_path):
    # a threaded OpenBLAS sums the integrator's stage combinations in another
    # order, which moves table values by ~1e-13; the CLI pins one thread, so
    # the thread count the environment asks for changes no byte
    src = os.path.dirname(os.path.dirname(os.path.abspath(braggsim.__file__)))
    for threads in ("2", "1"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "braggsim.cli", "mzi", "--phi3-scan", "8",
                        "--jobs", "1", "-o", str(tmp_path / threads)], env=env,
                       capture_output=True, check=True)
    assert filecmp.cmp(tmp_path / "2" / "fringe_scan.tsv", tmp_path / "1" / "fringe_scan.tsv",
                       shallow=False)


@pytest.mark.parametrize("command, table", [("rabi-scan", "rabi_scan.tsv"),
                                            ("map", "map.tsv")])
def test_zero_rabi_node_is_the_identity(tmp_path, capsys, command, table):
    cfg = _cfg(tmp_path, "[scan]\nomega_min = 0\nomega_count = 4\ntau_count = 2\n"
                         "spot_check_nodes = 0\n[ensemble]\nnodes = 3\n")
    assert main([command, "-c", cfg, "-o", f"{tmp_path}/out"]) == 0
    rows = ResultTable.read(f"{tmp_path}/out/{table}").rows
    if command == "rabi-scan":
        assert len(rows) == 4 and rows[0] == (0.0, 1.0, 0.0, 0.0, 0.0)
    else:
        off = [row for row in rows if row[1] == 0.0]
        assert len(off) == 2 and all(row[2:] == (0.0,) * 7 for row in off)


def test_error_is_machine_readable(tmp_path, capsys):
    code = main(["map", "-c", os.path.join(tmp_path, "missing.cfg")])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.err)
    assert err["error"] == "ConfigurationError"


@pytest.mark.parametrize("body", [b'[scan]\norder = 3\norder = 4\n', b'order = 3\n',
                                  b'[physics]\nlabel = 100%\n', b'[physics]\nlabel = \xff\n',
                                  None],
                         ids=["duplicate-key", "no-section-header", "interpolation",
                              "not-utf8", "directory"])
def test_malformed_config_file_is_a_typed_error(tmp_path, capsys, body):
    path = str(tmp_path)
    if body is not None:
        path = os.path.join(tmp_path, "bad.cfg")
        with open(path, "wb") as fh:
            fh.write(body)
    assert main(["oracle-diff", "-c", path, "-o", f"{tmp_path}/out"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError" and path in err["message"]


def test_negative_seed_rejected_before_any_node(tmp_path, capsys):
    # numpy's default_rng refuses a negative seed; the map's spot check would
    # meet it only after computing every node
    cfg = _cfg(tmp_path, _map_body(f"{tmp_path}/out", taus=2, oms=2))
    assert main(["map", "-c", cfg, "--jobs", "1", "--set", "ensemble.seed=-1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigurationError"
    assert not os.path.exists(f"{tmp_path}/out/map_cache.jsonl")


def test_map_cache_ignores_the_spot_check_seed(tmp_path, capsys, monkeypatch):
    # [ensemble] seed only draws the spot check's nodes, so a new seed reuses every
    # cached map node and leaves the map's data rows as they were
    cfg = _cfg(tmp_path, _map_body(f"{tmp_path}/out", taus=2, oms=2))
    assert main(["map", "-c", cfg, "--jobs", "1"]) == 0
    with open(f"{tmp_path}/out/map.tsv") as fh:
        first = [line for line in fh if not line.startswith("#")]
    solves, node = [], scans._map_node
    monkeypatch.setattr(scans, "_map_node", lambda args: solves.append(args) or node(args))
    assert main(["map", "-c", cfg, "--jobs", "1", "--set", "ensemble.seed=7"]) == 0
    assert solves == []
    with open(f"{tmp_path}/out/map_cache.jsonl") as fh:
        assert len(fh.readlines()) == 4
    with open(f"{tmp_path}/out/map.tsv") as fh:
        assert [line for line in fh if not line.startswith("#")] == first


@pytest.mark.parametrize("route", ["set", "file"])
def test_removed_quadrature_key_is_unknown(tmp_path, capsys, route):
    body = "[ensemble]\nquadrature = \"monte-carlo\"\n" if route == "file" else ""
    sets = ["--set", "ensemble.quadrature=gauss-hermite"] if route == "set" else []
    assert main(["oracle-diff", "-c", _cfg(tmp_path, body), "-o", f"{tmp_path}/out",
                 *sets]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert err["message"] == ("unknown key 'quadrature' in [ensemble]; "
                              "expected ['dp', 'nodes', 'p0', 'seed']")


@pytest.mark.parametrize("route", ["set", "file"])
def test_removed_scheme_key_is_unknown(tmp_path, capsys, route):
    body = "[propagator]\nscheme = \"pp34a\"\n" if route == "file" else ""
    sets = ["--set", "propagator.scheme=pp56"] if route == "set" else []
    assert main(["oracle-diff", "-c", _cfg(tmp_path, body), "-o", f"{tmp_path}/out",
                 *sets]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigurationError"
    assert err["message"] == ("unknown key 'scheme' in [propagator]; expected ['backend', "
                              "'grid_periods', 'grid_points', 'ladder_atol', 'ladder_rtol', "
                              "'tol']")


def test_unknown_subcommand_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["robustness-grid"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_output_root_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BRAGGSIM_OUTPUT_ROOT", str(tmp_path))
    cfg = _cfg(tmp_path, "[output]\ndir = nested/out\n")
    assert main(["oracle-diff", "-c", cfg]) == 0
    assert os.path.exists(os.path.join(tmp_path, "nested/out/oracle_diff.json"))
