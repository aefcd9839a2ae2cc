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
    seen = []
    propagate_batch = ladder.propagate_batch

    def recording(*args, **kwargs):
        seen.append((kwargs["rtol"], kwargs["atol"]))
        return propagate_batch(*args, **kwargs)

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


@pytest.mark.parametrize("argv, error", [
    (["mzi", "--path-resolved", "--split-after", "0,x"], "ConfigurationError"),
    (["mzi", "--phi3-scan", "-2"], "ConfigurationError"),
    (["robustness", "--set", "pulse.order=1"], "ParameterError"),   # [scan] pairs 0-3
    (["oracle-diff", "--set", "propagator.grid_periods=3"], "ParameterError"),
], ids=["split-after", "phi3-scan", "pairs-beyond-order", "grid-periods-not-dividing"])
def test_bad_command_line_value_is_a_typed_error(tmp_path, capsys, argv, error):
    cfg = _cfg(tmp_path, f"[ensemble]\nnodes = 3\n[output]\ndir = {tmp_path}/out\n")
    assert main([*argv, "-c", cfg]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == error


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
                                        detected="all", **rc.propagator())
    assert rc.propagator()["backend"] == "grid"
    assert rows == [(r["phi3"], r["port_0"], r["port_3"], r["undetected"]) for r in lib]


def test_cli_import_loads_no_scipy():
    # scipy costs a fresh process a quarter second; only the tabulated-envelope
    # and [scan] refine = "local" branches import it, where they use it
    src = os.path.dirname(os.path.dirname(os.path.abspath(braggsim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", "import sys, braggsim.cli; print(sorted("
                          "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


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
