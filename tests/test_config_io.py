import json
import os
import subprocess
import sys

import numpy as np
import pytest

import braggsim
from braggsim import config
from braggsim.cli import main
from braggsim.config import parse_config, parse_quantity
from braggsim.errors import ConfigurationError
from braggsim.gridprop import Grid, GridOptions
from braggsim.results import ResultTable, RunManifest, manifest_hash
from braggsim.splitting import PP56

TWO_PI = 2 * np.pi


class TestParseQuantity:
    def test_two_pi_literal(self):
        val = parse_quantity('"2*pi*21 kHz"', "frequency", "pulse.omega", "kHz")
        assert val == pytest.approx(131.9e3, rel=1e-3)  # 131.9 krad/s

    def test_plain_number_uses_default_unit(self):
        assert parse_quantity("90", "time", "pulse.tau", "us") == pytest.approx(90e-6)

    def test_alias_khz_x2pi(self):
        a = parse_quantity("21 kHz", "frequency", "k", "kHz")
        b = parse_quantity("21 kHz_x2pi", "frequency", "k", "kHz")
        assert a == b

    def test_wrong_dimension_names_expectations(self):
        with pytest.raises(ConfigurationError) as err:
            parse_quantity("90 us", "frequency", "pulse.omega", "kHz")
        assert "pulse.omega" in str(err.value) and "frequency" in str(err.value)


class TestParseConfig:
    def test_minimal_config_fully_defaulted(self):
        rc = parse_config(text='[physics]\npreset = "rb87"\n')
        echo = rc.echo()
        assert set(echo) == {"physics", "pulse", "sequence", "ensemble",
                             "propagator", "scan", "output"}
        assert rc.get("pulse", "order") == 3
        assert rc.get("propagator", "tol") == PP56.tol
        assert rc.get("ensemble", "nodes") == 41
        assert rc.physical().wavelength == 780.226e-9

    def test_omega_literal_form(self):
        rc = parse_config(text='[pulse]\nomega = "2*pi*21 kHz"\n')
        assert rc.get("pulse", "omega") == pytest.approx(TWO_PI * 21e3, rel=1e-12)

    def test_negative_duration_rejected_with_units(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config(text='[pulse]\ntau = "-1 us"\n')
        assert "pulse.tau" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config(text='[pulse]\nomega_r = 21\n')

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config(text='[lasers]\npower = 1\n')

    def test_overrides(self):
        rc = parse_config(text='[physics]\npreset = "rb87"\n',
                          overrides=["propagator.tol=1e-9", "scan.order=5"])
        assert rc.get("propagator", "tol") == 1e-9
        assert rc.get("scan", "order") == 5

    def test_bad_override_target(self):
        with pytest.raises(ConfigurationError):
            parse_config(text="", overrides=["propagator.speed=11"])

    @pytest.mark.parametrize("section, key, raw, expected", [
        ("nosuch", "key", "1", "unknown config section [nosuch]"),
        ("pulse", "omega_r", "21", "unknown key 'omega_r' in [pulse]"),
        ("pulse", "order", "three", "[pulse.order] expected an integer"),
        ("pulse", "tau", '"-1 us"', "[pulse.tau] value -1e-06 out of range"),
        ("propagator", "scheme", '"pp34a"', "unknown key 'scheme' in [propagator]"),
        ("pulse", "order", "5", "'order': 5"),
    ], ids=["unknown-section", "unknown-key", "malformed", "out-of-range", "removed-scheme",
            "valid"])
    def test_override_reads_as_file_key(self, section, key, raw, expected):
        def read(**route):
            try:
                return str(parse_config(**route).echo())
            except ConfigurationError as exc:
                return f"ConfigurationError: {exc}"
        from_file = read(text=f"[{section}]\n{key} = {raw}\n")
        assert expected in from_file
        assert read(text="", overrides=[f"{section}.{key}={raw}"]) == from_file

    def test_pairs_checked_under_optimize(self):
        # python -O strips assert statements; the pairs check must not be one
        code = ("from braggsim.config import parse_config\n"
                "parse_config(None, overrides=['scan.pairs=0-3-1,1-2'])")
        src = os.path.dirname(os.path.dirname(braggsim.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode != 0
        assert "ConfigurationError" in out.stderr and "scan.pairs" in out.stderr

    def test_grid_options_from_propagator_section(self):
        rc = parse_config(text="", overrides=["propagator.grid_points=256",
                                              "propagator.grid_periods=4",
                                              "propagator.tol=1e-9"])
        assert rc.grid_opts() == GridOptions(Grid(256, 4), 1e-9)
        assert parse_config(text="").grid_opts() == GridOptions()
        # an unset tol is pp56's own
        rc = parse_config(text="", overrides=["propagator.grid_points=256"])
        assert rc.get("propagator", "tol") == PP56.tol
        assert rc.grid_opts() == GridOptions(Grid(256)) == GridOptions(Grid(256), PP56.tol)

    def test_pulse_factory_uses_avg_convention(self, rb87):
        rc = parse_config(text='[pulse]\norder = 3\ntau = "120 us"\nomega = 21\n')
        p = rc.pulse(rc.physical())
        assert p.rabi_avg == pytest.approx(TWO_PI * 21e3, rel=1e-12)
        assert p.rabi_peak == pytest.approx(TWO_PI * 21e3 / 0.42, rel=1e-12)

    @pytest.mark.parametrize("section, key, value", [
        (sec, key, v) for sec, key in (("pulse", "envelope"), ("pulse", "omega_convention"))
        for v in config._SCHEMA[sec][key][2]])
    def test_every_enumerated_value_builds(self, rb87, section, key, value):
        rc = parse_config(text="", overrides=[f"{section}.{key}={value}"])
        rc.pulse(rb87), rc.distribution(), rc.quadrature(), rc.grid_opts()

    def test_zero_spread_is_a_point_cloud(self):
        rc = parse_config(text="[ensemble]\ndp = 0\np0 = 0.2\n")
        p, w = rc.distribution().nodes(rc.quadrature())
        assert p.tolist() == [0.2] and w.tolist() == [1.0]
        with pytest.raises(ConfigurationError):
            parse_config(text="", overrides=["ensemble.kind=delta"])

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            parse_config("/nonexistent/run.cfg")


class TestResultTable:
    def test_round_trip_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        t = ResultTable([("a", "us"), ("b", "probability")])
        vals = [(float(10 ** rng.uniform(-12, 12)), float(rng.uniform()))
                for _ in range(50)]
        vals.append((1 / 3, 2 / 3))
        for row in vals:
            t.add(*row)
        path = os.path.join(tmp_path, "t.tsv")
        t.write(path, provenance={"purpose": "test"})
        back = ResultTable.read(path)
        assert back.columns == [("a", "us"), ("b", "probability")]
        for (a1, b1), (a2, b2) in zip(vals, back.rows):
            assert abs(a2 / a1 - 1) < 1e-15
            assert abs(b2 - b1) <= 1e-15 * abs(b1)

    def test_rectangularity_enforced(self):
        t = ResultTable([("a", "x"), ("b", "y")])
        with pytest.raises(ValueError):
            t.add(1.0)

    def test_units_declared_for_every_column(self, tmp_path):
        t = ResultTable([("a", "us"), ("b", "kHz")])
        t.add(1.0, 2.0)
        path = os.path.join(tmp_path, "u.tsv")
        t.write(path)
        lines = open(path).read().splitlines()
        assert sum(1 for l in lines if l.startswith("# column")) == 2


class TestManifest:
    def _manifest(self):
        return RunManifest(command="map", config_echo=parse_config().echo())

    def test_hash_ignores_timing(self):
        m1 = self._manifest()
        m2 = self._manifest()
        m2.wall_time_s = 99.0
        m2.timestamp = "2000-01-01T00:00:00"
        assert m1.hash == m2.hash

    def test_hash_tracks_config(self):
        m1 = self._manifest()
        m2 = self._manifest()
        m2.config_echo = {**m1.config_echo, "pulse": {**m1.config_echo["pulse"], "order": 5}}
        assert m1.hash != m2.hash

    def test_written_file_contains_hash_and_spot_check(self, tmp_path):
        m = self._manifest()
        m.spot_check = {"max_abs_dev": 1e-5, "passes": True}
        path = os.path.join(tmp_path, "m.json")
        m.write(path)
        data = json.load(open(path))
        assert data["manifest_hash"] == m.hash
        assert data["spot_check"]["passes"] is True

    def test_table_references_manifest(self, tmp_path):
        m = self._manifest()
        t = ResultTable([("x", "u")])
        t.add(1.0)
        path = os.path.join(tmp_path, "x.tsv")
        t.write(path, provenance=m.provenance())
        back = ResultTable.read(path)
        assert back.provenance["manifest_hash"] == m.hash

    def test_default_check_run_hash(self, tmp_path, capsys):
        # the identity of `braggsim check` with every default: backend,
        # tolerances and seed come from the config echo, the version from the
        # package.  A change of what the hash covers must change this literal.
        assert main(["check", "-o", str(tmp_path)]) == 0
        man = json.load(open(os.path.join(tmp_path, "check_manifest.json")))
        assert man["manifest_hash"] == "7cd1b21fa6cd9a01"
        table = ResultTable.read(os.path.join(tmp_path, "check.tsv"))
        assert table.provenance["manifest_hash"] == "7cd1b21fa6cd9a01"
