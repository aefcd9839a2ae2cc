"""Run-configuration parsing and validation.

Configuration files are INI-style with the sections physics, pulse,
sequence, ensemble, propagator, scan and output.  Values are numbers in
the key's default unit, or quoted strings with an explicit unit, e.g.

    [pulse]
    order = 3
    tau = "90 us"
    omega = "2*pi*21 kHz"

Frequencies are ordinary frequencies: ``omega = 21`` means a two-photon
Rabi frequency of 2*pi*21 kHz in rad/s.  The unit alias ``kHz_x2pi``
makes that explicit and is accepted everywhere kHz is.  Rabi values
follow the envelope-averaged lab convention unless
``omega_convention = "peak"``.

Unknown keys are rejected; defaults are applied and echoed into the run
manifest.  On the command line, ``--set section.key=value`` (repeatable)
overrides a key after the file is read, checked as a file key is.

``[propagator]`` applies to every command: the backend, the ladder
tolerances and the grid settings reach each computation a command runs.
The grid steps with the one splitting, pp56 (16 substeps per step), and
its tol defaults to 1e-10.
``[pulse]`` envelope, omega_convention, p0 (the momentum the pulses are
tuned to) and phase form the one ``PulseSpec`` that builds the pulses of
every command that makes one; ``mzi`` takes its phases, durations, Rabi
frequencies and free time from ``[sequence]``.  ``[ensemble]`` p0
centres every cloud, the ``robustness`` clouds of each spread included;
dp is the cloud's Gaussian spread, and ``dp = 0`` a point cloud; nodes is the
Gauss-Hermite node count of every cloud average, and seed only draws the map
nodes that the spot check re-solves.  A ``[scan]`` Rabi grid may start at
``omega_min = 0``, the identity pulse.
"""
from __future__ import annotations

import configparser
import re

from . import gridprop, ladder
from .errors import ConfigurationError
from .physics import ATOMIC_MASS_KG, PhysicalConfig, default_rb87
from .pulses import Envelope, Pulse, PulseSpec, mach_zehnder_sequence
from .ensemble import DEFAULT_GH_NODES, MomentumDistribution
from .splitting import PP56

TWO_PI = 6.283185307179586476925286766559

# unit name -> (kind, factor to SI)
_UNITS = {
    "s": ("time", 1.0), "ms": ("time", 1e-3), "us": ("time", 1e-6),
    "ns": ("time", 1e-9),
    "Hz": ("frequency", TWO_PI), "kHz": ("frequency", TWO_PI * 1e3),
    "MHz": ("frequency", TWO_PI * 1e6),
    "Hz_x2pi": ("frequency", TWO_PI), "kHz_x2pi": ("frequency", TWO_PI * 1e3),
    "MHz_x2pi": ("frequency", TWO_PI * 1e6),
    "rad/s": ("frequency", 1.0), "krad/s": ("frequency", 1e3),
    "m": ("length", 1.0), "mm": ("length", 1e-3), "um": ("length", 1e-6),
    "nm": ("length", 1e-9),
    "hbark": ("momentum_hbark", 1.0),
    "rad": ("angle", 1.0), "pi": ("angle", 3.14159265358979323846),
    "deg": ("angle", 3.14159265358979323846 / 180.0),
    "kg": ("mass", 1.0), "u": ("mass", ATOMIC_MASS_KG),
}

_NUM = r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
_QUANT_RE = re.compile(
    rf"^\s*(?P<twopi>2\s*\*\s*pi\s*\*)?\s*(?P<num>{_NUM})\s*(?P<unit>[A-Za-z][A-Za-z_/0-9]*)?\s*$")


def parse_quantity(text, kind, key, default_unit):
    """Parse a config value with units into SI (angular rad/s for frequency).

    Accepts a bare number (default unit applies), "NUMBER UNIT", and
    "2*pi*NUMBER UNIT" for frequencies given as angular shorthand.
    """
    s = str(text).strip().strip('"').strip("'")
    m = _QUANT_RE.match(s)
    if not m:
        raise ConfigurationError(
            f"[{key}] cannot parse {text!r}; expected e.g. \"90 {default_unit}\" "
            f"or a number in {default_unit}")
    value = float(m.group("num"))
    unit = m.group("unit") or default_unit
    if unit not in _UNITS:
        raise ConfigurationError(
            f"[{key}] unknown unit {unit!r}; expected a {kind} unit such as "
            f"{[u for u, (k, _) in _UNITS.items() if k == kind]}")
    ukind, factor = _UNITS[unit]
    if ukind != kind:
        raise ConfigurationError(
            f"[{key}] unit {unit!r} is a {ukind} unit; expected {kind} "
            f"(e.g. \"90 {default_unit}\")")
    if m.group("twopi"):
        if kind != "frequency":
            raise ConfigurationError(f"[{key}] the 2*pi* prefix only applies to frequencies")
        if unit in ("rad/s", "krad/s"):
            raise ConfigurationError(f"[{key}] 2*pi* prefix with angular unit {unit!r} is ambiguous")
        # "2*pi*21 kHz" is the same angular frequency as plain "21 kHz"
    return value * factor


def _positive(x):
    return x > 0


def _nonnegative(x):
    return x >= 0


# schema: section -> key -> (type, default, extra)
# types: "quantity:<kind>:<default_unit>", "int", "float", "str", "pairs"
_SCHEMA = {
    "physics": {
        "preset": ("str", "rb87", ("rb87", "custom")),
        "atom_mass": ("quantity:mass:kg", None, _positive),
        "wavelength": ("quantity:length:nm", None, _positive),
        "label": ("str", "", None),
    },
    "pulse": {
        "order": ("int", 3, _positive),
        "tau": ("quantity:time:us", 90e-6, _positive),
        "omega": ("quantity:frequency:kHz", TWO_PI * 23e3, _nonnegative),
        "omega_convention": ("str", "avg", ("avg", "peak")),
        "envelope": ("str", "blackman", Envelope.KINDS),
        "phase": ("quantity:angle:rad", 0.0, None),
        "p0": ("quantity:momentum_hbark:hbark", 0.0, None),
    },
    "sequence": {
        "t_free": ("quantity:time:ms", 1e-3, _nonnegative),
        "tau_bs": ("quantity:time:us", 90e-6, _positive),
        "omega_bs": ("quantity:frequency:kHz", TWO_PI * 16.2e3, _nonnegative),
        "tau_mirror": ("quantity:time:us", 90e-6, _positive),
        "omega_mirror": ("quantity:frequency:kHz", TWO_PI * 23e3, _nonnegative),
        "phi1": ("quantity:angle:rad", 0.0, None),
        "phi2": ("quantity:angle:rad", 0.0, None),
        "phi3": ("quantity:angle:rad", 0.0, None),
    },
    "ensemble": {
        "dp": ("quantity:momentum_hbark:hbark", 0.13, _nonnegative),
        "p0": ("quantity:momentum_hbark:hbark", 0.0, None),
        "nodes": ("int", DEFAULT_GH_NODES, _positive),
        "seed": ("int", 12345, _nonnegative),
    },
    "propagator": {
        "backend": ("str", "ladder", ("ladder", "grid")),
        "tol": ("float", PP56.tol, _positive),
        "ladder_rtol": ("float", ladder.DEFAULT_RTOL, _positive),
        "ladder_atol": ("float", ladder.DEFAULT_ATOL, _positive),
        "grid_points": ("int", gridprop.DEFAULT_NUM_POINTS, _positive),
        "grid_periods": ("int", gridprop.DEFAULT_NUM_PERIODS, _positive),
    },
    "scan": {
        "order": ("int", 3, _positive),
        "tau_min": ("quantity:time:us", 50e-6, _positive),
        "tau_max": ("quantity:time:us", 150e-6, _positive),
        "tau_count": ("int", 30, lambda x: x >= 2),
        "omega_min": ("quantity:frequency:kHz", TWO_PI * 10e3, _nonnegative),
        "omega_max": ("quantity:frequency:kHz", TWO_PI * 40e3, _positive),
        "omega_count": ("int", 30, lambda x: x >= 2),
        "pairs": ("pairs", ((0, 3), (1, 2)), None),
        "lambda_pen": ("float", 1.0, _nonnegative),
        "min_resonant": ("float", 0.5, _nonnegative),
        "max_parasitic": ("float", 0.15, _nonnegative),
        "refine": ("str", "none", ("none", "local")),
        "spot_check_nodes": ("int", 5, _nonnegative),
    },
    "output": {
        "dir": ("str", "out", None),
        "jobs": ("int", 0, _nonnegative),   # 0 = available parallelism
    },
}


def _parse_value(section, key, raw):
    typ, default, extra = _SCHEMA[section][key]
    s = str(raw).strip().strip('"').strip("'")
    if typ.startswith("quantity:"):
        _, kind, unit = typ.split(":")
        val = parse_quantity(raw, kind, f"{section}.{key}", unit)
    elif typ == "int":
        try:
            val = int(s)
        except ValueError:
            raise ConfigurationError(f"[{section}.{key}] expected an integer, got {raw!r}") from None
    elif typ == "float":
        try:
            val = float(s)
        except ValueError:
            raise ConfigurationError(f"[{section}.{key}] expected a number, got {raw!r}") from None
    elif typ == "pairs":
        try:
            val = tuple(tuple(int(x) for x in p.split("-")) for p in s.split(","))
        except ValueError:
            val = None
        if val is None or any(len(p) != 2 for p in val):
            raise ConfigurationError(
                f"[{section}.{key}] expected pairs like \"0-3,1-2\", got {raw!r}")
        if len(set(val)) < len(val):   # a repeat would name the same table columns twice
            raise ConfigurationError(f"[{section}.{key}] repeats a pair in {raw!r}")
    else:
        val = s
    if isinstance(extra, tuple) and val not in extra:
        raise ConfigurationError(f"[{section}.{key}] must be one of {extra}, got {val!r}")
    if callable(extra) and not extra(val):
        raise ConfigurationError(f"[{section}.{key}] value {val!r} out of range")
    return val


class RunConfig:
    """Validated configuration with defaults applied."""

    def __init__(self, sections):
        self.sections = sections

    def __getitem__(self, section):
        return self.sections[section]

    def get(self, section, key):
        return self.sections[section][key]

    def echo(self):
        """Full defaulted configuration for the manifest (SI values)."""
        return {s: dict(kv) for s, kv in self.sections.items()}

    # ---- factories -------------------------------------------------
    def physical(self) -> PhysicalConfig:
        p = self.sections["physics"]
        if p["preset"] == "rb87":
            return default_rb87()
        if p["atom_mass"] is None or p["wavelength"] is None:
            raise ConfigurationError(
                "[physics] preset=custom requires atom_mass (e.g. \"87 u\") and "
                "wavelength (e.g. \"780.226 nm\")")
        return PhysicalConfig(atom_mass=p["atom_mass"], wavelength=p["wavelength"],
                              label=p["label"])

    def pulse_spec(self) -> PulseSpec:
        p = self.sections["pulse"]
        return PulseSpec(p["envelope"], p["omega_convention"], p["p0"], p["phase"])

    def pulse(self, cfg) -> Pulse:
        p = self.sections["pulse"]
        return self.pulse_spec().build(cfg, p["order"], p["tau"], p["omega"])

    def distribution(self) -> MomentumDistribution:
        e = self.sections["ensemble"]
        return MomentumDistribution(p0=e["p0"], dp=e["dp"])

    def quadrature(self) -> int:
        """The Gauss-Hermite node count, [ensemble] nodes."""
        return self.sections["ensemble"]["nodes"]

    def mzi_sequence(self, cfg):
        s = self.sections["sequence"]
        return mach_zehnder_sequence(cfg, self.get("pulse", "order"), s["tau_bs"],
                                     s["omega_bs"], s["tau_mirror"], s["omega_mirror"],
                                     s["t_free"], s["phi1"], s["phi2"], s["phi3"],
                                     spec=self.pulse_spec())

    def grid_opts(self) -> gridprop.GridOptions:
        pr = self.sections["propagator"]
        return gridprop.GridOptions(gridprop.Grid(pr["grid_points"], pr["grid_periods"]),
                                    pr["tol"])

    def propagator(self):
        """backend, rtol, atol and grid_opts keyword arguments from [propagator]."""
        pr = self.sections["propagator"]
        return {"backend": pr["backend"], "rtol": pr["ladder_rtol"],
                "atol": pr["ladder_atol"], "grid_opts": self.grid_opts()}


def parse_config(path=None, overrides=(), text=None):
    """Load, validate and default a run configuration.

    overrides are "section.key=value" strings applied after the file.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    try:
        if text is not None:
            cp.read_string(text)
        elif path is not None and not cp.read(path, encoding="utf-8"):
            raise ConfigurationError(f"cannot read config file {path}: missing or not a file")
        read = {sec: dict(cp[sec]) for sec in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"malformed config {path or '<text>'}: {exc}") from None

    entries = list(read.items())   # (section, {key: raw}), overrides after the file
    for ov in overrides:
        dotted, eq, raw = ov.partition("=")
        sec, dot, key = dotted.partition(".")
        if not (eq and dot):
            raise ConfigurationError(f"override {ov!r} must look like section.key=value")
        entries.append((sec, {key: raw}))
    sections = {s: {k: v[1] for k, v in kv.items()} for s, kv in _SCHEMA.items()}
    for sec, kv in entries:
        if sec not in _SCHEMA:
            raise ConfigurationError(
                f"unknown config section [{sec}]; expected {sorted(_SCHEMA)}")
        for key, raw in kv.items():
            if key not in _SCHEMA[sec]:
                raise ConfigurationError(
                    f"unknown key {key!r} in [{sec}]; expected {sorted(_SCHEMA[sec])}")
            sections[sec][key] = _parse_value(sec, key, raw)
    return RunConfig(sections)
