"""Result tables and run manifests.

Tables are plain tab-delimited text with a '#'-prefixed provenance
header declaring a unit for every column; numbers render with repr-level
precision so reading a table back reproduces the values exactly.
Columns whose unit is one of TEXT_UNITS hold strings; all others hold
numbers.
Manifests are JSON; a hash over the reproducible subset (config, seed,
backend, tolerances, code version) is embedded in every table so
data files reference exactly one manifest.  Everything in that subset but
the code version is read from the run's own config echo, so a manifest
cannot name a backend or seed its config does not hold.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

from . import __version__

TEXT_UNITS = ("name", "text", "history")


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclass
class ResultTable:
    """Rectangular numeric table with per-column units."""

    columns: list          # [(name, unit), ...]
    rows: list = field(default_factory=list)

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(f"row has {len(values)} values, table has "
                             f"{len(self.columns)} columns")
        self.rows.append(tuple(values))

    def write(self, path, provenance=None):
        lines = []
        for k, v in (provenance or {}).items():
            lines.append(f"# {k} = {v}")
        for i, (name, unit) in enumerate(self.columns):
            lines.append(f"# column {i} {name} [{unit}]")
        lines.append("\t".join(name for name, _ in self.columns))
        for row in self.rows:
            lines.append("\t".join(_fmt(v) for v in row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def read(cls, path):
        columns, rows, header_done = [], [], False
        provenance = {}
        with open(path) as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line.startswith("#"):
                    body = line[1:].strip()
                    if body.startswith("column "):
                        _, _, name, unit = body.split(None, 3)
                        columns.append((name, unit.strip("[]")))
                    elif " = " in body:
                        k, v = body.split(" = ", 1)
                        provenance[k] = v
                    continue
                if not header_done:
                    header_done = True  # column-name line
                    continue
                if line:
                    rows.append(tuple(v if unit in TEXT_UNITS else float(v)
                                      for v, (_, unit) in zip(line.split("\t"), columns)))
        t = cls(columns=columns, rows=rows)
        t.provenance = provenance
        return t


def manifest_hash(payload):
    """Hash of the reproducible identity of a run (no timing fields), also
    the key of a map node in the map cache."""
    # str of a frozen dataclass (physics, distribution, grid options) is its
    # repr, which renders it field by field with exact floats
    s = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(s.encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    """Provenance record written next to every result file."""

    command: str
    config_echo: dict
    jobs: int = 1
    wall_time_s: float = 0.0
    timestamp: str = ""
    failures: list = field(default_factory=list)
    spot_check: dict = field(default_factory=dict)

    @property
    def identity(self):
        """What the run computes, read from the config echo."""
        pr = self.config_echo["propagator"]
        return {"command": self.command, "backend": pr["backend"],
                "tolerances": {k: pr[k] for k in ("tol", "ladder_rtol", "ladder_atol")},
                "seed": self.config_echo["ensemble"]["seed"], "code_version": __version__}

    @property
    def hash(self):
        # identity of the computation: excludes timing and the [output]
        # plumbing so the same physics run hashes alike anywhere
        config = {k: v for k, v in self.config_echo.items() if k != "output"}
        return manifest_hash({**self.identity, "config": config})

    def write_json(self, path, payload):
        """Write payload plus this run's manifest hash as sorted, indented JSON."""
        with open(path, "w") as fh:
            json.dump({**payload, "manifest_hash": self.hash}, fh, indent=2,
                      sort_keys=True, default=str)
            fh.write("\n")

    def write(self, path):
        self.write_json(path, {
            **self.identity, "jobs": self.jobs, "wall_time_s": self.wall_time_s,
            "timestamp": self.timestamp or time.strftime("%Y-%m-%dT%H:%M:%S"),
            "failures": self.failures, "spot_check": self.spot_check,
            "config": self.config_echo})

    def provenance(self, **extra):
        """Header block for result tables tied to this manifest."""
        return {"manifest_hash": self.hash,
                **{k: v for k, v in self.identity.items() if k != "tolerances"}, **extra}


def output_dir(config_dir, override=None):
    root = os.environ.get("BRAGGSIM_OUTPUT_ROOT", "")
    d = override or config_dir
    path = os.path.join(root, d) if root else d
    os.makedirs(path, exist_ok=True)
    return path
