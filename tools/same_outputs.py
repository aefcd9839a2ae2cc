#!/usr/bin/env python3
"""Check that two source trees of braggsim give the same CLI outputs.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

Each command runs once per tree as a fresh ``python3 -m braggsim.cli ...
--jobs 1`` process with ``PYTHONPATH=<tree>/src``, in an empty working
directory, so its results land in that directory's ``out/``.  The commands
are every benchmark workload command (``perfbench/workloads.py``) at seeds
0, 3 and 7, plus, at the config defaults, the CLI paths no workload runs.

Every output file, stdout, stderr and the exit code must be identical; the
``*_manifest.json`` files are compared as JSON without ``wall_time_s`` and
``timestamp``.  When the trees' ``--version`` differ, one line names both
versions and the identity fields that hash the version are left out: the
``# manifest_hash`` and ``# code_version`` lines of tables, the
``manifest_hash`` and ``code_version`` keys of JSON files, and the ``hash``
of each ``map_cache.jsonl`` line.  Each difference is printed, and the exit
code is 1 if there is any, else 0.  A differing file, stdout or stderr whose text
differs only in its numbers (TSV cells, JSON numbers, ``map_cache.jsonl`` values,
numbers inside text) also gets the largest absolute difference between them, so a
change that moves results at roundoff can state by how much.  A JSON file that
differs in more than its numbers gets one line per dotted key path at which it
differs instead, e.g. ``config.ensemble.nodes 41 -> 5`` or ``spot_check only in
parent``, and any other text output one line per line that only one tree wrote,
e.g. ``line '# scheme = pp56' only in parent``, the first MAX_LINES of them.
"""
from __future__ import annotations

import difflib
import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (0, 3, 7)
TIMING_KEYS = ("wall_time_s", "timestamp")
IDENTITY_KEYS = ("manifest_hash", "code_version")
MAX_LINES = 10
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
EXTRA_COMMANDS = [
    ("rabi_scan", ["rabi-scan"]),
    ("mirror_response", ["mirror-response"]),
    ("mirror_response_grid", ["mirror-response", "--set", "propagator.backend=grid",
                              "--set", "ensemble.nodes=5"]),
    ("mzi", ["mzi"]),
    *[(f"mzi_path_resolved_{s.replace(',', '')}",
       ["mzi", "--path-resolved", "--split-after", s, "--set", "sequence.phi3=0.5"])
      for s in ("0,1", "0,1,2")],
    ("mzi_phi3_scan", ["mzi", "--phi3-scan", "8"]),
    ("mzi_grid_phi3_scan", ["mzi", "--phi3-scan", "4", "--set", "propagator.backend=grid",
                            "--set", "ensemble.nodes=3"]),
    ("oracle_diff", ["oracle-diff"]),
    ("check", ["check"]),
    ("check_tol", ["check", "--set", "propagator.tol=3e-11"]),
]


def commands():
    """[(label, argv after ``braggsim.cli``)], each with ``--jobs 1``."""
    sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))
    sys.dont_write_bytecode = True        # import the workloads without writing to them
    from workloads import WORKLOADS
    out = [(f"{name}/{label}/seed{seed}", argv)
           for name, w in WORKLOADS.items() for seed in SEEDS
           for label, argv, _ in w.commands(seed)]
    out += [(label, [*argv, "--jobs", "1"]) for label, argv in EXTRA_COMMANDS]
    return out


def run(tree, argv, cwd):
    """(exit code, stdout, stderr) of one CLI process on tree's sources."""
    env = {k: v for k, v in os.environ.items() if k != "BRAGGSIM_OUTPUT_ROOT"}
    env.update(PYTHONPATH=os.path.join(os.path.abspath(tree), "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    p = subprocess.run([sys.executable, "-m", "braggsim.cli", *argv], cwd=cwd, env=env,
                       capture_output=True)
    return p.returncode, p.stdout, p.stderr


def files(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) for f in names)


def comparable(path, same_version):
    """What two trees' copies of one output file must share: every byte, but
    for a manifest's timing keys and, across versions, the identity fields."""
    manifest = path.endswith("_manifest.json")
    if same_version and not manifest:
        with open(path, "rb") as fh:
            return fh.read()
    drop = (TIMING_KEYS if manifest else ()) + (() if same_version else IDENTITY_KEYS)
    with open(path) as fh:
        if path.endswith(".json"):
            return {k: v for k, v in json.load(fh).items() if k not in drop}
        if os.path.basename(path) == "map_cache.jsonl":
            return [{k: v for k, v in json.loads(line).items() if k != "hash"} for line in fh]
        return [line for line in fh
                if not line.startswith(tuple(f"# {k} = " for k in IDENTITY_KEYS))]


def numeric_difference(a, b):
    """Largest |x - y| over the numbers of two comparable forms of one file, or None
    when they differ in more than their numbers."""
    a, b = (x.decode() if isinstance(x, bytes) else json.dumps(x, sort_keys=True)
            for x in (a, b))
    a, b = NUMBER.split(a), NUMBER.split(b)
    if len(a) != len(b) or a[::2] != b[::2]:
        return None
    return max((abs(float(x) - float(y)) for x, y in zip(a[1::2], b[1::2]) if x != y),
               default=0.0)


def key_paths(a, b, path=""):
    """One line per dotted key path (list items by index) at which two JSON values differ."""
    if isinstance(a, list) and isinstance(b, list):
        a, b = dict(enumerate(a)), dict(enumerate(b))
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else [f"{path} {json.dumps(a)} -> {json.dumps(b)}"]
    out = []
    for k in sorted(set(a) | set(b)):
        at = f"{path}.{k}" if path else str(k)
        if k not in b or k not in a:
            out.append(f"{at} only in {'parent' if k in a else 'change'}")
        else:
            out += key_paths(a[k], b[k], at)
    return out


def text_lines(x):
    """The lines of a text output's comparable form; None for JSON and exit codes."""
    if isinstance(x, bytes):
        return x.decode(errors="replace").splitlines()
    if isinstance(x, list) and all(isinstance(line, str) for line in x):
        return [line.rstrip("\n") for line in x]
    return None


def line_changes(a, b):
    """One line per line of a or b that the other does not hold, in file order."""
    out = []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            out += [f"line {x!r} only in parent" for x in a[i1:i2]]
            out += [f"line {x!r} only in change" for x in b[j1:j2]]
    return out


def differs(label, what, a, b):
    """The difference lines of one output: the numeric difference where there is one,
    else for a JSON file its differing key paths and for other text its differing lines."""
    d = None if isinstance(a, int) else numeric_difference(a, b)
    if d is None and what.endswith(".json"):
        paths = key_paths(*(json.loads(x) if isinstance(x, bytes) else x for x in (a, b)))
        if paths:
            return [f"{label}: {what}: {p}" for p in paths]
    lines = [text_lines(x) for x in (a, b)]
    if d is None and None not in lines:
        changed = line_changes(*lines)
        more = [f"{label}: {what}: {len(changed) - MAX_LINES} more lines"] \
            if len(changed) > MAX_LINES else []
        return [f"{label}: {what}: {c}" for c in changed[:MAX_LINES]] + more
    return [f"{label}: {what} differs" + ("" if d is None else f", numbers by at most {d:.2g}")]


def compare(label, argv, trees, same_version):
    """The differences between the trees' runs of one command."""
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, str(k)) for k in range(len(trees))]
        results = []
        for tree, d in zip(trees, dirs):
            os.makedirs(d)
            results.append(run(tree, argv, d))
        diffs = [line for what, a, b in zip(("exit code", "stdout", "stderr"), *results)
                 if a != b for line in differs(label, what, a, b)]
        names = [files(d) for d in dirs]
        for name in sorted(set(names[0]) ^ set(names[1])):
            diffs.append(f"{label}: {name} written by one tree only")
        for name in sorted(set(names[0]) & set(names[1])):
            a, b = (comparable(os.path.join(d, name), same_version) for d in dirs)
            if a != b:
                diffs += differs(label, name, a, b)
        return diffs, len(names[0]), results[0][0]


def main():
    args = sys.argv[1:]
    if len(args) != 2:
        print("usage: python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    diffs, n_files, cmds = [], 0, commands()
    versions = [run(tree, ["--version"], tree)[1].decode().strip() for tree in args]
    if versions[0] != versions[1]:
        print(f"version {versions[0]} -> {versions[1]}: identity fields not compared")
    for label, cmd in cmds:
        found, n, code = compare(label, cmd, args, versions[0] == versions[1])
        n_files += n
        print(f"{'DIFF' if found else 'same'}  {label}  (exit {code}, {n} files)", flush=True)
        for d in found:
            print(f"  {d}", flush=True)
        diffs += found
    print(f"{len(cmds)} commands, {n_files} files per tree, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
