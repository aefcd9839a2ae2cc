"""Set-up probe: import the CLI, parse a workload's config, print the clock.

    PYTHONPATH=src python3 perfbench/probe_setup.py scan.order=3 ensemble.nodes=41

Prints ``time.monotonic()`` once the config is parsed; the caller takes
the difference to its own clock reading at launch, so interpreter start,
imports and config parsing all count as set-up.
"""
import sys
import time

import braggsim.cli  # noqa: F401  (imports everything the CLI needs)
from braggsim.config import parse_config

parse_config(overrides=sys.argv[1:])
print(repr(time.monotonic()))
