from dataclasses import dataclass

import numpy as np
import pytest

from braggsim import default_rb87, MomentumDistribution, Pulse, resonance_delta_omega, scans

# the CLI's arithmetic in every test: one OpenBLAS thread, whatever the host's
# core count and whether a test has run the CLI in this process yet
scans._one_blas_thread()

TWO_PI = 2 * np.pi


@pytest.fixture(scope="session")
def rb87():
    return default_rb87()


@pytest.fixture(scope="session")
def cloud():
    """The experiment's fitted momentum spread."""
    return MomentumDistribution("gaussian", 0.0, 0.13)


@dataclass(frozen=True)
class Ramp:
    """Linear ramp-down 1 - u on [0, duration]: a closed-form envelope
    without time symmetry, for the checks that need one."""

    duration: float
    mean = 0.5                     # time average of 1 - u over [0, 1]

    def value_frac(self, u):
        return 1.0 - u if 0.0 <= u <= 1.0 else 0.0


@pytest.fixture(scope="session")
def ramp_pulse():
    """Builds an n-th order resonant pulse (SI arguments) on the ramp envelope."""
    def build(cfg, n, tau, rabi_avg, phase=0.0, p0=0.0):
        return Pulse(Ramp(tau), rabi_avg / Ramp.mean, resonance_delta_omega(n, p0, cfg),
                     phase, order_hint=n)
    return build
