"""The grid states behind `check`'s grid_norm_drift and offcomb_population."""
import numpy as np
import pytest

from braggsim.gridprop import Grid, momentum_populations, plane_wave, propagate_pulse_fixed
from braggsim.pulses import Pulse
from braggsim.validation import oracle_diff

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def check_pulse(rb87):
    return Pulse.on_resonance(rb87, 3, 90e-6, rabi_avg=TWO_PI * 23e3)


def test_norm_drift_on_the_oracle_comb_rows(rb87, check_pulse):
    # about 2.5e-13 over the four rows; the 512x8 adaptive pulse that the check
    # read before (7.7e-14) is test_gridprop's test_norm_drift
    od = oracle_diff(check_pulse, rb87)
    assert 0.0 < od["norm_drift"] < 1e-10


def test_offcomb_mass_after_the_reversal_forward_pass(rb87, check_pulse):
    # about 2e-29 on Grid(512, 8); the adaptive pulse's 6e-29 is test_gridprop's
    # test_quasimomentum_conservation
    fwd = propagate_pulse_fixed(plane_wave(Grid(), 0, 0.0), check_pulse, rb87,
                                n_steps=300, run="primary")
    assert momentum_populations(fwd)["offcomb"] < 1e-12


def test_default_grid_matches_a_tight_ladder_on_the_check_pulse(rb87, check_pulse):
    # pp56 at its default tol reads about 5.6e-14
    od = oracle_diff(check_pulse, rb87, rtol=1e-13, atol=1e-15)
    assert od["max_abs_dev"] <= 1e-12
