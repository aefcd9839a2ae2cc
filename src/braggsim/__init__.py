"""Simulator and pulse-design toolkit for higher-order atomic Bragg
diffraction, including dichroic mirror pulses (mirrors that reflect the
resonant momentum classes while transmitting the parasitic ones)."""

__version__ = "0.1.8"

from .physics import PhysicalConfig, default_rb87
from .pulses import (Envelope, FreeEvolution, Pulse, PulseSequence, PulseSpec,
                     mach_zehnder_sequence, resonance_delta_omega)
from .splitting import PP56, SplittingScheme
from .ensemble import (ClassPopulations, MomentumDistribution, ReflectivityRecord,
                       class_populations, ensemble_average, reflectivity_matrix,
                       robustness_curve)
from .scans import (DmpCriterion, DmpReport, ScanResult, find_dmp, first_maximum,
                    rabi_scan, reflectivity_map)
from .interferometer import (PortReport, fringe_scan, mirror_response, path_resolved_mzi,
                             run_mzi)
from .config import RunConfig, parse_config

__all__ = [
    "PhysicalConfig", "default_rb87",
    "Envelope", "FreeEvolution", "Pulse", "PulseSequence", "PulseSpec",
    "mach_zehnder_sequence", "resonance_delta_omega",
    "PP56", "SplittingScheme",
    "ClassPopulations", "MomentumDistribution", "ReflectivityRecord",
    "class_populations", "ensemble_average", "reflectivity_matrix", "robustness_curve",
    "DmpCriterion", "DmpReport", "ScanResult", "find_dmp", "first_maximum",
    "rabi_scan", "reflectivity_map",
    "PortReport", "fringe_scan", "mirror_response", "path_resolved_mzi", "run_mzi",
    "RunConfig", "parse_config",
]
