"""Thermal cluster states on small graphs: spectra, entanglement, tomography.

The package models a photonic experiment on a 3-qubit linear cluster state:
thermal states of the graph-state parent Hamiltonian, their equivalent
local-dephasing preparation, negativity-based entanglement classification
(including the bound-entangled window), simulated projective tomography with
Poissonian counting noise, and measurement-based single-qubit state
preparation with its 2/3 classical benchmark.
"""

from .linalg import fidelity
from .graphs import build_graph_state, linear_graph, verify_spectrum
from .thermal import gibbs_state, p_from_temperature, thermal_state_model
from .entanglement import classify, negativity, transition_points
from .tomography import (
    linear_inversion,
    mle_reconstruct,
    monte_carlo_statistic,
    simulate_counts,
    standard_settings,
)
from .mbqc import (
    average_preparation_fidelity,
    classical_threshold,
    haar_average_fidelity,
    preparation_records,
)
from .sweep import SweepConfig, run_sweep

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SweepConfig",
    "average_preparation_fidelity",
    "build_graph_state",
    "classical_threshold",
    "classify",
    "fidelity",
    "gibbs_state",
    "haar_average_fidelity",
    "linear_graph",
    "linear_inversion",
    "mle_reconstruct",
    "monte_carlo_statistic",
    "negativity",
    "p_from_temperature",
    "preparation_records",
    "run_sweep",
    "simulate_counts",
    "standard_settings",
    "thermal_state_model",
    "transition_points",
    "verify_spectrum",
]
