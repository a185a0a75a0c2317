"""estlab: precision of estimation strategies under correlated Gaussian noise.

Quantifies and compares direct averaging, weak-value-amplified
post-selection, and optimal partitioning / background subtraction through
Fisher information (closed form and numeric) and seeded Monte Carlo trials.
"""

__version__ = "0.1.0"

from .covariance import Chain, CovSpec, WeightSpectrum, make_covariance
from .errors import EstlabError
from .fisher import (
    FisherReport,
    TwoOutcomeSpec,
    fi_eigen,
    fi_matched,
    fi_opm_solvable,
    fi_two_outcome,
    fi_wva_solvable,
    optimal_alpha,
    two_outcome_variance,
)
from .montecarlo import TrialEnsemble, run_trials
from .partition import (
    PartitionDesign,
    SpinModel,
    make_design,
    spin_model,
)

__all__ = [
    "__version__",
    "Chain",
    "CovSpec",
    "EstlabError",
    "FisherReport",
    "PartitionDesign",
    "SpinModel",
    "TrialEnsemble",
    "TwoOutcomeSpec",
    "WeightSpectrum",
    "fi_eigen",
    "fi_matched",
    "fi_opm_solvable",
    "fi_two_outcome",
    "fi_wva_solvable",
    "make_covariance",
    "make_design",
    "optimal_alpha",
    "run_trials",
    "spin_model",
    "two_outcome_variance",
]
