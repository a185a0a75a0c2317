"""estlab: precision of estimation strategies under correlated Gaussian noise.

Quantifies and compares direct averaging, weak-value-amplified
post-selection, and optimal partitioning / background subtraction through
Fisher information (closed form and numeric) and seeded Monte Carlo trials.
"""

__version__ = "0.1.0"

from .covariance import Dense, Exponential, make_covariance
from .covmodel import CovSpec, WeightSpectrum, build, solvable_inverse, solvable_spectrum
from .errors import EstlabError
from .estimators import (
    Dataset,
    estimate_background_subtraction,
    estimate_equal_weight,
    estimate_ml,
    estimate_wva,
    estimate_wva_corrected,
)
from .fisher import (
    FisherReport,
    TwoOutcomeSpec,
    fi_direct_numeric,
    fi_eigen,
    fi_opm_solvable,
    fi_partitioned,
    fi_two_outcome,
    fi_wva_solvable,
    optimal_alpha,
    two_outcome_variance,
)
from .matkernel import (
    EigenSystem,
    SymMatrix,
    eigendecompose,
    factor_spd,
)
from .montecarlo import TrialEnsemble, run_trials, sample_noise
from .partition import (
    PartitionDesign,
    SpinModel,
    direct_design,
    make_design,
    mean_vector,
    spin_model,
    submatrix,
)

__all__ = [
    "__version__",
    "CovSpec",
    "Dataset",
    "Dense",
    "EigenSystem",
    "EstlabError",
    "Exponential",
    "FisherReport",
    "PartitionDesign",
    "SpinModel",
    "SymMatrix",
    "TrialEnsemble",
    "TwoOutcomeSpec",
    "WeightSpectrum",
    "build",
    "direct_design",
    "eigendecompose",
    "estimate_background_subtraction",
    "estimate_equal_weight",
    "estimate_ml",
    "estimate_wva",
    "estimate_wva_corrected",
    "factor_spd",
    "fi_direct_numeric",
    "fi_eigen",
    "fi_opm_solvable",
    "fi_partitioned",
    "fi_two_outcome",
    "fi_wva_solvable",
    "make_covariance",
    "make_design",
    "mean_vector",
    "optimal_alpha",
    "run_trials",
    "sample_noise",
    "solvable_inverse",
    "solvable_spectrum",
    "spin_model",
    "submatrix",
    "two_outcome_variance",
]
