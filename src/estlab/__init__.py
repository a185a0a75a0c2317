"""estlab: precision of estimation strategies under correlated Gaussian noise.

Quantifies and compares direct averaging, weak-value-amplified
post-selection, and optimal partitioning / background subtraction through
Fisher information (closed form and numeric) and seeded Monte Carlo trials.
"""

__version__ = "0.1.0"
