import numpy as np
import pytest

from estlab.errors import InvalidSpec
from estlab.matkernel import SymMatrix


def random_spd(dim: int, seed: int, cond_lo: float = 0.1, cond_hi: float = 10.0) -> SymMatrix:
    """Random SPD matrix O @ D @ O.T with log-uniform positive eigenvalues."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    d = np.exp(rng.uniform(np.log(cond_lo), np.log(cond_hi), size=dim))
    return SymMatrix((q * d) @ q.T)


def solvable_inverse(a: float, c: float, n: int) -> SymMatrix:
    """Exact inverse of the solvable covariance.

    Entries are ((a + c*n)*delta_ij - c) / (a^2 + n*a*c); multiplying back
    against build() gives the identity to machine precision.
    """
    if a <= 0.0:
        raise InvalidSpec("solvable inverse requires a > 0")
    if c <= -a / n:
        raise InvalidSpec("solvable inverse requires c > -a/n")
    denom = a * a + n * a * c
    m = np.full((n, n), -c / denom)
    m[np.diag_indices(n)] += (a + c * n) / denom
    return SymMatrix(m)


@pytest.fixture
def spd_factory():
    return random_spd
