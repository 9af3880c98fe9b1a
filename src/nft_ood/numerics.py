"""Dense vector kernels used by every other module.

All arithmetic is in float64 even though feature files store float32;
gradient-check tolerances require double precision. Reductions are
left-to-right sequential (numpy's default) so results are reproducible.
"""

import math

import numpy as np

from .errors import NonFiniteInput, ZeroNorm

EPS_NORM = 1e-12


def as_f64(x):
    a = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("input contains NaN or Inf")
    return a


def normalize_rows(m, eps_norm=EPS_NORM):
    """Scale each row of a 2-d matrix to unit Euclidean norm; ZeroNorm for a near-zero row."""
    m = as_f64(m)
    norms = np.sqrt(np.sum(m * m, axis=1))
    if np.any(norms <= eps_norm):
        raise ZeroNorm("matrix contains a row with near-zero norm")
    return m / norms[:, None]


def sigmoid(x):
    # split on sign to avoid overflow in exp
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)
