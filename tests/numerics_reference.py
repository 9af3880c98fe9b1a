"""Scalar reference kernels the tests check the library against.

One vector at a time, with max-subtraction where an exponential could
overflow: `numerics.softmax_rows`, the kernel of scoring's MCM and NegLabel
reductions and of the training loss, must equal `logsumexp` and the max of
`stable_softmax` per row, and the loss references build on them.
"""

import math

import numpy as np

from nft_ood.errors import EmptyInput, NonPositiveTemperature, ZeroNorm
from nft_ood.numerics import EPS_NORM, as_f64


def l2_normalize(v, eps_norm=EPS_NORM):
    """Scale v to unit Euclidean norm. Raises ZeroNorm for degenerate input."""
    v = as_f64(v)
    n = math.sqrt(float(np.sum(v * v)))
    if n <= eps_norm:
        raise ZeroNorm(f"vector norm {n} <= {eps_norm}")
    return v / n


def cosine(u, v):
    """Cosine similarity. Symmetric: cosine(u, v) == cosine(v, u) exactly."""
    u = as_f64(u)
    v = as_f64(v)
    nu = math.sqrt(float(np.sum(u * u)))
    nv = math.sqrt(float(np.sum(v * v)))
    if nu <= EPS_NORM or nv <= EPS_NORM:
        raise ZeroNorm("cosine of a zero vector is undefined")
    # elementwise product commutes, so argument order cannot change the result
    return float(np.sum(u * v)) / (nu * nv)


def logsumexp(xs):
    """log(sum(exp(xs))) with max-subtraction; exact for a singleton."""
    xs = as_f64(xs)
    if xs.size == 0:
        raise EmptyInput("logsumexp of empty sequence")
    m = float(np.max(xs))
    if xs.size == 1:
        return m
    return m + math.log(float(np.sum(np.exp(xs - m))))


def stable_softmax(xs, tau=1.0):
    """Softmax of xs / tau computed with max-subtraction."""
    if tau <= 0:
        raise NonPositiveTemperature(f"tau must be > 0, got {tau}")
    xs = as_f64(xs) / tau
    if xs.size == 0:
        raise EmptyInput("softmax of empty sequence")
    e = np.exp(xs - np.max(xs))
    return e / np.sum(e)
