"""Dense vector kernels used by every other module.

All arithmetic is in float64 even though feature files store float32;
gradient-check tolerances require double precision. Reductions are
left-to-right sequential (numpy's default) so results are reproducible.
"""

import math
import warnings

import numpy as np

from .errors import InvalidConfig, NonFiniteInput, NonPositiveTemperature, NumericError, ZeroNorm

EPS_NORM = 1e-12
TAU_MIN = float(np.finfo(np.float64).tiny)  # the smallest normal float64
MAX_ELEMS = np.iinfo(np.intp).max // 8  # the most float64 elements numpy can shape


def as_f64(x):
    a = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("input contains NaN or Inf")
    return a


@np.errstate(over="ignore")  # an overflow raises NumericError below, with no warning
def scale_to_unit(m, sq=None):
    """The one unit-row rule: divide each row of the 2-d float64 matrix m, in place, by its
    norm sqrt(sum(m * m, axis=1)), and return the norms; sq is optional scratch of m's shape.
    The first bad row decides: ZeroNorm at a norm <= EPS_NORM, NumericError at one that is
    not finite, which from the finite rows callers pass can only be an overflow."""
    norms = np.sqrt(np.multiply(m, m, out=sq).sum(axis=1))  # .sum, not np.sum: cheaper per block
    ok = (norms > EPS_NORM) & (norms < math.inf)  # NaN fails both
    if not ok.all():
        if norms[ok.argmin()] <= EPS_NORM:
            raise ZeroNorm("a row has near-zero norm")
        raise NumericError("a row's norm overflows")
    np.divide(m, norms[:, None], out=m)
    return norms


def check_unit_rows(norms, where):
    """The one rule for input rows that should be unit, given their norms: NonFiniteInput at
    the first NaN or Inf, ZeroNorm at the first below 1e-6, each naming where and the row;
    else whether some norm is off 1 by more than 1e-5, after one warning naming where."""
    for bad, error, what in ((~np.isfinite(norms), NonFiniteInput, "contains NaN or Inf"),
                             (norms < 1e-6, ZeroNorm, "has near-zero norm")):
        if bad.any():
            raise error(f"{where}: row {bad.argmax()} {what}")
    off = bool((np.abs(norms - 1.0) > 1e-5).any())
    if off:
        warnings.warn(f"{where}: rows deviate from unit norm by > 1e-5; re-normalizing")
    return off


def normalize_rows(m):
    """A copy of the 2-d matrix m with unit rows: scale_to_unit."""
    m = as_f64(m).copy()
    scale_to_unit(m)
    return m


def softmax_rows(x):
    """(log-sum-exp, softmax) of each row of the 2-d x, from one pass of exponentials: with m
    the row max and e = exp(x - m), m + log(sum(e)) by math.log (np.log can differ in the last
    bit) and e / sum(e). A one-entry row's log-sum-exp is its own value, exactly."""
    m = x.max(axis=1, keepdims=True)
    e = np.subtract(x, m)
    np.exp(e, out=e)
    t = e.sum(axis=1, keepdims=True)
    e /= t
    return m.ravel() + [math.log(s) for s in t.ravel().tolist()], e


def sigmoid(x):
    # split on sign to avoid overflow in exp
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def philox(seed, stream=0):
    """Every seeded draw's generator: Philox keyed on [seed, stream], both integers (not
    bool) in [0, 2**64). Key [s, 0] draws exactly what the scalar key s does."""
    for name, k in (("seed", seed), ("stream", stream)):
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < 2**64:
            raise InvalidConfig(f"{name} must be an integer in [0, 2**64), got {k!r}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def check_tau(name, tau):
    """tau must be > 0 (NaN is not), finite (at inf every label's logit is 0) and normal:
    a subnormal tau has lost precision, and below about 5.6e-309 1 / tau overflows."""
    if not tau > 0:
        raise NonPositiveTemperature(f"{name} must be > 0, got {tau}")
    if tau == math.inf:
        raise NonPositiveTemperature(f"{name} must be finite, got {tau}")
    if tau < TAU_MIN:
        raise NonPositiveTemperature(f"{name} must be >= {TAU_MIN}, a normal float, got {tau}")
