import math

import numpy as np
import pytest

from nft_ood.errors import (
    EmptyInput,
    NonFiniteInput,
    NonPositiveTemperature,
    ZeroNorm,
)
from nft_ood.numerics import normalize_rows, sigmoid
from numerics_reference import cosine, l2_normalize, logsumexp, stable_softmax


def test_l2_normalize_345_triangle():
    assert np.allclose(l2_normalize([3, 4]), [0.6, 0.8], atol=1e-15)


def test_l2_normalize_already_unit():
    assert np.allclose(l2_normalize([1, 0, 0]), [1, 0, 0], atol=1e-15)


def test_l2_normalize_zero_vector_rejected():
    with pytest.raises(ZeroNorm):
        l2_normalize([0, 0])


def test_l2_normalize_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(12)
        once = l2_normalize(v)
        assert np.allclose(l2_normalize(once), once, atol=1e-12)
        assert abs(np.linalg.norm(once) - 1.0) < 1e-12


def test_l2_normalize_rejects_nan():
    with pytest.raises(NonFiniteInput):
        l2_normalize([1.0, float("nan")])


def test_normalize_rows_matches_per_row():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((5, 7))
    out = normalize_rows(m)
    for i in range(5):
        assert np.allclose(out[i], l2_normalize(m[i]), atol=1e-15)


def test_cosine_examples():
    assert cosine([1, 0], [1, 0]) == pytest.approx(1.0, abs=1e-12)
    assert cosine([1, 0], [0, 1]) == pytest.approx(0.0, abs=1e-12)
    assert cosine([1, 0], [-1, 0]) == pytest.approx(-1.0, abs=1e-12)


def test_cosine_symmetric_exactly():
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = rng.standard_normal(9)
        v = rng.standard_normal(9)
        assert cosine(u, v) == cosine(v, u)


def test_cosine_range():
    rng = np.random.default_rng(3)
    for _ in range(50):
        c = cosine(rng.standard_normal(6), rng.standard_normal(6))
        assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12


def test_cosine_zero_vector_rejected():
    with pytest.raises(ZeroNorm):
        cosine([0, 0], [1, 0])


def test_logsumexp_singleton_exact():
    assert logsumexp([0.0]) == 0.0
    assert logsumexp([-3.75]) == -3.75


def test_logsumexp_duplicate():
    for a in (0.0, 1.5, -20.0):
        assert logsumexp([a, a]) == pytest.approx(a + math.log(2), abs=1e-12)


def test_logsumexp_no_overflow():
    assert logsumexp([1000.0, 1000.0]) == pytest.approx(
        1000.0 + math.log(2), abs=1e-9
    )


def test_logsumexp_shift_property():
    rng = np.random.default_rng(4)
    xs = rng.standard_normal(10)
    for k in (0.5, -3.0, 100.0):
        assert logsumexp(xs + k) == pytest.approx(logsumexp(xs) + k, abs=1e-10)


def test_logsumexp_empty_rejected():
    with pytest.raises(EmptyInput):
        logsumexp([])


def test_softmax_symmetry():
    assert np.allclose(stable_softmax([2.0, 2.0], tau=1.0), [0.5, 0.5], atol=1e-12)
    assert np.allclose(
        stable_softmax([1.0, 1.0, 1.0], tau=0.5), [1 / 3] * 3, atol=1e-12
    )


def test_softmax_matches_direct_ratio_at_low_tau():
    # direct exp ratio oracle on small safe inputs
    xs = np.array([0.011, 0.005, -0.002])
    tau = 0.01
    e = np.exp(xs / tau)
    assert np.allclose(stable_softmax(xs, tau), e / e.sum(), atol=1e-12)


def test_softmax_sums_to_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        out = stable_softmax(rng.standard_normal(8), tau=0.3)
        assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_permutation_equivariant():
    rng = np.random.default_rng(6)
    xs = rng.standard_normal(7)
    perm = rng.permutation(7)
    assert np.array_equal(stable_softmax(xs, 0.7)[perm], stable_softmax(xs[perm], 0.7))


def test_softmax_rejects_nonpositive_tau():
    with pytest.raises(NonPositiveTemperature):
        stable_softmax([1.0, 2.0], tau=0.0)


def test_sigmoid_stable_at_extremes():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1000.0) == pytest.approx(1.0)
    assert sigmoid(-1000.0) == pytest.approx(0.0)
    assert sigmoid(2.0) == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-15)
