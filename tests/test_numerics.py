import math

import numpy as np
import pytest

from nft_ood.data_io import SynthConfig, synth_dataset
from nft_ood.errors import (
    ConfigError,
    EmptyInput,
    InvalidConfig,
    NonFiniteInput,
    NonPositiveTemperature,
    NumericError,
    ZeroNorm,
)
from nft_ood.model import TrainingSet, init_model
from nft_ood.numerics import (check_tau, check_unit_rows, normalize_rows, philox, scale_to_unit,
                              sigmoid, softmax_rows)
from nft_ood.trainer import make_batches
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


def test_normalize_rows_zero_row_rejected():
    with pytest.raises(ZeroNorm):
        normalize_rows(np.array([[3.0, 4.0], [0.0, 0.0]]))


def test_scale_to_unit_divides_in_place_and_returns_the_norms():
    m = np.array([[3.0, 4.0], [0.0, 2.0]])
    sq = np.empty_like(m)
    assert scale_to_unit(m, sq).tolist() == [5.0, 2.0]
    assert m.tolist() == [[0.6, 0.8], [0.0, 1.0]]
    assert np.array_equal(m, normalize_rows([[3.0, 4.0], [0.0, 2.0]]))


@pytest.mark.parametrize("rows, exc", [
    ([[1e200, 0.0], [0.0, 0.0]], NumericError),  # its square overflows: once a zero row
    ([[0.0, 0.0], [1e200, 0.0]], ZeroNorm),
    ([[1.0, 0.0], [1e-13, 0.0]], ZeroNorm),
], ids=["overflow_first", "zero_first", "near_zero"])
def test_scale_to_unit_first_bad_row_decides(rows, exc):
    # the suite turns a RuntimeWarning into an error, so none is printed either
    with pytest.raises(NumericError) as e:
        scale_to_unit(np.array(rows))
    assert e.type is exc


def test_check_unit_rows_names_where_and_the_first_bad_row():
    assert check_unit_rows(np.array([1.0, 1.0 + 9e-6, 1.0 - 9e-6]), "f.fbnk") is False
    assert check_unit_rows(np.array([]), "f.fbnk") is False
    with pytest.warns(UserWarning) as caught:
        assert check_unit_rows(np.array([1.0, 2.0, 0.5]), "f.fbnk") is True
    assert [str(w.message) for w in caught] == [
        "f.fbnk: rows deviate from unit norm by > 1e-5; re-normalizing"]
    # every NaN or Inf row is checked before any small one
    for norms, exc, message in (
            ([1.0, 1e-7, math.inf, math.nan], NonFiniteInput, "row 2 contains NaN or Inf"),
            ([1.0, 2.0, 1e-7, 0.0], ZeroNorm, "row 2 has near-zero norm")):
        with pytest.raises(exc, match=f"^f.fbnk: {message}$"):
            check_unit_rows(np.array(norms), "f.fbnk")


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


def _kernel_logsumexp(xs):
    """numerics.softmax_rows' log-sum-exp of the one row xs."""
    return float(softmax_rows(np.array([xs], dtype=np.float64))[0][0])


# the scalar reference and the library's one kernel
LOGSUMEXPS = (logsumexp, _kernel_logsumexp)


def test_logsumexp_singleton_exact():
    for lse in LOGSUMEXPS:
        assert lse([0.0]) == 0.0
        assert lse([-3.75]) == -3.75


def test_logsumexp_duplicate():
    for lse in LOGSUMEXPS:
        for a in (0.0, 1.5, -20.0):
            assert lse([a, a]) == pytest.approx(a + math.log(2), abs=1e-12)


def test_logsumexp_no_overflow():
    for lse in LOGSUMEXPS:
        assert lse([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2), abs=1e-9)


def test_logsumexp_shift_property():
    rng = np.random.default_rng(4)
    xs = rng.standard_normal(10)
    for lse in LOGSUMEXPS:
        for k in (0.5, -3.0, 100.0):
            assert lse(xs + k) == pytest.approx(lse(xs) + k, abs=1e-10)


@pytest.mark.parametrize("k", [1, 9, 300])
def test_softmax_rows_matches_the_scalar_references_bit_for_bit(k):
    # scoring's NegLabel and MCM pins rest on these bits: the log-sum-exp of the
    # scalar reference, and the max of the softmax equal to max(e) / sum(e)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((48, k)) * 30.0
    x[::3, k // 2] = x[::3, 0]  # ties, among them the max of some rows
    x[1::4] = x[1::4, :1]  # rows of one repeated value
    lse, p = softmax_rows(x)
    assert lse.shape == (48,) and p.shape == x.shape
    for row, l, q in zip(x, lse.tolist(), p):
        e = np.exp(row - np.max(row))
        assert l == logsumexp(row)
        assert q.max() == e.max() / e.sum()
    if k == 1:  # a one-entry row is its own log-sum-exp, and all of the softmax
        assert lse.tolist() == x[:, 0].tolist() and (p == 1.0).all()


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


# ---- seeded generators and temperatures ----


def _draws(gen):
    return gen.integers(0, 2**63, size=8)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_philox_keys_match_the_scalar_and_pair_keys(seed):
    # synth and init_model once keyed Philox on np.uint64(seed), make_batches on
    # [seed, epoch]: philox must draw the same numbers
    old = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    assert np.array_equal(_draws(philox(seed)), _draws(old))
    for stream in (0, 3, 2**64 - 1):
        old = np.random.Generator(
            np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
        assert np.array_equal(_draws(philox(seed, stream)), _draws(old))
    assert np.array_equal(_draws(philox(np.uint64(seed))), _draws(philox(seed)))


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "7", None])
def test_philox_rejects_keys_outside_uint64(seed):
    # np.uint64(1.5) once made seed 1.5 into seed 1; -1 raised an OverflowError
    for args in ((seed,), (0, seed)):
        with pytest.raises(InvalidConfig, match="must be an integer in"):
            philox(*args)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_every_seeded_generator_rejects_seeds_outside_uint64(seed):
    rng = np.random.default_rng(9)
    ts = TrainingSet(rng.standard_normal((4, 8)), np.zeros(4, dtype=int),
                     rng.standard_normal((4, 8)))
    with pytest.raises(InvalidConfig):
        init_model(8, hidden=4, seed=seed)
    with pytest.raises(InvalidConfig):
        synth_dataset(SynthConfig(seed=seed))
    with pytest.raises(InvalidConfig):
        make_batches(ts, 4, seed=seed)


@pytest.mark.parametrize("tau, needle", [
    (0.0, "> 0"), (-1.0, "> 0"), (math.nan, "> 0"), (math.inf, "finite"),
    # subnormal: a unit cosine over 1e-310 overflows
    (1e-310, ">= 2.2250738585072014e-308, a normal float")])
def test_check_tau_rejects_non_positive_nan_and_infinite(tau, needle):
    with pytest.raises(NonPositiveTemperature, match=f"^tau_x must be {needle}"):
        check_tau("tau_x", tau)
    assert issubclass(NonPositiveTemperature, InvalidConfig)
    assert issubclass(NonPositiveTemperature, ConfigError)
    check_tau("tau_x", 1e-300)
    check_tau("tau_x", np.finfo(np.float64).tiny)
