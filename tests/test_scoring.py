import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import unit_rows
from nft_ood.errors import (
    DimMismatch,
    EmptyBank,
    EmptyInput,
    NftError,
    NoNegativeLabels,
    NonFiniteInput,
    NonPositiveInput,
)
from nft_ood.model import (IMAGE_INDEPENDENT_MODES, MODES, FeatureBank, init_model,
                           transform_bank)
from nft_ood.numerics import as_f64, sigmoid
from nft_ood.scoring import (
    _AUROC_CHUNK,
    _BLOCK_ELEMS,
    auroc,
    evaluate,
    fpr_at_tpr,
    hmean,
    score_krnft,
    score_many,
    score_mcm,
    score_neglabel,
)
from numerics_reference import logsumexp, stable_softmax


def pairwise_auroc(id_scores, ood_scores):
    wins = 0.0
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(id_scores) * len(ood_scores))


def rank_auroc(id_scores, ood_scores):
    """The former library AUROC: tie-averaged ranks assigned in a Python loop."""
    id_scores = as_f64(id_scores).reshape(-1)
    ood_scores = as_f64(ood_scores).reshape(-1)
    n_id, n_ood = id_scores.size, ood_scores.size
    if n_id == 0 or n_ood == 0:
        raise EmptyInput("auroc requires non-empty score sets")
    combined = np.concatenate([id_scores, ood_scores])
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty(combined.size)
    sorted_vals = combined[order]
    i = 0
    while i < combined.size:
        j = i
        while j + 1 < combined.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # average 1-based rank
        i = j + 1
    r_id = float(np.sum(ranks[:n_id]))
    return (r_id - n_id * (n_id + 1) / 2.0) / (n_id * n_ood)


def draws(kind, n=100_000, seed=63):
    """Seeded ID N(1,1) and OOD N(0,1) scores, distinct or rounded to a 0.25 grid."""
    rng = np.random.default_rng(seed)
    ids, oods = rng.normal(1.0, 1.0, n), rng.normal(0.0, 1.0, n)
    if kind == "grid":
        ids, oods = np.round(ids / 0.25) * 0.25, np.round(oods / 0.25) * 0.25
    return ids, oods


def sweep_fpr(id_scores, ood_scores, tpr):
    id_scores = np.asarray(id_scores, dtype=float)
    ood_scores = np.asarray(ood_scores, dtype=float)
    best = None
    for t in np.unique(id_scores)[::-1]:  # descending candidate thresholds
        if np.mean(id_scores >= t) >= tpr:
            best = t
            break
    return float(np.mean(ood_scores >= best)), float(best)


# ---- scores ----


def test_neglabel_symmetry():
    eye = np.eye(4)
    bank_rows = eye  # 2 pos, 2 neg
    v = np.ones(4) / 2.0  # equal cosines everywhere
    assert score_neglabel(v, bank_rows, 2) == pytest.approx(0.5, abs=1e-12)


def test_neglabel_direct_formula_oracle():
    # cos_pos = 1, cos_neg = -1, tau = 1 -> sigmoid(2) == e^1 / (e^1 + e^-1)
    bank_rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
    v = np.array([1.0, 0.0])
    got = score_neglabel(v, bank_rows, 1, tau_score=1.0)
    direct = math.exp(1.0) / (math.exp(1.0) + math.exp(-1.0))
    assert got == pytest.approx(direct, abs=1e-12)
    assert got == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)


def test_neglabel_matches_ratio_oracle_random():
    rng = np.random.default_rng(50)
    rows = unit_rows(rng, 9, 8)
    v = unit_rows(rng, 1, 8)[0]
    tau = 0.5
    e = np.exp(rows @ v / tau)
    expected = e[:4].sum() / e.sum()
    assert score_neglabel(v, rows, 4, tau) == pytest.approx(expected, abs=1e-12)


def test_neglabel_monotone_in_positive_cosine():
    rows = np.array([[0.2, 0.5], [0.9, -0.1], [-0.3, 0.4]])
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    v = np.array([1.0, 0.0])
    base = score_neglabel(v, rows, 1)
    boosted = rows.copy()
    boosted[0] = v  # positive cosine raised to 1
    assert score_neglabel(v, boosted, 1) > base


def test_neglabel_requires_negatives():
    with pytest.raises(NoNegativeLabels):
        score_neglabel(np.array([1.0, 0.0]), np.eye(2)[:1], 1)


def test_mcm_single_class():
    v = np.array([0.3, 0.7])
    assert score_mcm(v, np.array([[1.0, 0.0]])) == 1.0


def test_mcm_two_equal_classes():
    v = np.ones(2) / math.sqrt(2.0)
    assert score_mcm(v, np.eye(2)) == pytest.approx(0.5, abs=1e-12)


def test_mcm_naive_oracle():
    rng = np.random.default_rng(51)
    rows = unit_rows(rng, 5, 8)
    v = unit_rows(rng, 1, 8)[0]
    tau = 0.3
    e = np.exp(rows @ v / tau)
    assert score_mcm(v, rows, tau) == pytest.approx(np.max(e / e.sum()), abs=1e-12)


def test_mcm_empty_bank():
    with pytest.raises(EmptyBank):
        score_mcm(np.array([1.0, 0.0]), np.zeros((0, 2)))


def test_krnft_equals_neglabel_at_init():
    rng = np.random.default_rng(52)
    state = init_model(8, hidden=4, seed=0)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 5, 8))
    for _ in range(10):
        v = unit_rows(rng, 1, 8)[0]
        zs = score_neglabel(v, bank.rows(), bank.n_pos)
        assert abs(score_krnft(state, v, bank) - zs) < 1e-10


def test_krnft_differs_after_parameter_change():
    rng = np.random.default_rng(53)
    state = init_model(8, hidden=4, seed=0)
    state.arrays["pos_head.beta"] += 0.3
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 5, 8))
    v = unit_rows(rng, 1, 8)[0]
    zs = score_neglabel(v, bank.rows(), bank.n_pos)
    assert score_krnft(state, v, bank) != pytest.approx(zs, abs=1e-12)


def test_score_many_order():
    rng = np.random.default_rng(54)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 5, 8))
    images = unit_rows(rng, 20, 8)
    sequential = score_many(images, "neglabel", bank)
    loop = np.array([score_neglabel(v, bank.rows(), 3) for v in images])
    assert np.array_equal(sequential, loop)


@pytest.mark.parametrize("mode", MODES)
def test_score_many_matches_per_image_scores(mode):
    rng = np.random.default_rng(64)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 5, 8))
    state = init_model(8, hidden=4, mode=mode, seed=1)
    for arr in state.params().values():  # off the identity init
        arr += 0.2 * rng.standard_normal(arr.shape)
    images = unit_rows(rng, 12, 8)
    tau = 0.3
    loops = {
        "krnft": [score_krnft(state, v, bank, tau) for v in images],
        "neglabel": [score_neglabel(v, bank.rows(), bank.n_pos, tau) for v in images],
        "mcm": [score_mcm(v, bank.pos, tau) for v in images],
    }
    for method, loop in loops.items():
        got = score_many(images, method, bank, state=state, tau_score=tau)
        assert np.array_equal(got, np.array(loop)), method
        assert score_many(images[:0], method, bank, state=state).shape == (0,)


def neglabel_reference(v, bank_rows, n_pos, tau):
    """The former per-image library NegLabel score."""
    cos = bank_rows @ v
    return sigmoid(logsumexp(cos[:n_pos] / tau) - logsumexp(cos[n_pos:] / tau))


def mcm_reference(v, pos_rows, tau):
    """The former per-image library MCM score."""
    return float(np.max(stable_softmax(pos_rows @ v, tau)))


@pytest.mark.parametrize("mode", MODES)
def test_score_many_blocks_match_per_image_scores(mode):
    # N and N + M both exceed a fifth of the block budget: mcm blocks hold 5
    # images and neglabel/krnft blocks 2, so 7 images end each part-way
    rng = np.random.default_rng(65)
    n = m = _BLOCK_ELEMS // 5
    bank = FeatureBank.from_rows(unit_rows(rng, n, 8), unit_rows(rng, m, 8))
    state = init_model(8, hidden=4, mode=mode, seed=2)
    for arr in state.params().values():  # off the identity init
        arr += 0.2 * rng.standard_normal(arr.shape)
    images = unit_rows(rng, 7, 8)
    tau = 0.05
    per_image = {
        "krnft": [score_krnft(state, v, bank, tau) for v in images],
        "neglabel": [score_neglabel(v, bank.rows(), n, tau) for v in images],
        "mcm": [score_mcm(v, bank.pos, tau) for v in images],
    }
    reference = {
        "krnft": [neglabel_reference(v, transform_bank(state, bank, v), n, tau)
                  for v in images],
        "neglabel": [neglabel_reference(v, bank.rows(), n, tau) for v in images],
        "mcm": [mcm_reference(v, bank.pos, tau) for v in images],
    }
    for method, loop in per_image.items():
        assert np.array_equal(loop, reference[method]), method
        got = score_many(images, method, bank, state=state, tau_score=tau)
        assert np.array_equal(got, np.array(loop)), method
        one = score_many(images[:1], method, bank, state=state, tau_score=tau)
        assert np.array_equal(one, np.array(loop[:1])), method


def test_score_many_matches_reference_on_many_images():
    # enough rows that a vectorized log or a reordered sum would differ from
    # the per-image math.log somewhere in the last bit
    rng = np.random.default_rng(67)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 6, 8))
    images = unit_rows(rng, 20000, 8)
    # N = M = 1: every log-sum-exp is of one entry, which the reference returns as is
    single = FeatureBank.from_rows(unit_rows(rng, 1, 8), unit_rows(rng, 1, 8))
    for (bank, imgs), tau in itertools.product(((bank, images), (single, images[:2000])),
                                               (1.0, 0.07)):
        want = [neglabel_reference(v, bank.rows(), bank.n_pos, tau) for v in imgs]
        assert np.array_equal(score_many(imgs, "neglabel", bank, tau_score=tau), want)
        want = [mcm_reference(v, bank.pos, tau) for v in imgs]
        assert np.array_equal(score_many(imgs, "mcm", bank, tau_score=tau), want)


def test_neglabel_overflowing_temperature_is_non_finite():
    # cos / tau overflows on images of norm 1e300 at tau 1e-10 (a subnormal tau
    # is rejected before any cosine): the scores raise, not return NaN
    rng = np.random.default_rng(66)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 5, 8))
    images = 1e300 * unit_rows(rng, 4, 8)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteInput):
        score_neglabel(images[0], bank.rows(), 3, 1e-10)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteInput):
        score_many(images, "neglabel", bank, tau_score=1e-10)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row", [1, 5])  # a positive and a negative row
def test_neglabel_non_finite_rows_are_rejected(value, row):
    # a caller's rows are checked through their cosines, which a NaN or Inf cell makes
    # non-finite
    rng = np.random.default_rng(68)
    rows = unit_rows(rng, 8, 8)
    rows[row, 2] = value
    with pytest.raises(NonFiniteInput):
        score_neglabel(unit_rows(rng, 1, 8)[0], rows, 3)


def test_mcm_overflowing_temperature_is_non_finite():
    # MCM once returned NaN here, from exp(inf - inf)
    rng = np.random.default_rng(67)
    pos = unit_rows(rng, 3, 8)
    images = 1e300 * unit_rows(rng, 4, 8)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteInput):
        score_mcm(images[0], pos, 1e-10)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteInput):
        score_many(images, "mcm", FeatureBank.from_rows(pos, []), tau_score=1e-10)
    # and on rows of norm 1e300 at a unit image: a per-image call takes any rows
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteInput):
        score_mcm(images[0] / 1e300, 1e300 * pos, 1e-10)


def test_score_many_unknown_method():
    rng = np.random.default_rng(55)
    bank = FeatureBank.from_rows(unit_rows(rng, 2, 8), unit_rows(rng, 2, 8))
    with pytest.raises(EmptyInput):
        score_many(unit_rows(rng, 2, 8), "bogus", bank)


@pytest.mark.parametrize("call, exc, needle", [
    pytest.param(lambda bank, images: score_many(images[:, :4], "mcm", bank),
                 DimMismatch, "image features", id="image-width"),
    pytest.param(lambda bank, images: score_many(images, "krnft", bank),
                 EmptyInput, "krnft scoring requires a model state", id="krnft-without-state"),
    # the image-conditional modes tune block by block and never call transform_bank
    pytest.param(lambda bank, images: score_many(
        images, "krnft", bank, state=init_model(4, hidden=4, mode="vec_shift", seed=0)),
        DimMismatch, "dimensions must agree", id="model-narrower-than-bank"),
    pytest.param(lambda bank, images: score_neglabel(images[0], bank.rows(), 0),
                 EmptyBank, "at least one positive", id="neglabel-without-positives"),
    # a per-image call takes one (D,) image; neglabel and mcm once raised numpy's ValueError
    *[pytest.param(lambda bank, images, call=call, image=image: call(bank, image(images)),
                   DimMismatch, "image features", id=f"{name}-{tag}")
      for name, call in (
          ("neglabel", lambda bank, v: score_neglabel(v, bank.rows(), bank.n_pos)),
          ("mcm", lambda bank, v: score_mcm(v, bank.pos)),
          ("krnft", lambda bank, v: score_krnft(
              init_model(8, hidden=4, mode="vec_shift", seed=0), v, bank)))
      for tag, image in (("image-width", lambda images: images[0, :4]),
                         ("two-images", lambda images: images))],
])
def test_scoring_input_errors(call, exc, needle):
    rng = np.random.default_rng(56)
    bank = FeatureBank.from_rows(unit_rows(rng, 2, 8), unit_rows(rng, 2, 8))
    with pytest.raises(exc, match=needle):
        call(bank, unit_rows(rng, 2, 8))


# (method, mode, fault): each fault a property of the call, not of an image
CALL_FAULTS = ([(method, None, fault) for method in ("mcm", "neglabel")
                for fault in ("image-width", "tau")] + [("neglabel", None, "no-negatives")]
               + [("krnft", mode, fault) for mode in MODES
                  for fault in ("image-width", "tau", "no-negatives", "model-width", "nan")]
               # const_shift and mlp tune their one bank whatever the image
               + [("krnft", mode, "overflow") for mode in IMAGE_INDEPENDENT_MODES])


@pytest.mark.parametrize("method, mode, fault", CALL_FAULTS,
                         ids=["-".join(filter(None, case)) for case in CALL_FAULTS])
def test_call_level_fault_raises_alike_at_zero_and_one_image(method, mode, fault):
    rng = np.random.default_rng(57)
    neg = [] if fault == "no-negatives" else unit_rows(rng, 2, 8)
    bank = FeatureBank.from_rows(unit_rows(rng, 2, 8), neg)
    state = mode and init_model(4 if fault == "model-width" else 8, hidden=4, mode=mode, seed=0)
    if fault == "nan":
        next(iter(state.arrays.values())).flat[0] = math.nan
    if fault == "overflow":  # u = c + 1e200 is finite, but its squares overflow
        state.arrays["pos_net.b_beta" if mode == "mlp" else "pos_head.beta"][:] = 1e200
    images = unit_rows(rng, 1, 4 if fault == "image-width" else 8)
    tau = 0.0 if fault == "tau" else 1.0
    raised = []
    for count in (0, 1):
        with pytest.raises(NftError) as info:
            score_many(images[:count], method, bank, state=state, tau_score=tau)
        raised.append(info.type)
    assert raised[0] is raised[1]
    # the method's per-image call is score_many of its one image: it raises alike
    per_image = {"mcm": lambda v: score_mcm(v, bank.pos, tau),
                 "neglabel": lambda v: score_neglabel(v, bank.rows(), bank.n_pos, tau),
                 "krnft": lambda v: score_krnft(state, v, bank, tau)}[method]
    with pytest.raises(NftError) as info:
        per_image(images[0])
    assert info.type is raised[0]


# ---- metrics ----


def test_auroc_perfect_separation():
    assert auroc([0.9, 0.8], [0.1, 0.2]) == 1.0


def test_auroc_all_ties():
    assert auroc([0.5, 0.5, 0.5], [0.5, 0.5]) == 0.5


def test_auroc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(56)
    for _ in range(20):
        # coarse grid forces plenty of ties
        ids = rng.integers(0, 10, size=25) / 10.0
        oods = rng.integers(0, 10, size=25) / 10.0
        assert auroc(ids, oods) == pairwise_auroc(ids, oods)


@pytest.mark.parametrize("kind", ["distinct", "grid"])
def test_auroc_bit_equal_to_rank_oracle(kind):
    ids, oods = draws(kind)
    assert auroc(ids, oods) == rank_auroc(ids, oods)
    assert auroc(oods, ids) == rank_auroc(oods, ids)


@pytest.mark.parametrize("ids, oods, want", [
    ([0.0, 1.0], [-0.0], 0.75),  # -0.0 ties +0.0
    ([-0.0, -0.0], [0.0, 0.0, 0.0], 0.5),
    ([2.0], [1.0], 1.0),  # one-element sides
    ([1.0], [2.0], 0.0),
    ([3.0], [3.0], 0.5),
    ([0.25] * 7, [0.25] * 5, 0.5),  # all equal
    ([0.9, 0.8, 0.7], [0.1, 0.2], 1.0),  # perfect separation
    ([0.1, 0.2], [0.9, 0.8, 0.7], 0.0),
])
def test_auroc_edge_cases_match_rank_oracle(ids, oods, want):
    assert auroc(ids, oods) == rank_auroc(ids, oods) == want


def assert_auroc_matches_oracles(ids, oods):
    # pairwise_auroc is a Python double loop: callers keep the OOD side small
    got = auroc(ids, oods)
    assert got == rank_auroc(ids, oods) == pairwise_auroc(ids, oods)
    assert evaluate(ids, oods).auroc == got


# ID-side sizes that straddle the AUROC count's chunk of sorted ID scores
@pytest.mark.parametrize("n_id", [2 * _AUROC_CHUNK - 1, 2 * _AUROC_CHUNK, 2 * _AUROC_CHUNK + 3])
def test_auroc_straddling_the_chunk_matches_oracles(n_id):
    rng = np.random.default_rng(64)
    # a 1/8 grid: thousands of ID values per run, so runs cross chunk ends
    ids = rng.integers(-16, 24, size=n_id) / 8.0
    oods = rng.integers(-20, 12, size=9) / 8.0
    assert_auroc_matches_oracles(ids, oods)
    # distinct ID scores: no run longer than one, few ties
    assert_auroc_matches_oracles(rng.standard_normal(n_id), np.r_[oods, ids[:3]])


def test_auroc_equal_run_across_a_chunk_boundary():
    c = _AUROC_CHUNK
    # sorted positions c - 10 .. c + 9 hold 0.5, which three OOD scores tie
    ids = np.r_[np.linspace(-1.0, 0.0, c - 10, endpoint=False), np.full(20, 0.5),
                np.linspace(1.0, 2.0, c)]
    assert_auroc_matches_oracles(ids, [0.5, -2.0, 0.5, 1.5, 0.5, 3.0])


def test_auroc_ties_at_the_ood_extremes_and_ids_above_every_ood():
    # ties only with the smallest and the largest OOD score, whose left searches
    # land on index 0 and on the first of the largest; ID scores above every OOD
    # score land past the end and are clipped to the last OOD score, no tie
    rng = np.random.default_rng(65)
    ids = rng.choice([-1.0, 0.0, 0.25, 2.0, 3.0, 4.0, 5.0], size=2 * _AUROC_CHUNK + 3)
    assert_auroc_matches_oracles(ids, [0.0, 0.0, 1.0, 1.5, 3.0, 3.0, 3.0])
    assert_auroc_matches_oracles(ids, [-0.5])  # only ID scores above it, or below
    assert auroc([4.0, 5.0] * _AUROC_CHUNK, [0.0, 3.0, 3.0]) == 1.0


def test_auroc_signed_zero_run_across_a_chunk_boundary():
    # -0.0 and +0.0 compare equal, so they form one run and tie each other
    c = _AUROC_CHUNK
    zeros = np.where(np.arange(40) % 3 == 0, -0.0, 0.0)
    ids = np.r_[-np.arange(1.0, c - 19), zeros, np.arange(1.0, c)]
    assert_auroc_matches_oracles(ids, [0.0, -0.0, -0.0, 0.0, -1.0, 1.0])


def test_evaluate_memory_is_the_sorted_copies_plus_chunks():
    # 2**20 + 2**20 distinct scores: the two sorted float64 copies take 16 MiB.
    # Bound: those plus ten float64 arrays of a 2**16-score chunk (5 MiB), 21 MiB
    # in all; one full-size search output (8 MiB more) would exceed it.
    rng = np.random.default_rng(66)
    ids, oods = rng.normal(1.0, 1.0, 2**20), rng.normal(0.0, 1.0, 2**20)
    bound = 2 * ids.nbytes + 10 * 8 * 2**16
    tracemalloc.start()
    try:
        evaluate(ids, oods)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


def test_auroc_complement_property():
    rng = np.random.default_rng(57)
    a = rng.standard_normal(30)
    b = rng.standard_normal(40)
    assert abs(auroc(a, b) + auroc(b, a) - 1.0) < 1e-12


def test_auroc_rank_invariance():
    rng = np.random.default_rng(58)
    a = rng.standard_normal(30)
    b = rng.standard_normal(30)
    assert auroc(np.exp(a), np.exp(b)) == auroc(a, b)


def test_auroc_empty_rejected():
    with pytest.raises(EmptyInput):
        auroc([], [0.5])


def test_fpr_perfect_separation():
    fpr, _ = fpr_at_tpr(np.ones(10), np.zeros(10))
    assert fpr == 0.0


def test_fpr_identical_multisets():
    rng = np.random.default_rng(59)
    scores = rng.standard_normal(40)
    fpr, _ = fpr_at_tpr(scores, scores.copy(), tpr=0.95)
    assert fpr >= 0.95 - 1.0 / 40


def test_fpr_matches_sweep_oracle():
    rng = np.random.default_rng(60)
    for _ in range(30):
        ids = rng.integers(0, 20, size=40) / 20.0
        oods = rng.integers(0, 20, size=40) / 20.0
        got_fpr, got_thr = fpr_at_tpr(ids, oods, tpr=0.95)
        exp_fpr, exp_thr = sweep_fpr(ids, oods, 0.95)
        assert got_fpr == exp_fpr
        assert got_thr == exp_thr


def test_fpr_tiny_tpr_uses_largest_id_score():
    # ceil(tpr * n) rounds to 0 here; the threshold is still the largest ID score
    ids, oods = [0.1, 0.5, 0.9], [0.0, 0.6, 1.0]
    assert fpr_at_tpr(ids, oods, tpr=1e-12) == sweep_fpr(ids, oods, 1e-12) == (1 / 3, 0.9)


def test_fpr_rank_invariance():
    rng = np.random.default_rng(61)
    ids = rng.standard_normal(50)
    oods = rng.standard_normal(50)
    f1, _ = fpr_at_tpr(ids, oods)
    f2, _ = fpr_at_tpr(np.tanh(ids), np.tanh(oods))
    assert f1 == f2


def test_fpr_tpr_validation():
    with pytest.raises(NonPositiveInput):
        fpr_at_tpr([1.0], [0.0], tpr=0.0)
    with pytest.raises(EmptyInput):
        fpr_at_tpr([], [0.0])


def test_hmean_paper_values():
    assert hmean(22.79, 11.41) == pytest.approx(15.21, abs=0.01)
    # the published 16.45 carries rounding from unrounded inputs; the exact
    # harmonic mean of the two printed values is 16.4373
    assert hmean(25.40, 12.15) == pytest.approx(16.45, abs=0.02)


def test_hmean_identity_and_validation():
    assert hmean(7.3, 7.3) == pytest.approx(7.3, abs=1e-12)
    # NaN and Inf pass a plain <= 0 check, and would return nan
    for a, b in [(0.0, 1.0), (1.0, -2.0), (math.nan, 0.5), (0.5, math.nan),
                 (math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0)]:
        with pytest.raises(NonPositiveInput):
            hmean(a, b)


def test_evaluate_report():
    rng = np.random.default_rng(62)
    ids = rng.standard_normal(30) + 2.0
    oods = rng.standard_normal(25)
    report = evaluate(ids, oods)
    assert report.n_id == 30 and report.n_ood == 25
    d = report.to_dict()
    assert set(d) == {"auroc", "fpr95", "n_id", "n_ood", "threshold"}
    assert d["auroc"] == auroc(ids, oods)
    assert d["fpr95"] == fpr_at_tpr(ids, oods)[0]


@pytest.mark.parametrize("kind", ["distinct", "grid"])
@pytest.mark.parametrize("tpr", [0.95, 0.5, 1.0])
def test_evaluate_equals_separate_metrics(kind, tpr):
    ids, oods = draws(kind, n=20_000)
    report = evaluate(ids, oods, tpr=tpr)
    assert report.auroc == auroc(ids, oods)
    assert (report.fpr95, report.threshold_at_95tpr) == fpr_at_tpr(ids, oods, tpr)
    assert (report.n_id, report.n_ood) == (ids.size, oods.size)


def test_evaluate_empty_before_tpr_check():
    with pytest.raises(EmptyInput):
        evaluate([], [0.5], tpr=2.0)
    with pytest.raises(NonPositiveInput):
        evaluate([0.5], [0.5], tpr=2.0)
