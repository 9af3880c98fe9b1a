"""The in-place tuned-bank kernel, `model._tune_block` (through `numerics.scale_to_unit`),
against the allocating reference.

`transform_bank` and krnft `score_many` (the kernel per block of
`_BLOCK_ROWS` rows) must give the reference's bits exactly, at shapes that
end a block part-way, and raise the same exception class on degenerate
parameters: ZeroNorm for a zero tuned row, NumericError for an overflowed one.
The call's checks (tau, the bank's parts) come before any tuning, in both.
Banks of more than `_BLOCK_ROWS` rows span several blocks of the scoring
grid, which the fused krnft path and transform_bank + score_neglabel must share.
"""

import tracemalloc

import numpy as np
import pytest

import bank_reference
from conftest import unit_rows
from nft_ood.errors import (
    NoNegativeLabels,
    NonFiniteInput,
    NonPositiveTemperature,
    NumericError,
    ZeroNorm,
)
from nft_ood.model import (
    _BLOCK_ROWS,
    IMAGE_INDEPENDENT_MODES,
    MODES,
    FeatureBank,
    init_model,
    transform_bank,
)
from nft_ood.scoring import _scores, score_many, score_mcm, score_neglabel

D = 16
# banks (D, N, M) of several grid blocks; the test names keep "chunk_grid" so
# that their ids stay stable
GRID_BANKS = {
    # N falls inside the first block, and K = 1,100 ends part-way through the fifth
    "": (512, 100, 1000),
    # K = 257: the grid ends in a 1-row block
    "tail-": (128, 100, 157),
}

SHAPES = {
    # K = N + M is no multiple of the block; both roles end part-way through a block
    "ragged": (_BLOCK_ROWS + 6, _BLOCK_ROWS + 476),
    # N below one block; M's last block holds one row
    "small_pos": (5, 2 * _BLOCK_ROWS + 1),
    # no negative rows
    "no_neg": (_BLOCK_ROWS + 1, 0),
}


def make_bank(rng, n, m, dim=D):
    neg = unit_rows(rng, m, dim) if m else np.zeros((0, dim))
    return FeatureBank.from_rows(unit_rows(rng, n, dim), neg)


def perturbed_state(rng, mode, dim=D):
    state = init_model(dim, hidden=8, mode=mode, seed=3)
    for arr in state.params().values():  # off the identity init
        arr += 0.3 * rng.standard_normal(arr.shape)
    return state


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("mode", MODES)
def test_transform_bank_bit_identical_to_reference(mode, shape):
    rng = np.random.default_rng(71)
    bank = make_bank(rng, *SHAPES[shape])
    state = perturbed_state(rng, mode)
    for v in unit_rows(rng, 3, D):
        got = transform_bank(state, bank, v)
        assert got.shape == (bank.n_pos + bank.n_neg, D)
        assert np.array_equal(got, bank_reference.transform_bank(state, bank, v))


@pytest.mark.parametrize("mode", MODES)
def test_score_many_krnft_bit_identical_to_per_image_path(mode):
    rng = np.random.default_rng(72)
    bank = make_bank(rng, 5, 2 * _BLOCK_ROWS + 17)  # several blocks
    state = perturbed_state(rng, mode)
    images = unit_rows(rng, 6, D)
    for tau in (1.0, 0.01):
        got = score_many(images, "krnft", bank, state=state, tau_score=tau)
        want = [bank_reference.score_krnft(state, v, bank, tau) for v in images]
        assert np.array_equal(got, np.array(want))
        # the split the benchmark's decomposition pass checks
        split = [score_neglabel(v, transform_bank(state, bank, v), bank.n_pos, tau)
                 for v in images]
        assert np.array_equal(got, np.array(split))


@pytest.mark.parametrize("bank_shape, mode", [pytest.param(shape, mode, id=tag + mode)
                                               for tag, shape in GRID_BANKS.items()
                                               for mode in MODES])
def test_score_many_on_the_chunk_grid_matches_per_image_paths(bank_shape, mode):
    dim, n, m = bank_shape
    rng = np.random.default_rng(75)
    bank = make_bank(rng, n, m, dim)
    state = perturbed_state(rng, mode, dim)
    for arr in state.params().values():  # back near identity: scores far from 0 and 1
        arr *= 0.05
    images = unit_rows(rng, 16, dim)
    step, k = _BLOCK_ROWS, n + m
    for v in images if mode not in IMAGE_INDEPENDENT_MODES else ():
        # the fused path's cosines: a product over all K rows differs from the
        # grid's in the last bits of a few, too few to show in a score
        cos = _scores(v[None], bank.rows(), np.ndarray.tolist, state, n)[0]
        rows = transform_bank(state, bank, v)
        assert np.array_equal(cos, np.concatenate([rows[r : r + step] @ v
                                                   for r in range(0, k, step)]))
    for tau in (1.0, 0.01):
        got = score_many(images, "krnft", bank, state=state, tau_score=tau)
        split = [score_neglabel(v, transform_bank(state, bank, v), n, tau) for v in images]
        want = [bank_reference.score_krnft(state, v, bank, tau) for v in images]
        assert np.array_equal(got, np.array(split))
        assert np.array_equal(got, np.array(want))
        got = score_many(images, "neglabel", bank, tau_score=tau)
        assert np.array_equal(got, [score_neglabel(v, bank.rows(), n, tau) for v in images])
        got = score_many(images, "mcm", bank, tau_score=tau)
        assert np.array_equal(got, [score_mcm(v, bank.pos, tau) for v in images])


@pytest.mark.parametrize("mode", ["vec_shift", "scale_shift"])
def test_score_many_krnft_builds_no_tuned_bank(mode):
    rng = np.random.default_rng(76)
    k, dim = 40_000, 64  # 2.56M entries: 157 blocks of the grid
    bank = make_bank(rng, 1_000, k - 1_000, dim)
    state = perturbed_state(rng, mode, dim)
    images = unit_rows(rng, 2, dim)
    tracemalloc.start()
    try:
        score_many(images, "krnft", bank, state=state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < k * dim * 8 / 2


def test_score_many_neglabel_copies_no_bank():
    rng = np.random.default_rng(77)
    k, dim = 40_000, 64
    bank = make_bank(rng, 1_000, k - 1_000, dim)
    images = unit_rows(rng, 2, dim)
    tracemalloc.start()
    try:
        score_many(images, "neglabel", bank)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < k * dim * 8 / 2


def _outcome(fn):
    try:
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return fn()
    except (NoNegativeLabels, NonFiniteInput, NonPositiveTemperature, NumericError) as e:
        return type(e)


def _inf_rows(state, role):
    # finite parameters, but a * c + b overflows to +Inf wherever c > ~0.06: the norm is Inf
    head = "pos_head" if role == "positive" else "neg_head"
    state.arrays[f"{head}.alpha"][:] = 1.7e308
    state.arrays[f"{head}.beta"][:] = 1.7e308


def _zero_rows(state, role):
    # u stays finite but its squares underflow: the row norm is 0
    head = "pos_head" if role == "positive" else "neg_head"
    state.arrays[f"{head}.alpha"][:] = 1e-200
    state.arrays[f"{head}.beta"][:] = 0.0


def _overflowed_squares(state, role):
    # u is finite but u * u overflows: its norm is Inf, and u / norm would be a row of zeros
    head = "pos_head" if role == "positive" else "neg_head"
    state.arrays[f"{head}.beta"][0] = 1e200


M = _BLOCK_ROWS + 3
CASES = {  # edits, tau, negative rows, expected exception
    "inf": ([(_inf_rows, "positive")], 1.0, M, NumericError),
    "zero": ([(_zero_rows, "negative")], 1.0, M, ZeroNorm),
    # the positive rows are tuned first: their overflow wins over the negative rows' ZeroNorm
    "inf_then_zero": ([(_inf_rows, "positive"), (_zero_rows, "negative")], 1.0, M,
                      NumericError),
    # overflowed negative rows only: the fused path meets them past N
    "inf_neg": ([(_inf_rows, "negative")], 1.0, M, NumericError),
    # the temperature check comes before the tuning ...
    "inf_bad_tau": ([(_inf_rows, "negative")], 0.0, M, NonPositiveTemperature),
    # ... and so does the negative-row check
    "inf_no_neg": ([(_inf_rows, "positive")], 1.0, 0, NoNegativeLabels),
    "overflowed_squares": ([(_overflowed_squares, "positive")], 1.0, M, NumericError),
}


def _check_degenerate(case, dim, n, m_bank):
    """score_many and the reference end alike; m_bank replaces the case's M."""
    edits, tau, m, want = CASES[case]
    rng = np.random.default_rng(73)
    bank = make_bank(rng, n, m and m_bank, dim)
    state = init_model(dim, hidden=8, mode="scale_shift", seed=3)
    for edit, role in edits:
        edit(state, role)
    images = unit_rows(rng, 3, dim)
    got = _outcome(lambda: score_many(images, "krnft", bank, state=state, tau_score=tau))
    ref = _outcome(lambda: np.array(
        [bank_reference.score_krnft(state, v, bank, tau) for v in images]))
    assert got is ref is want


@pytest.mark.parametrize("case", sorted(CASES))
def test_degenerate_parameters_match_reference(case):
    _check_degenerate(case, D, 5, M)


@pytest.mark.parametrize("bank_shape, case", [pytest.param(shape, case, id=tag + case)
                                               for tag, shape in GRID_BANKS.items()
                                               for case in sorted(CASES)])
def test_degenerate_parameters_on_the_chunk_grid_match_reference(bank_shape, case):
    _check_degenerate(case, *bank_shape)


def test_overflowing_cosines_of_finite_rows_match_reference():
    # an image of norm 2.4e308 overflows its cosines with the finite identity-tuned
    # rows; with no negative rows both paths raise NoNegativeLabels, not NonFiniteInput
    pos = np.zeros((3, D))
    pos[:, :2] = 1.0
    pos[:, 2:5] = np.eye(3)
    bank = FeatureBank.from_rows(pos / np.sqrt(3.0), [])
    state = init_model(D, hidden=8, mode="scale_shift", seed=3)
    image = np.zeros((1, D))
    image[0, :2] = 1.7e308
    got = _outcome(lambda: score_many(image, "krnft", bank, state=state))
    ref = _outcome(lambda: bank_reference.score_krnft(state, image[0], bank))
    assert got is ref is NoNegativeLabels


def test_transform_bank_returns_a_fresh_array():
    rng = np.random.default_rng(74)
    bank = make_bank(rng, 5, 40)
    state = perturbed_state(rng, "scale_shift")
    v1, v2 = unit_rows(rng, 2, D)
    first = transform_bank(state, bank, v1)
    kept = first.copy()
    score_many(np.vstack([v1, v2]), "krnft", bank, state=state)
    second = transform_bank(state, bank, v2)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
