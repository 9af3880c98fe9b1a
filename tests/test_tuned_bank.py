"""The blocked in-place tuned-bank kernel against the allocating reference.

`transform_bank` and krnft `score_many` must give the reference's bits
exactly, at shapes that end a block part-way, and raise the same
exception class on degenerate parameters.
"""

import numpy as np
import pytest

import bank_reference
from conftest import unit_rows
from nft_ood.errors import NoNegativeLabels, NonFiniteInput, NonPositiveTemperature, ZeroNorm
from nft_ood.model import _BLOCK_ROWS, MODES, FeatureBank, init_model, transform_bank
from nft_ood.scoring import score_many, score_neglabel

D = 16

SHAPES = {
    # K = N + M is no multiple of the block; both roles end part-way through a block
    "ragged": (_BLOCK_ROWS + 6, _BLOCK_ROWS + 476),
    # N below one block; M's last block holds one row
    "small_pos": (5, 2 * _BLOCK_ROWS + 1),
    # no negative rows
    "no_neg": (_BLOCK_ROWS + 1, 0),
}


def make_bank(rng, n, m):
    neg = unit_rows(rng, m, D) if m else np.zeros((0, D))
    return FeatureBank.from_rows(unit_rows(rng, n, D), neg)


def perturbed_state(rng, mode):
    state = init_model(D, hidden=8, mode=mode, seed=3)
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


def _outcome(fn):
    try:
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return fn()
    except (NoNegativeLabels, NonFiniteInput, NonPositiveTemperature, ZeroNorm) as e:
        return type(e)


def _inf_rows(state, role):
    # a * c + b overflows to +Inf wherever c > ~0.06; the tuned row is then NaN
    head = state.head(role)
    head.alpha[:] = 1.7e308
    head.beta[:] = 1.7e308


def _zero_rows(state, role):
    # u stays finite but its squares underflow: the row norm is 0
    head = state.head(role)
    head.alpha[:] = 1e-200
    head.beta[:] = 0.0


def _overflowed_squares(state, role):
    # u is finite but u * u overflows: norm Inf, and u / norm a finite row of zeros
    state.head(role).beta[0] = 1e200


M = _BLOCK_ROWS + 3
CASES = {  # edits, tau, negative rows, expected exception (None: finite scores)
    "inf": ([(_inf_rows, "positive")], 1.0, M, NonFiniteInput),
    "zero": ([(_zero_rows, "negative")], 1.0, M, ZeroNorm),
    # ZeroNorm in the negative rows wins over the non-finite positive rows
    "inf_then_zero": ([(_inf_rows, "positive"), (_zero_rows, "negative")], 1.0, M, ZeroNorm),
    # the temperature check comes before the NaN/Inf scan ...
    "inf_bad_tau": ([(_inf_rows, "negative")], 0.0, M, NonPositiveTemperature),
    # ... and the NaN/Inf scan before the negative-row check
    "inf_no_neg": ([(_inf_rows, "positive")], 1.0, 0, NonFiniteInput),
    "overflowed_squares": ([(_overflowed_squares, "positive")], 1.0, M, None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_degenerate_parameters_match_reference(case):
    edits, tau, m, want = CASES[case]
    rng = np.random.default_rng(73)
    bank = make_bank(rng, 5, m)
    state = init_model(D, hidden=8, mode="scale_shift", seed=3)
    for edit, role in edits:
        edit(state, role)
    images = unit_rows(rng, 3, D)
    got = _outcome(lambda: score_many(images, "krnft", bank, state=state, tau_score=tau))
    ref = _outcome(lambda: np.array(
        [bank_reference.score_krnft(state, v, bank, tau) for v in images]))
    if want is None:
        assert np.array_equal(got, ref) and np.all(np.isfinite(got))
    else:
        assert got is ref is want


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
