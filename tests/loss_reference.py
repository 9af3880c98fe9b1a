"""Per-image reference losses, formerly in `nft_ood.objectives`.

Each one scores a single image against the tuned bank that
`model.transform_bank` builds for it. The tests compare the batched
`total_loss` against their means.
"""

import numpy as np

from nft_ood.errors import BadClassIndex, DimMismatch, NoNegativeLabels
from nft_ood.model import transform_bank
from nft_ood.numerics import as_f64, check_tau
from numerics_reference import logsumexp, stable_softmax


def loss_positive(state, bank, v_p, y, tau):
    """Cross-entropy of class y over all N+M tuned-feature similarities."""
    check_tau("tau", tau)
    if not 0 <= y < bank.n_pos:
        raise BadClassIndex(f"class index {y} outside [0, {bank.n_pos})")
    v_p = as_f64(v_p)
    logits = (transform_bank(state, bank, v_p) @ v_p) / tau
    return float(logsumexp(logits) - logits[y])


def loss_negative(state, bank, v_n, tau):
    """log of the ID probability mass for a negative sample; always <= 0."""
    check_tau("tau", tau)
    if bank.n_neg == 0:
        raise NoNegativeLabels("negative loss requires at least one negative label")
    v_n = as_f64(v_n)
    logits = (transform_bank(state, bank, v_n) @ v_n) / tau
    return float(logsumexp(logits[: bank.n_pos]) - logsumexp(logits))


def loss_kr_feature(bank, transformed):
    """Mean (1 - c . c') over all rows; 0 iff every row is unchanged."""
    rows = bank.rows()
    transformed = as_f64(transformed)
    if transformed.shape != rows.shape:
        raise DimMismatch("transformed bank shape does not match original")
    # unit rows keep the true value in [0, 2]; clamp float dust below zero
    return max(0.0, float(np.mean(1.0 - np.sum(rows * transformed, axis=1))))


def loss_kr_logits(bank, transformed, v):
    """Mean squared gap between original and tuned logits for image v."""
    rows = bank.rows()
    transformed = as_f64(transformed)
    v = as_f64(v)
    if transformed.shape != rows.shape or v.shape != (rows.shape[1],):
        raise DimMismatch("transformed bank / image feature shape mismatch")
    gap = rows @ v - transformed @ v
    return float(np.mean(gap * gap))


def loss_kr_prob(bank, transformed, v):
    """Cross-entropy between softmax of original and tuned logits (tau omitted)."""
    rows = bank.rows()
    transformed = as_f64(transformed)
    v = as_f64(v)
    if transformed.shape != rows.shape or v.shape != (rows.shape[1],):
        raise DimMismatch("transformed bank / image feature shape mismatch")
    p = stable_softmax(rows @ v)
    t = transformed @ v
    log_q = t - logsumexp(t)
    return float(-np.sum(p * log_q))
