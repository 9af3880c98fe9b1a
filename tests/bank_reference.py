"""Allocating reference for `model.transform_bank`.

The former library path: each role's tuned rows are built with fresh
temporaries (a * c + b, the squares, the quotient) and the two roles are
stacked with `np.vstack`. The tests compare the in-place blocked kernel
behind `transform_bank` and krnft `score_many` against it bit for bit.
"""

import numpy as np

from nft_ood.errors import DimMismatch, ZeroNorm
from nft_ood.model import affine_params, mlp_residual
from nft_ood.numerics import as_f64
from nft_ood.scoring import score_neglabel


def _transform_rows(state, c_rows, v, role):
    c_rows = np.atleast_2d(c_rows)
    if c_rows.shape[1] != state.dim:
        raise DimMismatch(
            f"bank dim {c_rows.shape[1]} does not match model dim {state.dim}"
        )
    if state.mode == "mlp":
        u = c_rows + mlp_residual(state.net(role), c_rows)
    else:
        a, b = affine_params(state, v, role)
        u = a * c_rows + b
    norms = np.sqrt(np.sum(u * u, axis=1))
    if np.any(norms <= 1e-12):
        raise ZeroNorm("transform produced a zero vector; parameters are degenerate")
    return u / norms[:, None]


def transform_bank(state, bank, v):
    """Tuned bank: positive rows with the positive head/net, negative with the negative."""
    v = as_f64(v)
    if bank.dim != state.dim or v.shape != (state.dim,):
        raise DimMismatch("bank, model and image feature dimensions must agree")
    parts = [_transform_rows(state, bank.pos, v, "positive")]
    if bank.n_neg:
        parts.append(_transform_rows(state, bank.neg, v, "negative"))
    return np.vstack(parts)


def score_krnft(state, v, bank, tau_score=1.0):
    """krnft score of one image: the reference tuned bank, then score_neglabel."""
    return score_neglabel(v, transform_bank(state, bank, v), bank.n_pos, tau_score)
