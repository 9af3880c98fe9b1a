"""Allocating reference for `model.transform_bank`.

The former library path: each role's tuned rows are built with fresh
temporaries (a * c + b, the squares, the quotient) and the two roles are
stacked with `np.vstack`. The tests compare the in-place blocked kernel
behind `transform_bank` and krnft `score_many` against it bit for bit.

The transform's parameters come from this module's own per-image meta-net
(`metanet_forward`, `affine_params`, `mlp_residual`, with `w @ v` products),
which fetches each array by its full key, not from `model.role_terms` or
`model.role_arrays`, so the oracle stays independent of them.
"""

import numpy as np

from nft_ood.errors import DimMismatch, NumericError, ZeroNorm
from nft_ood.numerics import as_f64, check_tau
from nft_ood.scoring import score_neglabel


def _param(state, role):
    """p(name) is the role's array under its full key, e.g. p("net.w1") is
    arrays["pos_net.w1"] for the positive role; None if the mode lacks it."""
    prefix = "pos_" if role == "positive" else "neg_"
    return lambda name: state.arrays.get(prefix + name)


def metanet_forward(state, role, v):
    """Image-conditional residuals (alpha_res, beta_res) of one role for image feature v.

    alpha_res is None for a net without the alpha head.
    """
    p = _param(state, role)
    v = as_f64(v)
    if v.shape != (p("net.w1").shape[1],):
        raise DimMismatch(f"expected image feature of length {p('net.w1').shape[1]}")
    z = p("net.w1") @ v + p("net.b1")
    h = np.maximum(z, 0.0)
    alpha_res = None if p("net.w_alpha") is None else p("net.w_alpha") @ h + p("net.b_alpha")
    return alpha_res, p("net.w_beta") @ h + p("net.b_beta")


def affine_params(state, v, role):
    """Effective (alpha, beta) for one role, including image-conditional residuals.

    Returns None for modes whose transform is not an affine map on c.
    """
    p = _param(state, role)
    if state.mode == "const_shift":
        return np.ones(state.dim), np.full(state.dim, p("head.beta")[0])
    if state.mode == "vec_shift":
        _, beta_res = metanet_forward(state, role, v)
        return np.ones(state.dim), p("head.beta") + beta_res
    if state.mode == "scale_shift":
        alpha_res, beta_res = metanet_forward(state, role, v)
        return p("head.alpha") + alpha_res, p("head.beta") + beta_res
    return None


def mlp_residual(state, role, c_rows):
    """Residual of one role's two-layer MLP transform applied to each row of c_rows."""
    p = _param(state, role)
    z = c_rows @ p("net.w1").T + p("net.b1")
    h = np.maximum(z, 0.0)
    return h @ p("net.w_beta").T + p("net.b_beta")


def transform_rows(state, c_rows, v, role):
    c_rows = np.atleast_2d(c_rows)
    if c_rows.shape[1] != state.dim:
        raise DimMismatch(
            f"bank dim {c_rows.shape[1]} does not match model dim {state.dim}"
        )
    if state.mode == "mlp":
        u = c_rows + mlp_residual(state, role, c_rows)
    else:
        a, b = affine_params(state, v, role)
        u = a * c_rows + b
    norms = np.sqrt(np.sum(u * u, axis=1))
    if np.any(norms <= 1e-12):
        raise ZeroNorm("transform produced a zero vector; parameters are degenerate")
    if not np.all(np.isfinite(norms)):
        raise NumericError("transform produced a vector whose norm overflows")
    return u / norms[:, None]


def transform_bank(state, bank, v):
    """Tuned bank: positive rows with the positive head/net, negative with the negative."""
    v = as_f64(v)
    if bank.dim != state.dim or v.shape != (state.dim,):
        raise DimMismatch("bank, model and image feature dimensions must agree")
    parts = [transform_rows(state, bank.pos, v, "positive")]
    if bank.n_neg:
        parts.append(transform_rows(state, bank.neg, v, "negative"))
    return np.vstack(parts)


def score_krnft(state, v, bank, tau_score=1.0):
    """krnft score of one image: the temperature check, the reference tuned bank, then
    score_neglabel, as in `scoring.score_krnft`."""
    check_tau("tau_score", tau_score)
    return score_neglabel(v, transform_bank(state, bank, v), bank.n_pos, tau_score)
