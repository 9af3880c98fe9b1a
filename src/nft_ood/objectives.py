"""Training losses and their analytic gradients.

Three terms: a cross-entropy classification loss on positive samples over all
N+M tuned text features, a loss pushing negative samples away from the ID
labels (log of the ID probability mass), and a knowledge-regularization term
keeping tuned features close to the pre-trained ones (feature, logit, or
probability variant).

`total_loss` and `backward` share one batched forward over the B images of a
batch. In the affine modes (`vec_shift`, `scale_shift`) image v has its own
scale a and shift b, and each bank row c is tuned to c' = u / ||u|| with
u = a * c + b. The losses need only dot products of u, which expand into
GEMMs of the batch against the bank C and its elementwise square C * C:

    v . u   = (a * v) . c + b . v
    c . u   = a . (c * c) + b . c
    ||u||^2 = (a * a) . (c * c) + 2 (a * b) . c + ||b||^2

The gradients with respect to a and b are the transposed GEMMs, so training
never builds a (B, K, D) tensor. Entries where u nearly cancels, and the
expansion of ||u||^2 with it, are recomputed from u directly. In `const_shift`
and `mlp` the tuned bank does not depend on the image: it is computed once
per call, and the backward passes through the normalization and the transform
once.

Gradients are derived by hand, including through the L2 normalization
(projection Jacobian) and the relu (subgradient 0 at 0); a central-difference
oracle cross-checks them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadClassIndex,
    EmptyBatch,
    InvalidConfig,
    NoNegativeLabels,
    NonPositiveTemperature,
    ZeroNorm,
)
from .model import IMAGE_INDEPENDENT_MODES, ROLES, TrainingSet, role_arrays, role_terms
from .numerics import EPS_NORM, as_f64

KR_VARIANTS = ("feature", "logits", "prob")
KR_SCOPES = ("pos", "both")


# a batch is a slice of the training set: the same positive and negative samples
Batch = TrainingSet


@dataclass
class LossReport:
    l_pos: float
    l_neg: float
    l_kr: float
    total: float
    n_pos: int
    n_neg: int


def zero_gradients(state):
    return {k: np.zeros_like(v) for k, v in state.params().items()}


def _check_tau(tau):
    if tau <= 0:
        raise NonPositiveTemperature(f"tau must be > 0, got {tau}")


def _validate_cfg(cfg):
    if cfg.kr_variant not in KR_VARIANTS:
        raise InvalidConfig(f"unknown kr_variant {cfg.kr_variant!r}")
    if cfg.kr_scope not in KR_SCOPES:
        raise InvalidConfig(f"unknown kr_scope {cfg.kr_scope!r}")


def _validate_batch(bank, batch):
    if batch.n_pos == 0 and batch.n_neg == 0:
        raise EmptyBatch("batch has neither positive nor negative samples")
    if batch.n_pos and (
        np.min(batch.pos_labels) < 0 or np.max(batch.pos_labels) >= bank.n_pos
    ):
        raise BadClassIndex("batch contains a class index outside the bank")
    if batch.n_neg and bank.n_neg == 0:
        raise NoNegativeLabels("negative samples require negative labels in the bank")


def _lse_rows(x):
    m = x.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))).ravel()


def _images(batch):
    """The batch's images as one (B, D) array, positives first."""
    parts = []
    if batch.n_pos:
        parts.append(as_f64(batch.pos_features))
    if batch.n_neg:
        parts.append(as_f64(batch.neg_features))
    return np.vstack(parts)


# Where ||u||^2 falls below this share of ||a*c||^2 + ||b||^2, its GEMM
# expansion has cancelled: its relative error grows like D * eps divided by
# that share, and an exactly zero u can come out as a tiny positive norm that
# slips past the ZeroNorm guard. Such entries are recomputed from u itself.
_CANCELLATION = 1e-2


@dataclass
class _Role:
    """Forward cache of one role's bank rows against a batch of B images."""

    name: str
    c: np.ndarray  # (K, D) pre-trained rows
    c2: np.ndarray = None  # (K, D) c * c, affine modes
    s: np.ndarray = None  # (B, K) tuned cosines v . c'
    d: np.ndarray = None  # (B, K) regularizer dots c . c'
    n: np.ndarray = None  # ||u||: (B, K) in the affine modes, (K,) otherwise
    z: np.ndarray = None  # meta-net trunk pre-activation: (B, H), in mlp (K, H)
    h: np.ndarray = None  # relu(z)
    a: np.ndarray = None  # (B, D) per-image scale, affine modes
    b: np.ndarray = None  # (B, D) per-image shift, affine modes
    cp: np.ndarray = None  # (K, D) tuned rows, image-independent modes


def _checked_norms(n2):
    if (n2 <= EPS_NORM * EPS_NORM).any():
        raise ZeroNorm("transform produced a zero vector")
    return np.sqrt(n2)


def _forward(state, bank, imgs):
    """Tuned cosines and c . c' of every image against every bank row, per role."""
    roles = []
    for name, c in (("positive", bank.pos), ("negative", bank.neg)):
        if c.shape[0] == 0:
            continue
        r = _Role(name=name, c=c)
        a, b, r.z, r.h = role_terms(state, name, imgs, c)
        if state.mode in IMAGE_INDEPENDENT_MODES:
            u = c + b
            r.n = _checked_norms((u * u).sum(axis=1))
            r.cp = u / r.n[:, None]
            r.s = imgs @ r.cp.T
            r.d = np.broadcast_to((c * r.cp).sum(axis=1), r.s.shape)
        else:
            r.a, r.b = (np.ones_like(b) if a is None else a), b
            r.c2 = c * c
            bc = r.b @ c.T
            ac2 = (r.a * r.a) @ r.c2.T
            bb = (r.b * r.b).sum(axis=1, keepdims=True)
            vu = (r.a * imgs) @ c.T + (r.b * imgs).sum(axis=1, keepdims=True)
            cu = r.a @ r.c2.T + bc
            n2 = ac2 + 2.0 * ((r.a * r.b) @ c.T) + bb
            cancelled = n2 <= _CANCELLATION * (ac2 + bb)
            if cancelled.any():
                i, k = cancelled.nonzero()
                u = r.a[i] * c[k] + r.b[i]
                n2[i, k] = (u * u).sum(axis=1)
                vu[i, k] = (imgs[i] * u).sum(axis=1)
                cu[i, k] = (c[k] * u).sum(axis=1)
            r.n = _checked_norms(n2)
            r.s = vu / r.n
            r.d = cu / r.n
        roles.append(r)
    return roles


def _backprop_role(state, r, imgs, g_s, g_d, grads):
    """Accumulate dL/dparams of one role from dL/ds (B, K) and dL/dd (B, 1)."""
    p, dp = role_arrays(state.arrays, r.name), role_arrays(grads, r.name)
    g_a = None
    if state.mode in IMAGE_INDEPENDENT_MODES:
        # dL/dc' summed over the batch, then through the normalization once
        g = g_s.T @ imgs + np.sum(g_d) * r.c
        g_b = (g - np.sum(g * r.cp, axis=1, keepdims=True) * r.cp) / r.n[:, None]
        if "w1" not in p:  # const_shift
            dp["beta"][0] += np.sum(g_b)
            return
        x = r.c  # the mlp's trunk reads the bank rows, not the images
    else:
        # dL/du = alpha v + gamma c - rho u per image and row; summing it over
        # rows against c (for a) and 1 (for b) expands into GEMMs with c, c*c.
        alpha = g_s / r.n
        gamma = g_d / r.n
        rho = (alpha * r.s + gamma * r.d) / r.n
        rho_c = rho @ r.c
        g_b = (imgs * np.sum(alpha, axis=1, keepdims=True) + gamma @ r.c
               - r.a * rho_c - r.b * np.sum(rho, axis=1, keepdims=True))
        dp["beta"] += np.sum(g_b, axis=0)
        if "alpha" in p:
            g_a = (imgs * (alpha @ r.c) + gamma @ r.c2
                   - r.a * (rho @ r.c2) - r.b * rho_c)
            dp["alpha"] += np.sum(g_a, axis=0)
        x = imgs
    dp["w_beta"] += g_b.T @ r.h
    dp["b_beta"] += np.sum(g_b, axis=0)
    g_h = g_b @ p["w_beta"]
    if g_a is not None:
        dp["w_alpha"] += g_a.T @ r.h
        dp["b_alpha"] += np.sum(g_a, axis=0)
        g_h += g_a @ p["w_alpha"]
    g_z = g_h * (r.z > 0)
    dp["w1"] += g_z.T @ x
    dp["b1"] += np.sum(g_z, axis=0)


def _loss(state, bank, batch, cfg, with_grads):
    """Loss report and, if with_grads, the gradients, from one batched forward."""
    _validate_cfg(cfg)
    _validate_batch(bank, batch)
    _check_tau(cfg.tau_loss)
    tau, n, n_p = cfg.tau_loss, bank.n_pos, batch.n_pos
    imgs = _images(batch)
    roles = _forward(state, bank, imgs)
    s = np.hstack([r.s for r in roles])
    k = s.shape[1]
    logits = s / tau
    lse_all = _lse_rows(logits)
    # dL/ds, and dL/d(c . c') which is the same for every row of the bank
    g_s = np.zeros_like(s)
    g_d = np.zeros((s.shape[0], 1))
    l_pos = l_neg = l_kr = 0.0
    if n_p:
        idx, y = np.arange(n_p), batch.pos_labels.astype(int)
        l_pos = float((lse_all[:n_p] - logits[idx, y]).mean())
        if with_grads:
            dl = np.exp(logits[:n_p] - lse_all[:n_p, None])
            dl[idx, y] -= 1.0
            g_s[:n_p] = dl / (n_p * tau)
    if batch.n_neg:
        neg = logits[n_p:]
        lse_id = _lse_rows(neg[:, :n])
        l_neg = float((lse_id - lse_all[n_p:]).mean())
        if with_grads:
            dl = -np.exp(neg - lse_all[n_p:, None])
            dl[:, :n] += np.exp(neg[:, :n] - lse_id[:, None])
            g_s[n_p:] = dl * (cfg.lambda1 / (batch.n_neg * tau))

    n_kr = n_p + (batch.n_neg if cfg.kr_scope == "both" else 0)
    if n_kr:
        w_kr = cfg.lambda2 / n_kr
        scope = slice(0, n_kr)  # positives come first in imgs
        if cfg.kr_variant == "feature":
            kr_per_img = 1.0 - np.hstack([r.d[scope] for r in roles]).mean(axis=1)
            g_d[scope] = -w_kr / k
        else:
            t0 = imgs[scope] @ bank.rows().T
            if cfg.kr_variant == "logits":
                gap = s[scope] - t0
                kr_per_img = (gap * gap).mean(axis=1)
                g_s[scope] += (2.0 * w_kr / k) * gap
            else:  # prob
                p0 = np.exp(t0 - _lse_rows(t0)[:, None])
                log_q = s[scope] - _lse_rows(s[scope])[:, None]
                kr_per_img = -(p0 * log_q).sum(axis=1)
                g_s[scope] += w_kr * (np.exp(log_q) - p0)
        l_kr = float(kr_per_img.mean())

    report = LossReport(
        l_pos=l_pos,
        l_neg=l_neg,
        l_kr=l_kr,
        total=float(l_pos + cfg.lambda1 * l_neg + cfg.lambda2 * l_kr),
        n_pos=n_p,
        n_neg=batch.n_neg,
    )
    if not with_grads:
        return report, None
    grads = zero_gradients(state)
    offset = 0
    for r in roles:
        k_r = r.c.shape[0]
        _backprop_role(state, r, imgs, g_s[:, offset : offset + k_r], g_d, grads)
        offset += k_r
    return report, grads


def total_loss(state, bank, batch, cfg):
    """Mean losses over the batch combined per the lambda weights in cfg.

    One batched forward gives every image's tuned cosines and c . c' dots
    in closed form (see the module docstring); no (B, K, D) tensor is built.
    """
    return _loss(state, bank, batch, cfg, with_grads=False)[0]


def backward(state, bank, batch, cfg):
    """Loss report plus analytic gradients of the total loss.

    The gradients come from the same batched forward as `total_loss`, through
    transposed GEMMs; there is no loop over samples.
    """
    return _loss(state, bank, batch, cfg, with_grads=True)


def finite_diff_grad(state, bank, batch, cfg, eps=1e-5):
    """Central-difference gradients of the total loss, per scalar parameter."""
    if eps <= 0:
        raise InvalidConfig(f"eps must be > 0, got {eps}")
    grads = zero_gradients(state)
    params = state.params()
    for key, arr in params.items():
        flat = arr.reshape(-1)
        out = grads[key].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = total_loss(state, bank, batch, cfg).total
            flat[i] = orig - eps
            f_minus = total_loss(state, bank, batch, cfg).total
            flat[i] = orig
            out[i] = (f_plus - f_minus) / (2.0 * eps)
    return grads


def fd_well_conditioned(state, bank, batch, grads,
                        min_grad=2e-6, min_relu_margin=1e-4):
    """Whether a random instance is resolvable by the float64 fd oracle.

    Central differences at eps=1e-5 carry an absolute rounding-noise floor of
    roughly 1e-10, so gradient coordinates much below ~1e-6 cannot be checked
    reliably; instances with such coordinates (or with a relu pre-activation
    close enough to its kink that the eps probe crosses it) should be redrawn
    rather than compared against the oracle.
    """
    vals = np.concatenate([g.ravel() for g in grads.values()])
    nz = np.abs(vals[vals != 0.0])
    if nz.size and float(nz.min()) < min_grad:
        return False
    imgs = _images(batch)
    for role in ROLES:
        p = role_arrays(state.arrays, role)
        if "w1" not in p:  # const_shift has no meta-net
            continue
        z = imgs @ p["w1"].T + p["b1"]
        if float(np.min(np.abs(z))) < min_relu_margin:
            return False
        if state.mode == "mlp":
            z_rows = bank.rows() @ p["w1"].T + p["b1"]
            if float(np.min(np.abs(z_rows))) < min_relu_margin:
                return False
    return True


def max_relative_error(analytic, numeric):
    """max over parameters of |a - n| / max(1e-8, |a| + |n|)."""
    worst = 0.0
    for key in analytic:
        a = analytic[key].reshape(-1)
        b = numeric[key].reshape(-1)
        denom = np.maximum(1e-8, np.abs(a) + np.abs(b))
        err = float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
        worst = max(worst, err)
    return worst
