"""Training losses and their analytic gradients.

Three terms: a cross-entropy classification loss on positive samples over all
N+M tuned text features, a loss pushing negative samples away from the ID
labels (log of the ID probability mass), and a knowledge-regularization term
keeping tuned features close to the pre-trained ones (feature, logit, or
probability variant).

`total_loss` and `backward` share one batched forward of the B images of a
batch against all K = N + M bank rows, both roles at once; the loss, dL/ds
and the backward's coefficients are each one pass over (B, K). In the affine
modes (`vec_shift`, `scale_shift`) image v has its own scale a and shift b,
and each bank row c is tuned to c' = u / ||u|| with u = a * c + b. The losses
need only dot products of u, which expand into GEMMs of the batch against the
bank C and its elementwise square C * C (`FeatureBank.squares`):

    v . u   = (a * v) . c + b . v
    c . u   = a . (c * c) + b . c
    ||u||^2 = (a * a) . (c * c) + 2 (a * b) . c + ||b||^2

Each role takes them in two stacked GEMMs on its columns of whole-bank buffers,
[a * v; 2 a * b; b] @ C.T and [a * a; a] @ (C * C).T, and its gradient sums in
two more, [alpha; rho; gamma] @ C and [rho; gamma] @ (C * C), with dL/du =
alpha v + gamma c - rho u. The b, a and gamma rows cover only the images the
feature regularizer does. `vec_shift` has no scale (a = 1), and the bank's unit
rows have ||c||^2 = 1: it skips C * C and its GEMMs. No (B, K, D) tensor is
built. Entries where u nearly cancels, and the expansion of ||u||^2 with it,
are recomputed from u directly. In `const_shift` and `mlp` the tuned bank does
not depend on the image: each role is tuned once per call by `model._tune_rows`,
the kernel of `transform_bank` and krnft scoring, so training sees the bits of
the bank it is scored with; the backward passes through the normalization and
the transform once.

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
    ShapeMismatch,
    ZeroNorm,
)
from .model import (IMAGE_INDEPENDENT_MODES, ROLES, TrainingSet, _tune_rows, flat_arrays,
                    role_arrays, role_terms)
from .numerics import EPS_NORM, as_f64, check_tau

KR_VARIANTS = ("feature", "logits", "prob")
KR_SCOPES = ("pos", "both")
# the smallest |gradient| and |relu pre-activation| that fd_well_conditioned accepts
_FD_MIN_GRAD, _FD_MIN_RELU_MARGIN = 2e-6, 1e-4


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
    """Zeroed gradients shaped like the live parameters, views of one flat buffer."""
    return flat_arrays(state.arrays, np.zeros(sum(a.size for a in state.arrays.values())))


def _validate_cfg(cfg):
    """The loss fields of a TrainConfig: checked when it is built and at every loss call."""
    check_tau("tau_loss", cfg.tau_loss)
    if cfg.kr_variant not in KR_VARIANTS:
        raise InvalidConfig(f"unknown kr_variant {cfg.kr_variant!r}")
    if cfg.kr_scope not in KR_SCOPES:
        raise InvalidConfig(f"unknown kr_scope {cfg.kr_scope!r}")


def _validate_batch(bank, batch):
    if any(f.shape[1:] != (bank.dim,) for f in (batch.pos_features, batch.neg_features)):
        raise ShapeMismatch("training features do not match bank dimension")
    if batch.n_pos == 0 and batch.n_neg == 0:
        raise EmptyBatch("batch has neither positive nor negative samples")
    if batch.n_pos and (batch.pos_labels.min() < 0 or batch.pos_labels.max() >= bank.n_pos):
        raise BadClassIndex("batch contains a class index outside the bank")
    if batch.n_neg and bank.n_neg == 0:
        raise NoNegativeLabels("negative samples require negative labels in the bank")


def _softmax_rows(x):
    """(log-sum-exp, softmax) of each row of x, from one pass of exponentials."""
    m = x.max(axis=1, keepdims=True)
    e = np.subtract(x, m)
    np.exp(e, out=e)
    t = e.sum(axis=1, keepdims=True)
    e /= t
    return (m + np.log(t)).ravel(), e


def _images(batch):
    """The batch's images as one (B, D) array, positives first."""
    return as_f64(np.concatenate([batch.pos_features, batch.neg_features]))


# Where ||u||^2 falls below this share of ||a*c||^2 + ||b||^2, its GEMM
# expansion has cancelled: its relative error grows like D * eps divided by
# that share, and an exactly zero u can come out as a tiny positive norm that
# slips past the ZeroNorm guard. Such entries are recomputed from u itself.
_CANCELLATION = 1e-2


@dataclass
class _Pass:
    """Forward cache of a batch of B images against all K bank rows, both roles."""

    s: np.ndarray  # (B, K) tuned cosines v . c'
    d: np.ndarray  # (n_dots, K) regularizer dots c . c' of the first n_dots images
    n: np.ndarray  # ||u||: (B, K) in the affine modes, (K,) otherwise
    roles: list  # (name, column slice, a, b, z, h) of each role with rows; see role_terms
    cp: np.ndarray = None  # (K, D) tuned rows, image-independent modes
    sq: np.ndarray = None  # (K, D) scratch of their squares, reused by the backward


def _forward(state, bank, imgs, n_dots):
    """A _Pass: the tuned cosines of every image against every bank row, and c . c'
    of the first n_dots images."""
    c, n_img = bank.matrix, imgs.shape[0]
    roles = [(name, cols, *role_terms(state, name, imgs, c[cols]))
             for name, cols in (("positive", slice(0, bank.n_pos)),
                                ("negative", slice(bank.n_pos, c.shape[0])))
             if cols.stop > cols.start]
    if state.mode in IMAGE_INDEPENDENT_MODES:
        # one block, sq reused by the backward: fresh arrays cost page faults each step
        cp, sq = np.empty((2, *c.shape))
        n = np.concatenate([_tune_rows(c[cols], a, b, cp[cols], sq)
                            for _, cols, a, b, _, _ in roles])
        d = np.broadcast_to(np.einsum("ij,ij->i", c, cp) if n_dots else 0.0, (n_dots, c.shape[0]))
        return _Pass(s=imgs @ cp.T, d=d, n=n, roles=roles, cp=cp, sq=sq)
    p1 = np.empty((2 * n_img + n_dots, c.shape[0]))
    p2 = np.empty((n_img + n_dots, c.shape[0]))
    for _, cols, a, b, _, _ in roles:
        av, ab = (imgs, b) if a is None else (a * imgs, a * b)
        np.matmul(np.concatenate([av, 2.0 * ab, b[:n_dots]]), c[cols].T, out=p1[:, cols])
        if a is None:  # c . c = 1 on the bank's unit rows
            p2[:, cols] = 1.0
        else:
            np.matmul(np.concatenate([a * a, a[:n_dots]]), bank.squares[cols].T, out=p2[:, cols])
        p1[:n_img, cols] += (b * imgs).sum(axis=1, keepdims=True)
        p2[:n_img, cols] += (b * b).sum(axis=1, keepdims=True)
    vu, n2, cu, q = p1[:n_img], p1[n_img : 2 * n_img], p2[n_img:], p2[:n_img]
    n2 += q  # q = ||a*c||^2 + ||b||^2
    cu += p1[2 * n_img :]
    q *= _CANCELLATION
    cancelled = n2 <= q
    if cancelled.any():
        i, j = cancelled.nonzero()
        r = i + n_img * (j >= bank.n_pos)  # the row of (a, b) in the roles' stacks
        a = 1.0 if roles[0][2] is None else np.vstack([t[2] for t in roles])[r]
        u = a * c[j] + np.vstack([t[3] for t in roles])[r]
        n2[i, j] = (u * u).sum(axis=1)
        vu[i, j] = (imgs[i] * u).sum(axis=1)
        dots = i < n_dots
        cu[i[dots], j[dots]] = (c[j[dots]] * u[dots]).sum(axis=1)
    if (n2 <= EPS_NORM * EPS_NORM).any():
        raise ZeroNorm("transform produced a zero vector")
    n = np.sqrt(n2, out=n2)
    vu /= n
    cu /= n[:n_dots]
    return _Pass(s=vu, d=cu, n=n, roles=roles)


def _backprop(state, bank, f, imgs, g_s, g_d, grads):
    """Accumulate dL/dparams from dL/ds (B, K) and g_d = dL/dd, one scalar for every
    entry of f.d."""
    c, n_g = bank.matrix, f.d.shape[0]
    if state.mode in IMAGE_INDEPENDENT_MODES:
        # dL/dc' summed over the batch, then through the normalization once
        g_u = np.matmul(g_s.T, imgs, out=f.sq)
        if n_g:
            g_u += (n_g * g_d) * c
        g_u -= np.einsum("ij,ij->i", g_u, f.cp)[:, None] * f.cp
        g_u /= f.n[:, None]
    else:
        n_img = imgs.shape[0]
        coef = np.empty((2 * n_img + n_g, c.shape[0]))
        alpha, rho, gamma = coef[:n_img], coef[n_img : 2 * n_img], coef[2 * n_img :]
        np.divide(g_s, f.n, out=alpha)
        np.multiply(alpha, f.s, out=rho)
        np.divide(g_d, f.n[:n_g], out=gamma)
        rho[:n_g] += gamma * f.d
        rho /= f.n
    for name, cols, a, b, z, h in f.roles:
        p, dp = (role_arrays(arrays, state.mode, name) for arrays in (state.arrays, grads))
        g_a = None
        if state.mode in IMAGE_INDEPENDENT_MODES:
            g_b = g_u[cols]
            if "w1" not in p:  # const_shift
                dp["beta"][0] += g_b.sum()
                continue
            x = c[cols]  # the mlp's trunk reads the bank rows, not the images
        else:
            cc = coef[:, cols] @ c[cols]  # alpha @ c, rho @ c, gamma @ c
            sums = coef[: 2 * n_img, cols].sum(axis=1, keepdims=True)
            rc = cc[n_img : 2 * n_img]
            g_b = imgs * sums[:n_img] - (rc if a is None else a * rc) - b * sums[n_img:]
            g_b[:n_g] += cc[2 * n_img :]
            dp["beta"] += g_b.sum(axis=0)
            if "alpha" in p:
                cc2 = coef[n_img:, cols] @ bank.squares[cols]  # rho, gamma @ c*c
                g_a = imgs * cc[:n_img] - a * cc2[:n_img] - b * cc[n_img : 2 * n_img]
                g_a[:n_g] += cc2[n_img:]
                dp["alpha"] += g_a.sum(axis=0)
            x = imgs
        dp["w_beta"] += g_b.T @ h
        dp["b_beta"] += g_b.sum(axis=0)
        g_h = g_b @ p["w_beta"]
        if g_a is not None:
            dp["w_alpha"] += g_a.T @ h
            dp["b_alpha"] += g_a.sum(axis=0)
            g_h += g_a @ p["w_alpha"]
        g_z = g_h * (z > 0)
        dp["w1"] += g_z.T @ x
        dp["b1"] += g_z.sum(axis=0)


def _loss(state, bank, batch, cfg, with_grads):
    """Loss report and, if with_grads, the gradients, from one batched forward."""
    _validate_cfg(cfg)
    _validate_batch(bank, batch)
    tau, n, n_p, n_n = cfg.tau_loss, bank.n_pos, batch.n_pos, batch.n_neg
    n_kr = n_p + (n_n if cfg.kr_scope == "both" else 0)  # positives come first in imgs
    feature = cfg.kr_variant == "feature"
    imgs = _images(batch)
    f = _forward(state, bank, imgs, n_kr if feature else 0)
    k = f.s.shape[1]
    logits = f.s / tau
    lse_all, g_s = _softmax_rows(logits)  # the softmax, made dL/ds in place
    g_d = 0.0  # dL/d(c . c'), the same for every regularized image and bank row
    l_pos = l_neg = l_kr = 0.0
    if n_p:
        idx, y = np.arange(n_p), batch.pos_labels.astype(int)
        # x.sum() / n: the bits of x.mean(), without its Python wrapper
        l_pos = float((lse_all[:n_p] - logits[idx, y]).sum() / n_p)
        g_s[idx, y] -= 1.0
        g_s[:n_p] /= n_p * tau
    if n_n:
        lse_id, p_id = _softmax_rows(logits[n_p:, :n])
        l_neg = float((lse_id - lse_all[n_p:]).sum() / n_n)
        g_s[n_p:, :n] -= p_id
        g_s[n_p:] *= -cfg.lambda1 / (n_n * tau)
    if n_kr:
        w_kr = cfg.lambda2 / n_kr
        if feature:
            kr_per_img = 1.0 - f.d.sum(axis=1) / k
            g_d = -w_kr / k
        else:
            s, t0 = f.s[:n_kr], imgs[:n_kr] @ bank.matrix.T
            if cfg.kr_variant == "logits":
                gap = s - t0
                kr_per_img = (gap * gap).sum(axis=1) / k
                g_s[:n_kr] += (2.0 * w_kr / k) * gap
            else:  # prob
                p0 = _softmax_rows(t0)[1]
                lse_q, q = _softmax_rows(s)
                kr_per_img = -(p0 * (s - lse_q[:, None])).sum(axis=1)
                g_s[:n_kr] += w_kr * (q - p0)
        l_kr = float(kr_per_img.sum() / n_kr)

    total = float(l_pos + cfg.lambda1 * l_neg + cfg.lambda2 * l_kr)
    report = LossReport(l_pos=l_pos, l_neg=l_neg, l_kr=l_kr, total=total, n_pos=n_p, n_neg=n_n)
    if not with_grads:
        return report, None
    grads = zero_gradients(state)
    _backprop(state, bank, f, imgs, g_s, g_d, grads)
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
    for key, arr in state.params().items():
        flat, out = arr.reshape(-1), grads[key].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = total_loss(state, bank, batch, cfg).total
            flat[i] = orig - eps
            f_minus = total_loss(state, bank, batch, cfg).total
            flat[i] = orig
            out[i] = (f_plus - f_minus) / (2.0 * eps)
    return grads


def fd_well_conditioned(state, bank, batch, grads):
    """Whether a random instance is resolvable by the float64 fd oracle.

    Central differences at eps=1e-5 carry an absolute rounding-noise floor of
    roughly 1e-10, so gradient coordinates much below ~1e-6 cannot be checked
    reliably; instances with such coordinates (or with a relu pre-activation
    close enough to its kink that the eps probe crosses it) should be redrawn
    rather than compared against the oracle.
    """
    vals = np.concatenate([g.ravel() for g in grads.values()])
    nz = np.abs(vals[vals != 0.0])
    if nz.size and float(nz.min()) < _FD_MIN_GRAD:
        return False
    imgs = _images(batch)
    for role in ROLES:
        p = role_arrays(state.arrays, state.mode, role)
        if "w1" not in p:  # const_shift has no meta-net
            continue
        z = imgs @ p["w1"].T + p["b1"]
        if float(np.min(np.abs(z))) < _FD_MIN_RELU_MARGIN:
            return False
        if state.mode == "mlp":
            z_rows = bank.rows() @ p["w1"].T + p["b1"]
            if float(np.min(np.abs(z_rows))) < _FD_MIN_RELU_MARGIN:
                return False
    return True


def max_relative_error(analytic, numeric):
    """max over parameters of |a - n| / max(1e-8, |a| + |n|)."""
    a = np.concatenate([analytic[k].ravel() for k in analytic])
    b = np.concatenate([numeric[k].ravel() for k in analytic])
    return float(np.max(np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b)), initial=0.0))
