"""Per-sample loop reference for `objectives.backward`.

For each sample it materializes the (K, D) tuned bank, then backpropagates
through the L2 normalization and the transform one image at a time. The
tests compare the batched closed-form `backward` against it.
"""

from dataclasses import dataclass

import numpy as np

from nft_ood.errors import BadClassIndex, NoNegativeLabels, ZeroNorm
from nft_ood.numerics import as_f64, check_tau
from nft_ood.objectives import (
    LossReport,
    _validate_batch,
    _validate_cfg,
    zero_gradients,
)
from numerics_reference import logsumexp, stable_softmax


@dataclass
class _RoleCache:
    role: str
    c: np.ndarray  # original rows
    cp: np.ndarray  # tuned rows
    norms: np.ndarray
    # affine modes
    a: np.ndarray = None
    z: np.ndarray = None  # trunk pre-activation on v
    h: np.ndarray = None
    # mlp mode
    z_rows: np.ndarray = None  # trunk pre-activations per row
    h_rows: np.ndarray = None


def _param(state, role):
    """p(name) is the role's array under its full key, e.g. p("net.w1") is
    arrays["pos_net.w1"] for the positive role."""
    prefix = "pos_" if role == "positive" else "neg_"
    return lambda name: state.arrays[prefix + name]


def _forward_image(state, bank, v):
    """Transform the whole bank for one image, keeping backprop caches."""
    caches = []
    for role, c in (("positive", bank.pos), ("negative", bank.neg)):
        if c.shape[0] == 0:
            continue
        p = _param(state, role)
        if state.mode == "mlp":
            z_rows = c @ p("net.w1").T + p("net.b1")
            h_rows = np.maximum(z_rows, 0.0)
            u = c + h_rows @ p("net.w_beta").T + p("net.b_beta")
            cache = _RoleCache(role=role, c=c, cp=None, norms=None,
                               z_rows=z_rows, h_rows=h_rows)
        else:
            z = h = None
            if state.mode == "const_shift":
                a = np.ones(state.dim)
                b = np.full(state.dim, p("head.beta")[0])
            else:
                z = p("net.w1") @ v + p("net.b1")
                h = np.maximum(z, 0.0)
                if state.mode == "vec_shift":
                    a = np.ones(state.dim)
                    b = p("head.beta") + (p("net.w_beta") @ h + p("net.b_beta"))
                else:  # scale_shift
                    a = p("head.alpha") + (p("net.w_alpha") @ h + p("net.b_alpha"))
                    b = p("head.beta") + (p("net.w_beta") @ h + p("net.b_beta"))
            u = a * c + b
            cache = _RoleCache(role=role, c=c, cp=None, norms=None, a=a, z=z, h=h)
        norms = np.sqrt(np.sum(u * u, axis=1))
        if np.any(norms <= 1e-12):
            raise ZeroNorm("transform produced a zero vector during backward")
        cache.norms = norms
        cache.cp = u / norms[:, None]
        caches.append(cache)
    rows = np.vstack([cc.cp for cc in caches])
    return rows, caches


def _backprop_transform(state, caches, grad_rows, v, grads):
    """Accumulate dL/dparams given dL/d(tuned rows)."""
    offset = 0
    for cache in caches:
        k = cache.c.shape[0]
        g = grad_rows[offset : offset + k]
        offset += k
        # through L2 normalization: (I - cp cp^T) / ||u||
        gu = (g - np.sum(g * cache.cp, axis=1, keepdims=True) * cache.cp)
        gu = gu / cache.norms[:, None]
        prefix = "pos" if cache.role == "positive" else "neg"
        p = _param(state, cache.role)
        if state.mode == "mlp":
            grads[f"{prefix}_net.w_beta"] += gu.T @ cache.h_rows
            grads[f"{prefix}_net.b_beta"] += gu.sum(axis=0)
            dz = (gu @ p("net.w_beta")) * (cache.z_rows > 0)
            grads[f"{prefix}_net.w1"] += dz.T @ cache.c
            grads[f"{prefix}_net.b1"] += dz.sum(axis=0)
            continue
        db = gu.sum(axis=0)
        if state.mode == "const_shift":
            grads[f"{prefix}_head.beta"][0] += float(db.sum())
            continue
        grads[f"{prefix}_head.beta"] += db
        grads[f"{prefix}_net.w_beta"] += np.outer(db, cache.h)
        grads[f"{prefix}_net.b_beta"] += db
        dh = p("net.w_beta").T @ db
        if state.mode == "scale_shift":
            da = np.sum(gu * cache.c, axis=0)
            grads[f"{prefix}_head.alpha"] += da
            grads[f"{prefix}_net.w_alpha"] += np.outer(da, cache.h)
            grads[f"{prefix}_net.b_alpha"] += da
            dh = dh + p("net.w_alpha").T @ da
        dz = dh * (cache.z > 0)
        grads[f"{prefix}_net.w1"] += np.outer(dz, v)
        grads[f"{prefix}_net.b1"] += dz


def backward(state, bank, batch, cfg):
    """Loss report plus analytic gradients of the total loss."""
    _validate_cfg(cfg)
    _validate_batch(bank, batch)
    tau = cfg.tau_loss
    check_tau("tau_loss", tau)
    n = bank.n_pos
    rows0 = bank.rows()
    k = rows0.shape[0]
    grads = zero_gradients(state)

    n_kr = batch.n_pos + (batch.n_neg if cfg.kr_scope == "both" else 0)
    w_kr = cfg.lambda2 / n_kr if n_kr else 0.0

    l_pos_sum = 0.0
    l_neg_sum = 0.0
    kr_sum = 0.0

    samples = [
        ("pos", batch.pos_features[i], int(batch.pos_labels[i]))
        for i in range(batch.n_pos)
    ] + [("neg", batch.neg_features[i], None) for i in range(batch.n_neg)]

    for kind, v, y in samples:
        v = as_f64(v)
        rows, caches = _forward_image(state, bank, v)
        s = rows @ v
        logits = s / tau
        ds = np.zeros(k)
        g_rows = np.zeros((k, rows.shape[1]))
        in_scope = kind == "pos" or cfg.kr_scope == "both"

        if kind == "pos":
            if not 0 <= y < n:
                raise BadClassIndex(f"class index {y} outside [0, {n})")
            lse = logsumexp(logits)
            l_pos_sum += lse - logits[y]
            p = np.exp(logits - lse)
            dl = p.copy()
            dl[y] -= 1.0
            ds += (1.0 / batch.n_pos) * dl / tau
        else:
            if bank.n_neg == 0:
                raise NoNegativeLabels("negative sample with no negative labels")
            lse_id = logsumexp(logits[:n])
            lse_all = logsumexp(logits)
            l_neg_sum += lse_id - lse_all
            p = np.exp(logits - lse_all)
            dl = -p
            dl[:n] += np.exp(logits[:n] - lse_id)
            ds += (cfg.lambda1 / batch.n_neg) * dl / tau

        if in_scope:
            if cfg.kr_variant == "feature":
                kr_sum += float(np.mean(1.0 - np.sum(rows0 * rows, axis=1)))
                g_rows += (-w_kr / k) * rows0
            elif cfg.kr_variant == "logits":
                t0 = rows0 @ v
                gap = s - t0
                kr_sum += float(np.mean(gap * gap))
                ds += w_kr * 2.0 * gap / k
            else:  # prob
                p0 = stable_softmax(rows0 @ v)
                log_q = s - logsumexp(s)
                kr_sum += float(-np.sum(p0 * log_q))
                q = np.exp(log_q)
                ds += w_kr * (q - p0)

        g_rows += ds[:, None] * v
        _backprop_transform(state, caches, g_rows, v, grads)

    l_pos = l_pos_sum / batch.n_pos if batch.n_pos else 0.0
    l_neg = l_neg_sum / batch.n_neg if batch.n_neg else 0.0
    l_kr = kr_sum / n_kr if n_kr else 0.0
    report = LossReport(
        l_pos=float(l_pos),
        l_neg=float(l_neg),
        l_kr=float(l_kr),
        total=float(l_pos + cfg.lambda1 * l_neg + cfg.lambda2 * l_kr),
        n_pos=batch.n_pos,
        n_neg=batch.n_neg,
    )
    return report, grads
