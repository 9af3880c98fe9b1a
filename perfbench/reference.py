"""Independent numpy references for the outputs the benchmark checks.

None of these call into `nft_ood`; they restate the documented formulas in
batched form so that a wrong or reordered library result shows up as a
mismatch rather than as a speed-up.
"""

import math

import numpy as np


def _lse(x):
    m = np.max(x, axis=1)
    return m + np.log(np.sum(np.exp(x - m[:, None]), axis=1))


def _sigmoid(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def mcm(images, pos, tau):
    """Maximum softmax probability over positive-label cosines, per image."""
    z = images @ pos.T / tau
    return 1.0 / np.sum(np.exp(z - np.max(z, axis=1)[:, None]), axis=1)


def neglabel(images, pos, neg, tau):
    """sigmoid(lse(pos cosines / tau) - lse(neg cosines / tau)), per image."""
    return _sigmoid(_lse(images @ pos.T / tau) - _lse(images @ neg.T / tau))


def _tuned_cosines(images, rows, params, head, net):
    """Cosines of images with the scale_shift-tuned rows, without materializing them.

    With u = a*c + b per image: v.u = (a*v).c + b.v and
    |u|^2 = (a*a).(c*c) + 2 (a*b).c + |b|^2.
    """
    h = np.maximum(images @ params[f"{net}.w1"].T + params[f"{net}.b1"], 0.0)
    a = params[f"{head}.alpha"] + h @ params[f"{net}.w_alpha"].T + params[f"{net}.b_alpha"]
    b = params[f"{head}.beta"] + h @ params[f"{net}.w_beta"].T + params[f"{net}.b_beta"]
    vu = (a * images) @ rows.T + np.sum(b * images, axis=1)[:, None]
    uu = (a * a) @ (rows * rows).T + 2.0 * (a * b) @ rows.T + np.sum(b * b, axis=1)[:, None]
    return vu / np.sqrt(uu)


def krnft_scale_shift(images, pos, neg, params, tau):
    """NegLabel score on the image-conditionally tuned bank, scale_shift mode."""
    cp = _tuned_cosines(images, pos, params, "pos_head", "pos_net")
    cn = _tuned_cosines(images, neg, params, "neg_head", "neg_net")
    return _sigmoid(_lse(cp / tau) - _lse(cn / tau))


def auroc(id_scores, ood_scores):
    """Wins plus half ties over all ID/OOD pairs, counted with searchsorted."""
    ood_sorted = np.sort(ood_scores)
    below = np.searchsorted(ood_sorted, id_scores, side="left")
    at_or_below = np.searchsorted(ood_sorted, id_scores, side="right")
    wins = int(np.sum(below))
    ties = int(np.sum(at_or_below - below))
    return (wins + 0.5 * ties) / (id_scores.size * ood_scores.size)


def fpr_at_tpr(id_scores, ood_scores, tpr=0.95):
    """Threshold at the ceil(tpr*n)-th largest ID score; share of OOD at or above it."""
    n = id_scores.size
    c = int(math.ceil(tpr * n - 1e-9))
    threshold = float(np.sort(id_scores)[n - c])
    above = ood_scores.size - int(np.searchsorted(np.sort(ood_scores), threshold, side="left"))
    return above / ood_scores.size, threshold
