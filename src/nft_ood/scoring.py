"""OOD score functions (MCM, NegLabel, tuned NegLabel) and evaluation metrics."""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimMismatch, EmptyBank, EmptyInput, NoNegativeLabels, NonPositiveInput
from .model import (_BLOCK_ROWS, IMAGE_INDEPENDENT_MODES, ROLES, FeatureBank, _tune_block,
                    flat_buffer, role_terms, transform_bank)
from .numerics import as_f64, check_tau, sigmoid


@dataclass
class MetricReport:
    auroc: float
    fpr95: float
    n_id: int
    n_ood: int
    threshold_at_95tpr: float

    def to_dict(self):
        return {
            "auroc": self.auroc,
            "fpr95": self.fpr95,
            "n_id": self.n_id,
            "n_ood": self.n_ood,
            "threshold": self.threshold_at_95tpr,
        }


# cosines per image block of the scoring walk: bounds the (b, K) block and its
# reduction temporaries, whatever the image count
_BLOCK_ELEMS = 2**16
# sorted ID scores per chunk of the AUROC count: bounds its temporaries,
# whatever the score count
_AUROC_CHUNK = 2**16


def _image_rows(images, dim, single=False):
    """images as finite (n, dim) float64 rows: one (dim,) image, or unless single an (n, dim)
    stack. Every score call checks its images here, before its first image is scored."""
    images = as_f64(images)
    if images.shape[-1:] != (dim,) or images.ndim > (1 if single else 2):
        raise DimMismatch(f"image features of shape {images.shape} do not match bank width {dim}")
    return images.reshape(-1, dim)


def _logsumexp_rows(x):
    """log(sum(exp(row))) of each row of x: its max m plus the log of the sum of
    exp(row - m); a one-entry row is its own value, exactly, since log(exp(0)) is 0."""
    m = np.max(x, axis=1)
    s = np.sum(np.exp(x - m[:, None]), axis=1)
    return [a + math.log(b) for a, b in zip(m.tolist(), s.tolist())]


def _neglabel_block(cos, n_pos, tau_score):
    # the NaN/Inf check of a caller's rows and of cos / tau, which a tiny tau overflows
    x = as_f64(cos / tau_score)
    pos, neg = _logsumexp_rows(x[:, :n_pos]), _logsumexp_rows(x[:, n_pos:])
    return [sigmoid(p - q) for p, q in zip(pos, neg)]


def _mcm_block(cos, tau):
    """Max softmax probability per row: e = exp(x - max(x)) with x = cos / tau.

    max(e) / sum(e) equals the max of the softmax e / sum(e) bit for bit,
    because rounded division by a positive number is monotone.
    """
    x = as_f64(cos / tau)  # NaN/Inf check: cos / tau overflows on rows of large norm
    e = np.exp(x - np.max(x, axis=1)[:, None])
    return (np.max(e, axis=1) / np.sum(e, axis=1)).tolist()


def _scores(images, rows, reduce, state=None, n_pos=0):
    """Scores of each image, in input order: reduce scores each (b, K) block of their
    cosines with the K bank rows.

    Every cosine, plain or tuned, is one matrix-vector product per block of
    _BLOCK_ROWS rows, since a product over part of the rows can differ in the
    last bits from one over all of them. Given a state, each block is first
    tuned into one block-sized scratch (_tune_block, with the image's (a, b)
    and the first n_pos rows positive) and its cosines taken while it is
    still in cache: no tuned bank is built. It checks nothing: the score call
    has checked widths, bank parts and finite parameters before its first
    image, so a tuned row is finite or _tune_block raises. An Inf cosine (an
    image of overflowing norm) is left to the reduction's check.
    """
    n, k = images.shape[0], rows.shape[0]
    spans = [(r, min(r + _BLOCK_ROWS, k)) for r in range(0, k, _BLOCK_ROWS)]
    if state is not None:
        tuned, sq = np.empty((2, min(_BLOCK_ROWS, k), rows.shape[1]))
    b = max(1, _BLOCK_ELEMS // k)
    cos = np.empty((min(b, n), k))
    scores = []
    for start in range(0, n, b):
        block = cos[: min(b, n - start)]
        for v, c in zip(images[start : start + b], block):
            if state is not None:
                terms = [role_terms(state, role, v)[:2] for role in ROLES]
            for r, e in spans:
                if state is not None:
                    _tune_block(rows, n_pos, terms, r, e, tuned, sq)
                np.dot(rows[r:e] if state is None else tuned[: e - r], v, out=c[r:e])
        scores += reduce(block)
    return np.array(scores)


def _score_one(v, method, bank, state=None, tau_score=1.0):
    """score_many of the one (dim,) image v, as a float."""
    v = _image_rows(v, bank.dim, single=True)
    return float(score_many(v, method, bank, state=state, tau_score=tau_score)[0])


def score_neglabel(v, bank_rows, n_pos, tau_score=1.0):
    """sigmoid(logsumexp(pos cosines / tau) - logsumexp(neg cosines / tau)).

    Algebraically identical to the ratio of exponentiated positive
    similarities to the total over positive plus negative labels. The first
    n_pos of bank_rows are positive; the rows are scored as given, not copied
    or normalized.
    """
    bank = FeatureBank(matrix=np.asarray(bank_rows, dtype=np.float64), n_pos=n_pos)
    return _score_one(v, "neglabel", bank, tau_score=tau_score)


def score_mcm(v, pos_rows, tau=1.0):
    """Maximum softmax probability over positive label similarities, as given."""
    rows = np.asarray(pos_rows, dtype=np.float64)
    return _score_one(v, "mcm", FeatureBank(matrix=rows, n_pos=rows.shape[0]), tau_score=tau)


def score_krnft(state, v, bank, tau_score=1.0):
    """NegLabel score on the image-conditionally tuned bank."""
    return _score_one(v, "krnft", bank, state=state, tau_score=tau_score)


def score_many(images, method, bank, state=None, tau_score=1.0):
    """Score each row of images; output order follows input order.

    The call is checked once, before its first image, so that no image
    count hides a fault: images, method, state, tau, the bank's parts, then
    krnft's model width and finite parameters. Every score then comes from
    the one walk, _scores, which tunes krnft's bank block by block, except
    in the image-independent modes: their one tuned bank (transform_bank)
    serves every image. The per-image score_* calls are this call on one
    image; krnft's transform_bank + score_neglabel equals it bit for bit.
    """
    images = _image_rows(images, bank.dim)
    if method not in ("mcm", "neglabel", "krnft"):
        raise EmptyInput(f"unknown scoring method {method!r}")
    if method == "krnft" and state is None:
        raise EmptyInput("krnft scoring requires a model state")
    check_tau("tau_score", tau_score)
    if bank.n_pos < 1:
        raise EmptyBank("need at least one positive label row")
    if method != "mcm" and bank.n_neg < 1:
        raise NoNegativeLabels("NegLabel score requires negative label rows")
    if method == "mcm":
        return _scores(images, bank.pos, partial(_mcm_block, tau=tau_score))
    reduce = partial(_neglabel_block, n_pos=bank.n_pos, tau_score=tau_score)
    if method == "neglabel":
        return _scores(images, bank.rows(), reduce)
    if state.dim != bank.dim:
        raise DimMismatch("bank, model and image feature dimensions must agree")
    as_f64(flat_buffer(state.arrays, state.arrays))  # NaN/Inf parameters
    if state.mode in IMAGE_INDEPENDENT_MODES:  # the tuned bank ignores the image: one serves all
        return _scores(images, transform_bank(state, bank, np.zeros(bank.dim)), reduce)
    return _scores(images, bank.rows(), reduce, state, bank.n_pos)


def _sorted_sides(id_scores, ood_scores, tpr=None):
    """Both score sets validated (and tpr, if given), flattened and sorted ascending."""
    id_scores = as_f64(id_scores).reshape(-1)
    ood_scores = as_f64(ood_scores).reshape(-1)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise EmptyInput("ID and OOD score sets must be non-empty")
    if tpr is not None and not 0 < tpr <= 1:
        raise NonPositiveInput(f"tpr must be in (0, 1], got {tpr}")
    return np.sort(id_scores), np.sort(ood_scores)


def _auroc_sorted(id_sorted, ood_sorted):
    # each distinct value of a chunk is searched once, weighted by its count;
    # only values that occur among the OOD scores are searched again for ties
    wins = ties = 0
    last = ood_sorted.size - 1
    for start in range(0, id_sorted.size, _AUROC_CHUNK):
        chunk = id_sorted[start : start + _AUROC_CHUNK]
        starts = np.flatnonzero(np.concatenate(([True], chunk[1:] != chunk[:-1])))
        values, counts = chunk[starts], np.diff(starts, append=chunk.size)
        lo = np.searchsorted(ood_sorted, values, side="left")
        wins += int(lo @ counts)
        hit = ood_sorted[np.minimum(lo, last)] == values
        if hit.any():
            hi = np.searchsorted(ood_sorted, values[hit], side="right")
            ties += int((hi - lo[hit]) @ counts[hit])
    return (wins + 0.5 * ties) / (id_sorted.size * ood_sorted.size)


def _fpr_sorted(id_sorted, ood_sorted, tpr):
    n = id_sorted.size
    c = max(int(math.ceil(tpr * n - 1e-9)), 1)
    threshold = float(id_sorted[n - c])
    above = ood_sorted.size - int(np.searchsorted(ood_sorted, threshold, side="left"))
    return above / ood_sorted.size, threshold


def auroc(id_scores, ood_scores):
    """Probability a random ID score exceeds a random OOD score; ties count 0.5.

    Both sides are sorted; wins and ties are counted per chunk of 2**16 ID
    scores with one left search of the OOD scores per distinct value and a
    right search only where that value occurs among them, so memory beyond
    the sorted copies is chunk-sized. O(n log n) and exact: (wins + 0.5 *
    ties) is a half-integer, exact in float64 while n_id * n_ood < 2**53.
    """
    return _auroc_sorted(*_sorted_sides(id_scores, ood_scores))


def fpr_at_tpr(id_scores, ood_scores, tpr=0.95):
    """FPR at the tightest threshold admitting at least tpr of the ID scores.

    The threshold is the c-th largest ID score with c = ceil(tpr * n_id), at
    least 1; samples scoring exactly the threshold count as detected-ID.
    Sort + searchsorted, O(n log n) and exact.
    """
    return _fpr_sorted(*_sorted_sides(id_scores, ood_scores, tpr), tpr)


def hmean(a, b):
    """Harmonic mean 2ab / (a + b) of two finite positive numbers."""
    if not (0 < a < math.inf and 0 < b < math.inf):  # also rejects NaN
        raise NonPositiveInput("harmonic mean requires finite positive inputs")
    return 2.0 * a * b / (a + b)


def evaluate(id_scores, ood_scores, tpr=0.95):
    """auroc and fpr_at_tpr from one sort of each side: O(n log n), exact; auroc's
    chunked counts keep memory beyond the two sorted copies chunk-sized."""
    id_sorted, ood_sorted = _sorted_sides(id_scores, ood_scores, tpr)
    fpr, threshold = _fpr_sorted(id_sorted, ood_sorted, tpr)
    return MetricReport(
        auroc=_auroc_sorted(id_sorted, ood_sorted),
        fpr95=fpr,
        n_id=id_sorted.size,
        n_ood=ood_sorted.size,
        threshold_at_95tpr=threshold,
    )
