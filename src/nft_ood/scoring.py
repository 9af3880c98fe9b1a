"""OOD score functions (MCM, NegLabel, tuned NegLabel) and evaluation metrics."""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimMismatch, EmptyBank, EmptyInput, NoNegativeLabels, NonPositiveInput
from .model import (_BLOCK_ROWS, IMAGE_INDEPENDENT_MODES, ROLES, _tune_rows, flat_buffer,
                    role_terms, transform_bank)
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


# cosines per block of score_many: bounds the (b, K) block and its reduction
# temporaries, whatever the image count
_BLOCK_ELEMS = 2**16
# sorted ID scores per chunk of the AUROC count: bounds its temporaries,
# whatever the score count
_AUROC_CHUNK = 2**16


def _check_bank(n_pos, n_neg=None):
    """A score call's check, before any image, of its bank's parts (negative ones unless MCM)."""
    if n_pos < 1:
        raise EmptyBank("need at least one positive label row")
    if n_neg is not None and n_neg < 1:
        raise NoNegativeLabels("NegLabel score requires negative label rows")


def _image_rows(images, dim, single=False):
    """images as finite (n, dim) float64 rows: one (dim,) image, or unless single an (n, dim)
    stack. Every score call checks its images here, before its first image is scored."""
    images = as_f64(images)
    if images.shape[-1:] != (dim,) or images.ndim > (1 if single else 2):
        raise DimMismatch(f"image features of shape {images.shape} do not match bank width {dim}")
    return images.reshape(-1, dim)


def _grid_cosines(rows):
    """cosines(v, c) writing rows @ v into c, one matrix-vector product per block of
    _BLOCK_ROWS rows: every cosine, plain or tuned, comes from this one grid, since a
    product over part of the rows can differ in the last bits from one over all of them."""
    if rows.shape[0] <= _BLOCK_ROWS:  # one block: no per-image loop, which small banks would feel
        return partial(np.dot, rows)

    def cosines(v, c):
        for r in range(0, rows.shape[0], _BLOCK_ROWS):
            np.dot(rows[r : r + _BLOCK_ROWS], v, out=c[r : r + _BLOCK_ROWS])

    return cosines


def _tuned_cosines(state, bank):
    """cosines(v, c) writing the cosines of v with its tuned bank into c.

    The tuned bank is never built: each block of the grid is tuned into one
    block-sized scratch, one _tune_rows call per role's part, and its
    cosines taken while it is still in cache. A block that straddles N tunes
    its two parts with their own role's parameters, computed once per image.
    It checks nothing: score_many has checked the call (widths, bank parts,
    finite parameters) before its first image, so a tuned row is finite or
    _tune_rows raises. An Inf cosine (an image of overflowing norm) is left
    to the reduction's check.
    """
    rows, n = bank.rows(), bank.n_pos
    k = rows.shape[0]
    block = np.empty((min(_BLOCK_ROWS, k), bank.dim))
    sq = np.empty_like(block)

    def cosines(v, c):
        (a_pos, b_pos), (a_neg, b_neg) = (role_terms(state, role, v)[:2] for role in ROLES)
        for r in range(0, k, _BLOCK_ROWS):
            e = min(r + _BLOCK_ROWS, k)
            for lo, hi, a, b in ((r, min(e, n), a_pos, b_pos), (max(r, n), e, a_neg, b_neg)):
                if lo < hi:
                    _tune_rows(rows[lo:hi], a, b, block[lo - r : hi - r], sq)
            np.dot(block[: e - r], v, out=c[r:e])

    return cosines


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


def _blocked_scores(images, k, cosines, reduce):
    """Scores of each image, in input order.

    cosines(v, c) writes the k cosines of image v into c, a row of a (b, k)
    block; reduce then scores the whole block.
    """
    n = images.shape[0]
    b = max(1, _BLOCK_ELEMS // k)
    cos = np.empty((min(b, n), k))
    scores = []
    for start in range(0, n, b):
        block = cos[: min(b, n - start)]
        for v, c in zip(images[start : start + b], block):
            cosines(v, c)
        scores += reduce(block)
    return np.array(scores)


def _score_one(v, rows, reduce):
    return float(_blocked_scores(v, rows.shape[0], _grid_cosines(rows), reduce)[0])


def score_neglabel(v, bank_rows, n_pos, tau_score=1.0):
    """sigmoid(logsumexp(pos cosines / tau) - logsumexp(neg cosines / tau)).

    Algebraically identical to the ratio of exponentiated positive
    similarities to the total over positive plus negative labels.
    """
    rows = np.asarray(bank_rows, dtype=np.float64)
    v = _image_rows(v, rows.shape[-1], single=True)
    check_tau("tau_score", tau_score)
    _check_bank(n_pos, rows.shape[0] - n_pos)
    return _score_one(v, rows, partial(_neglabel_block, n_pos=n_pos, tau_score=tau_score))


def score_mcm(v, pos_rows, tau=1.0):
    """Maximum softmax probability over positive label similarities."""
    rows = np.asarray(pos_rows, dtype=np.float64)
    v = _image_rows(v, rows.shape[-1], single=True)
    check_tau("tau", tau)
    _check_bank(rows.shape[0])
    return _score_one(v, rows, partial(_mcm_block, tau=tau))


def score_krnft(state, v, bank, tau_score=1.0):
    """NegLabel score on the image-conditionally tuned bank: score_many of the one image v."""
    v = _image_rows(v, bank.dim, single=True)
    return float(score_many(v, "krnft", bank, state=state, tau_score=tau_score)[0])


def score_many(images, method, bank, state=None, tau_score=1.0):
    """Score each row of images; output order follows input order.

    The call is checked once, before its first image, so that no image
    count hides a fault: images, method, state, tau, the bank's parts, then
    krnft's model width and finite parameters. Every cosine comes from one
    matrix-vector product per block of 256 bank rows (model._BLOCK_ROWS),
    the grid of score_neglabel and score_mcm too.
    The image-independent krnft modes build their one tuned bank; the
    image-conditional ones build none: each block is tuned into one
    block-sized scratch and its cosines taken at once, and an overflowed
    tuned row raises NumericError. The scores of a block of images are
    reduced together. Results equal the per-image score_* calls, and krnft's
    transform_bank + score_neglabel, bit for bit.
    """
    images = _image_rows(images, bank.dim)
    if method not in ("mcm", "neglabel", "krnft"):
        raise EmptyInput(f"unknown scoring method {method!r}")
    if method == "krnft" and state is None:
        raise EmptyInput("krnft scoring requires a model state")
    check_tau("tau_score", tau_score)
    _check_bank(bank.n_pos, None if method == "mcm" else bank.n_neg)
    if method == "mcm":
        return _blocked_scores(images, bank.n_pos, _grid_cosines(bank.pos),
                               partial(_mcm_block, tau=tau_score))
    rows, k = bank.rows(), bank.n_pos + bank.n_neg  # from_rows rejected NaN and Inf
    reduce = partial(_neglabel_block, n_pos=bank.n_pos, tau_score=tau_score)
    if method == "krnft":
        if state.dim != bank.dim:
            raise DimMismatch("bank, model and image feature dimensions must agree")
        as_f64(flat_buffer(state.arrays, state.arrays))  # NaN/Inf parameters
        if state.mode not in IMAGE_INDEPENDENT_MODES:
            return _blocked_scores(images, k, _tuned_cosines(state, bank), reduce)
        rows = transform_bank(state, bank, np.zeros(bank.dim))  # any image: it is unused
    return _blocked_scores(images, k, _grid_cosines(rows), reduce)


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
