"""Negative-label mining and outlier training-sample selection.

Candidates far from the ID labels become negative labels; image crops (or
local features) are ranked by similarity to their class text feature, the top
rows feed the positive training set and the bottom rows the negative one.
All tie-breaks are by ascending original index, for determinism.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, InvalidConfig, NonFiniteInput, QTooLarge, TooFewCandidates
from .model import TrainingSet
from .numerics import as_f64

_BLOCK_ELEMS = 2**20  # cosines per candidate block of mine_negative_labels


@dataclass
class CandidateLexicon:
    features: np.ndarray  # (rows, D), unit-norm
    names: list

    def __post_init__(self):
        if len(self.names) != self.features.shape[0]:
            raise DimMismatch("lexicon name count does not match feature rows")
        if len(set(self.names)) != len(self.names):
            raise DimMismatch("duplicate candidate names in lexicon")


@dataclass
class CropSet:
    parent_id: str
    label_index: int
    features: np.ndarray  # (P, D), unit-norm


@dataclass
class SelectionResult:
    top_indices: np.ndarray
    bottom_indices: np.ndarray


def mine_negative_labels(lexicon, id_bank_pos, m, stat="max", quantile=None):
    """Indices of the m candidates least similar to the ID label features.

    stat is 'max' (max cosine to any ID feature) or 'quantile' with the q
    level given by `quantile`. Ties are broken by ascending candidate index.
    """
    if m < 1:
        raise InvalidConfig(f"need m >= 1 negative labels, got m={m}")
    if stat not in ("max", "quantile"):
        raise InvalidConfig(f"unknown mining statistic {stat!r}")
    if stat == "quantile" and (quantile is None or not 0 <= quantile <= 1):
        raise InvalidConfig(f"quantile level must be in [0, 1], got {quantile}")
    feats = as_f64(lexicon.features)
    id_rows = as_f64(id_bank_pos)
    if feats.shape[1] != id_rows.shape[1]:
        raise DimMismatch("lexicon and ID bank dimensions differ")
    if m > feats.shape[0]:
        raise TooFewCandidates(
            f"requested {m} negatives from {feats.shape[0]} candidates"
        )
    b = max(1, _BLOCK_ELEMS // max(id_rows.shape[0], 1))
    blocks = (feats[i:i + b] @ id_rows.T for i in range(0, feats.shape[0], b))  # cosines
    if stat == "max":
        statistic = np.concatenate([np.max(sims, axis=1) for sims in blocks])
    else:
        statistic = np.concatenate([np.quantile(sims, quantile, axis=1) for sims in blocks])
    # stable sort keeps ascending-index order among ties
    return np.argsort(statistic, kind="mergesort")[:m]


def _select(crop_sets, label_feats, q):
    """The crop sets' features stacked, and the (sets, q) ascending row indices into
    them of each set's q crops most and q least similar to its label_feats row. NaN,
    which sorts last, pads the similarity rows and masks the top picks for the bottom
    sort, so padding is never picked and stable sorts break ties by ascending row."""
    if q < 1:
        raise InvalidConfig(f"need q >= 1 crops per side, got q={q}")
    label_feats = as_f64(label_feats)
    dim = label_feats.shape[-1]
    for cs in crop_sets:
        if 2 * q > len(cs.features):
            raise QTooLarge(f"crop set of parent {cs.parent_id!r}, class {cs.label_index}: need "
                            f"2q <= P for disjoint selections, got q={q}, P={len(cs.features)}")
        if np.shape(cs.features)[1:] != (dim,):
            raise DimMismatch("crop features and label feature dimensions differ")
    feats = as_f64(np.concatenate([cs.features for cs in crop_sets] or [np.empty((0, dim))]))
    bounds = np.cumsum([0] + [len(cs.features) for cs in crop_sets])
    sims = np.full((len(crop_sets), np.diff(bounds).max(initial=0)), np.nan)
    for i, (a, b) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        sims[i, :b - a] = feats[a:b] @ label_feats[i]
    # a NaN similarity (overflowing products) would sort among the masks and padding
    if np.count_nonzero(np.isnan(sims)) != sims.size - bounds[-1]:
        raise NonFiniteInput("crop similarities contain NaN")
    top = np.sort(np.argsort(-sims, axis=1, kind="stable")[:, :q], axis=1)
    np.put_along_axis(sims, top, np.nan, axis=1)
    bottom = np.sort(np.argsort(sims, axis=1, kind="stable")[:, :q], axis=1)
    return feats, top + bounds[:-1, None], bottom + bounds[:-1, None]


def select_outliers(crops, label_feature, q):
    """Top-q and bottom-q crops by cosine similarity to the label feature.

    The index sets are always disjoint: the bottom set is drawn from the rows
    left after removing the top set, so massive ties cannot select a row twice.
    """
    _, top, bottom = _select([crops], np.asarray(label_feature)[None], q)
    return SelectionResult(top_indices=top[0], bottom_indices=bottom[0])


def build_training_set(crop_sets, label_rows, q):
    """The paper's D_p and D_n: of each crop set, the q crops most similar to
    label_rows[label_index] (each with that class) and the q least similar.

    Rows follow the crop-set order; one parent may hold crops of several
    classes, one crop set per class. No crop sets give empty sets of width D.
    """
    classes = np.array([cs.label_index for cs in crop_sets], dtype=int)
    feats, top, bottom = _select(crop_sets, label_rows[classes], q)
    return TrainingSet(pos_features=feats[top.ravel()], pos_labels=np.repeat(classes, q),
                       neg_features=feats[bottom.ravel()])
