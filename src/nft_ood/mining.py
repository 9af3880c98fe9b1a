"""Negative-label mining and outlier training-sample selection.

Candidates far from the ID labels become negative labels; image crops (or
local features) are ranked by similarity to their class text feature, the top
rows feed the positive training set and the bottom rows the negative one.
All tie-breaks are by ascending original index, for determinism.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, InvalidConfig, QTooLarge, TooFewCandidates
from .model import TrainingSet
from .numerics import as_f64


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
    feats = as_f64(lexicon.features)
    id_rows = as_f64(id_bank_pos)
    if feats.shape[1] != id_rows.shape[1]:
        raise DimMismatch("lexicon and ID bank dimensions differ")
    if m > feats.shape[0]:
        raise TooFewCandidates(
            f"requested {m} negatives from {feats.shape[0]} candidates"
        )
    sims = feats @ id_rows.T  # rows are unit-norm, so dot == cosine
    if stat == "max":
        statistic = np.max(sims, axis=1)
    elif stat == "quantile":
        if quantile is None or not 0 <= quantile <= 1:
            raise TooFewCandidates(f"quantile level must be in [0, 1], got {quantile}")
        statistic = np.quantile(sims, quantile, axis=1)
    else:
        raise TooFewCandidates(f"unknown mining statistic {stat!r}")
    # stable sort keeps ascending-index order among ties
    return np.argsort(statistic, kind="mergesort")[:m]


def select_outliers(crops, label_feature, q):
    """Top-q and bottom-q crops by cosine similarity to the label feature.

    The index sets are always disjoint: the bottom set is drawn from the rows
    left after removing the top set, so massive ties cannot select a row twice.
    """
    if q < 1:
        raise InvalidConfig(f"need q >= 1 crops per side, got q={q}")
    feats = as_f64(crops.features)
    label_feature = as_f64(label_feature)
    p = feats.shape[0]
    if 2 * q > p:
        raise QTooLarge(f"need 2q <= P for disjoint selections, got q={q}, P={p}")
    if feats.shape[1] != label_feature.shape[0]:
        raise DimMismatch("crop features and label feature dimensions differ")
    sims = feats @ label_feature
    desc = np.argsort(-sims, kind="mergesort")
    top = np.sort(desc[:q])
    remaining = np.setdiff1d(np.arange(p), top)
    asc = remaining[np.argsort(sims[remaining], kind="mergesort")]
    bottom = np.sort(asc[:q])
    return SelectionResult(top_indices=top, bottom_indices=bottom)


def build_training_set(crop_sets, label_rows, q):
    """The paper's D_p and D_n: of each crop set, the q crops most similar to
    label_rows[label_index] (each with that class) and the q least similar.

    Rows follow the crop-set order; one parent may hold crops of several
    classes, one crop set per class. No crop sets give empty sets of width D.
    """
    dim = label_rows.shape[1]
    pos, labels, neg = [np.empty((0, dim))], [np.empty(0, dtype=int)], [np.empty((0, dim))]
    for cs in crop_sets:
        sel = select_outliers(cs, label_rows[cs.label_index], q)
        pos.append(cs.features[sel.top_indices])
        labels.append(np.full(q, cs.label_index, dtype=int))
        neg.append(cs.features[sel.bottom_indices])
    return TrainingSet(
        pos_features=np.concatenate(pos),
        pos_labels=np.concatenate(labels),
        neg_features=np.concatenate(neg),
    )
