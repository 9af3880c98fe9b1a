"""Per-crop-set references for `mining`'s batched selection and `synth_dataset`.

`oracle_select` ranks one crop set with Python's `sorted`, ties by ascending
row index, and draws the bottom rows from those left after the top ones.
`oracle_training_set` copies each selected crop one row at a time.
`oracle_synth` is the former `synth_dataset`: each crop set's foreground
and background crops are drawn, perturbed, normalized and stacked on their
own, its D_p/D_n come from `oracle_select`, and its manifest records are
numbered here, not by `data_io`. None of them calls `mining`'s selection
kernel.
"""

from dataclasses import dataclass

import numpy as np

from nft_ood.mining import CropSet
from nft_ood.model import FeatureBank, TrainingSet
from nft_ood.numerics import normalize_rows


def oracle_select(features, label_feature, q):
    sims = features @ label_feature
    by_desc = sorted(range(len(sims)), key=lambda i: (-sims[i], i))
    top = sorted(by_desc[:q])
    rest = [i for i in range(len(sims)) if i not in set(top)]
    by_asc = sorted(rest, key=lambda i: (sims[i], i))
    bottom = sorted(by_asc[:q])
    return np.array(top, dtype=int), np.array(bottom, dtype=int)


def oracle_training_set(crop_sets, label_rows, q):
    """D_p features, D_p labels and D_n features, each selected crop copied one row at a time."""
    pos_feats = []
    pos_labels = []
    neg_feats = []
    for cs in crop_sets:
        top, bottom = oracle_select(cs.features, label_rows[cs.label_index], q)
        for i in top:
            pos_feats.append(cs.features[i])
            pos_labels.append(cs.label_index)
        for i in bottom:
            neg_feats.append(cs.features[i])
    dim = label_rows.shape[1]
    return (np.array(pos_feats).reshape(-1, dim), np.array(pos_labels, dtype=int),
            np.array(neg_feats).reshape(-1, dim))


def _noisy(rng, protos, kappa):
    return normalize_rows(protos + kappa * rng.standard_normal(protos.shape))


@dataclass
class OracleSynth:
    """`SynthResult`'s parts and manifest records, and the crop sets D_p/D_n came from."""
    bank: FeatureBank
    training: TrainingSet
    test_id: np.ndarray
    test_ood: np.ndarray
    test_id_classes: np.ndarray
    records: list
    crop_sets: list


def _records(parts):
    """Manifest records of parts (role, id prefix, per-row extra keys), numbered row by row."""
    rows = [(role, f"{prefix}_{i}", extra)
            for role, prefix, extras in parts for i, extra in enumerate(extras)]
    return [dict(row=row, id=rid, role=role, **extra)
            for row, (role, rid, extra) in enumerate(rows)]


def oracle_synth(cfg):
    """`synth_dataset(cfg)` with a Python loop over the crop sets."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(cfg.seed)))
    d, n, m = cfg.dim, cfg.n_classes, cfg.m_neg
    pos_proto = normalize_rows(rng.standard_normal((n, d)))
    neg_proto = normalize_rows(rng.standard_normal((m, d)))

    crop_sets = []
    n_bg = int(round(cfg.crops_per_sample * cfg.background_fraction))
    n_fg = cfg.crops_per_sample - n_bg
    for c in range(n):
        for s in range(cfg.shots):
            fg = _noisy(rng, pos_proto[np.full(n_fg, c)], cfg.kappa)
            bg = _noisy(rng, neg_proto[rng.integers(0, m, size=n_bg)], cfg.kappa)
            crop_sets.append(CropSet(f"train_{c}_{s}", c, np.vstack([fg, bg])))
    pos, labels, neg = oracle_training_set(crop_sets, pos_proto, cfg.select)

    test_id_classes = np.repeat(np.arange(n), cfg.n_test_per_class)
    test_id = _noisy(rng, pos_proto[test_id_classes], cfg.kappa)
    test_ood = _noisy(rng, neg_proto[rng.integers(0, m, size=cfg.n_test_ood)], cfg.kappa)
    records = _records([
        ("pos_label", "pos", [{"class": c} for c in range(n)]),
        ("neg_label", "neg", [{}] * m),
        ("train_pos", "train_pos", [{"class": int(c)} for c in labels]),
        ("train_neg", "train_neg", [{}] * len(neg)),
        ("test_id", "test_id", [{"class": int(c)} for c in test_id_classes]),
        ("test_ood", "test_ood", [{}] * cfg.n_test_ood),
    ])
    return OracleSynth(
        bank=FeatureBank.from_rows(pos_proto, neg_proto),
        training=TrainingSet(pos_features=pos, pos_labels=labels, neg_features=neg),
        test_id=test_id, test_ood=test_ood, test_id_classes=test_id_classes,
        records=records, crop_sets=crop_sets,
    )
