import numpy as np
import pytest

from conftest import unit_rows
from nft_ood import mining
from nft_ood.errors import (
    BadClassIndex,
    DimMismatch,
    EmptyBank,
    InvalidConfig,
    NonFiniteInput,
    QTooLarge,
    TooFewCandidates,
)
from nft_ood.mining import (
    CandidateLexicon,
    CropSet,
    build_training_set,
    mine_negative_labels,
    select_outliers,
)
from selection_reference import oracle_select, oracle_training_set


def lexicon_from(rows, names=None):
    rows = np.asarray(rows, dtype=float)
    if names is None:
        names = [f"cand_{i}" for i in range(rows.shape[0])]
    return CandidateLexicon(features=rows, names=names)


def oracle_mine(features, id_rows, m, stat="max", quantile=None):
    sims = features @ id_rows.T
    if stat == "max":
        statistic = sims.max(axis=1)
    else:
        statistic = np.quantile(sims, quantile, axis=1)
    order = sorted(range(len(statistic)), key=lambda i: (statistic[i], i))
    return np.array(order[:m])


# ---- mining ----


def test_mine_excludes_exact_match():
    id_rows = np.array([[1.0, 0.0, 0.0]])
    lex = lexicon_from([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    picked = mine_negative_labels(lex, id_rows, 2)
    assert set(picked.tolist()) == {1, 2}


def test_mine_tie_break_by_index():
    id_rows = np.array([[1.0, 0.0, 0.0]])
    lex = lexicon_from([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    picked = mine_negative_labels(lex, id_rows, 2)
    assert picked.tolist() == [0, 1]


def test_mine_matches_sort_oracle():
    rng = np.random.default_rng(70)
    feats = unit_rows(rng, 50, 8)
    id_rows = unit_rows(rng, 4, 8)
    lex = lexicon_from(feats)
    got = mine_negative_labels(lex, id_rows, 10)
    assert np.array_equal(got, oracle_mine(feats, id_rows, 10))


def test_mine_quantile_variant():
    rng = np.random.default_rng(71)
    feats = unit_rows(rng, 40, 8)
    id_rows = unit_rows(rng, 6, 8)
    lex = lexicon_from(feats)
    got = mine_negative_labels(lex, id_rows, 12, stat="quantile", quantile=0.75)
    assert np.array_equal(got, oracle_mine(feats, id_rows, 12, "quantile", 0.75))


def test_mine_permutation_invariant_name_set():
    rng = np.random.default_rng(72)
    feats = unit_rows(rng, 30, 8)
    id_rows = unit_rows(rng, 3, 8)
    names = [f"w{i}" for i in range(30)]
    base = mine_negative_labels(lexicon_from(feats, names), id_rows, 8)
    base_names = {names[i] for i in base}
    perm = rng.permutation(30)
    shuffled = mine_negative_labels(
        lexicon_from(feats[perm], [names[i] for i in perm]), id_rows, 8
    )
    assert {[names[i] for i in perm][j] for j in shuffled} == base_names


@pytest.mark.parametrize("stat, quantile", [("max", None), ("quantile", 0.75)])
def test_mine_in_blocks_matches_full_matrix(monkeypatch, stat, quantile):
    # 6 ID rows and 64 cosines per block: 10 candidates a block, the last one short
    monkeypatch.setattr(mining, "_BLOCK_ELEMS", 64)
    rng = np.random.default_rng(69)
    feats = np.round(unit_rows(rng, 57, 4), 1)  # rounded, so statistics tie across blocks
    id_rows = unit_rows(rng, 6, 4)
    got = mine_negative_labels(lexicon_from(feats), id_rows, 20, stat, quantile)
    assert np.array_equal(got, oracle_mine(feats, id_rows, 20, stat, quantile))


def test_mine_validation():
    rng = np.random.default_rng(73)
    lex = lexicon_from(unit_rows(rng, 5, 8))
    id_rows = unit_rows(rng, 2, 8)
    with pytest.raises(TooFewCandidates):
        mine_negative_labels(lex, id_rows, 6)
    with pytest.raises(InvalidConfig):
        mine_negative_labels(lex, id_rows, 2, stat="quantile", quantile=None)
    with pytest.raises(InvalidConfig):
        mine_negative_labels(lex, id_rows, 2, stat="quantile", quantile=1.5)
    with pytest.raises(InvalidConfig):
        mine_negative_labels(lex, id_rows, 2, stat="median")
    with pytest.raises(DimMismatch):
        mine_negative_labels(lex, unit_rows(rng, 2, 4), 2)
    for stat in ("max", "quantile"):  # an empty ID bank once raised a bare ValueError
        with pytest.raises(EmptyBank):
            mine_negative_labels(lex, np.zeros((0, 8)), 2, stat=stat, quantile=0.5)


def test_lexicon_duplicate_names():
    rng = np.random.default_rng(74)
    with pytest.raises(DimMismatch):
        lexicon_from(unit_rows(rng, 2, 4), names=["a", "a"])


@pytest.mark.parametrize("call, needle", [
    pytest.param(lambda rng: lexicon_from(unit_rows(rng, 3, 4), names=["a", "b"]),
                 "name count", id="lexicon-name-count"),
    pytest.param(lambda rng: build_training_set([CropSet("s", 0, unit_rows(rng, 4, 6))],
                                                unit_rows(rng, 1, 4), 1),
                 "crop features and label feature dimensions differ", id="crop-width"),
])
def test_shape_mismatch_is_rejected(call, needle):
    with pytest.raises(DimMismatch, match=needle):
        call(np.random.default_rng(75))


# ---- crop selection ----


def test_select_extremes():
    label = np.array([1.0, 0.0])
    feats = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]])
    sel = select_outliers(CropSet("s", 0, feats), label, 1)
    assert sel.top_indices.tolist() == [1]
    assert sel.bottom_indices.tolist() == [3]


def test_select_all_identical_disjoint_tiebreak():
    feats = np.tile(np.array([[1.0, 0.0]]), (6, 1))
    sel = select_outliers(CropSet("s", 0, feats), np.array([1.0, 0.0]), 2)
    assert sel.top_indices.tolist() == [0, 1]
    assert sel.bottom_indices.tolist() == [2, 3]
    assert not set(sel.top_indices) & set(sel.bottom_indices)


def test_select_matches_sort_oracle_at_paper_scale():
    rng = np.random.default_rng(75)
    feats = unit_rows(rng, 256, 16)
    label = unit_rows(rng, 1, 16)[0]
    sel = select_outliers(CropSet("s", 3, feats), label, 32)
    top, bottom = oracle_select(feats, label, 32)
    assert np.array_equal(sel.top_indices, top)
    assert np.array_equal(sel.bottom_indices, bottom)


def test_select_invariants():
    rng = np.random.default_rng(76)
    for _ in range(20):
        feats = unit_rows(rng, 12, 6)
        label = unit_rows(rng, 1, 6)[0]
        sel = select_outliers(CropSet("s", 0, feats), label, 3)
        sims = feats @ label
        assert not set(sel.top_indices) & set(sel.bottom_indices)
        assert sims[sel.top_indices].min() >= sims[sel.bottom_indices].max() - 1e-12


def test_select_q_too_large():
    rng = np.random.default_rng(77)
    feats = unit_rows(rng, 4, 6)
    with pytest.raises(QTooLarge, match="parent 's', class 0: .* got q=3, P=4"):
        select_outliers(CropSet("s", 0, feats), unit_rows(rng, 1, 6)[0], 3)
    # the error names the first crop set too small, here the second of two
    crop_sets = [CropSet("a", 0, feats), CropSet("b", 1, unit_rows(rng, 3, 6))]
    with pytest.raises(QTooLarge, match="parent 'b', class 1: .* got q=2, P=3"):
        build_training_set(crop_sets, unit_rows(rng, 2, 6), 2)


@pytest.mark.parametrize("cls", [-1, 2])
def test_build_training_set_class_outside_label_rows(cls):
    # -1 once selected against the last label row and returned class -1, 2 (N) raised a
    # bare IndexError; the check runs before selection, which would raise QTooLarge on "a"
    rng = np.random.default_rng(78)
    crop_sets = [CropSet("a", 0, unit_rows(rng, 3, 6)), CropSet("b", cls, unit_rows(rng, 4, 6))]
    with pytest.raises(BadClassIndex, match=f"parent 'b' has class {cls}, not a row of the 2 "):
        build_training_set(crop_sets, unit_rows(rng, 2, 6), 2)


def test_select_nan_similarity_is_rejected():
    # finite features whose products overflow: inf - inf makes a NaN similarity
    feats = np.vstack([np.tile([1e200, -1e200], 2), np.eye(4)[:3]])
    label = np.full(4, 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isnan(feats @ label).any():
            pytest.skip("this BLAS sums the overflowing products to an infinity, not NaN")
        with pytest.raises(NonFiniteInput):
            select_outliers(CropSet("s", 0, feats), label, 1)


# ---- training set assembly ----


def test_build_training_set_minimal():
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    label_rows = np.zeros((6, 2))
    label_rows[5] = [1.0, 0.0]
    ts = build_training_set([CropSet("only", 5, feats)], label_rows, 1)
    assert ts.n_pos == 1 and ts.n_neg == 1
    assert ts.pos_labels.tolist() == [5]
    assert np.array_equal(ts.pos_features[0], feats[0])
    assert np.array_equal(ts.neg_features[0], feats[1])


def test_build_training_set_kq_arithmetic():
    # S=4 shots x N=2 classes -> K=8 samples; Q=2 -> 16 positives
    rng = np.random.default_rng(78)
    label_rows = unit_rows(rng, 2, 8)
    crop_sets = [CropSet(f"img_{c}_{s}", c, unit_rows(rng, 6, 8))
                 for c in range(2) for s in range(4)]
    ts = build_training_set(crop_sets, label_rows, 2)
    assert ts.n_pos == 16
    assert ts.n_neg == 16
    assert sorted(set(ts.pos_labels.tolist())) == [0, 1]


def _synth_shaped(rng):
    # the default synth config: 8 classes x 4 shots of 16 crops, D=32, q=4
    label_rows = unit_rows(rng, 8, 32)
    return [CropSet(f"train_{c}_{s}", c, unit_rows(rng, 16, 32))
            for c in range(8) for s in range(4)], label_rows, 4


def _one_parent_two_classes(rng):
    feats = unit_rows(rng, 10, 8)
    crop_sets = [CropSet("img_0", 0, feats[:4]), CropSet("img_0", 1, feats[4:])]
    return crop_sets, unit_rows(rng, 2, 8), 1


def _no_crop_sets(rng):
    return [], unit_rows(rng, 3, 8), 2


def _sets_of_different_sizes(rng):
    # the shorter sets' similarity rows are padded; padding is never selected
    crop_sets = [CropSet(f"img_{i}", i % 3, unit_rows(rng, p, 8))
                 for i, p in enumerate([4, 9, 5, 16, 4, 7])]
    return crop_sets, unit_rows(rng, 3, 8), 2


def _every_crop_ties(rng):
    label_rows = unit_rows(rng, 2, 8)
    crop_sets = [CropSet(f"img_{c}", c, np.tile(unit_rows(rng, 1, 8), (p, 1)))
                 for c, p in ((0, 6), (1, 9), (0, 8))]
    return crop_sets, label_rows, 3


def _q_half_of_p(rng):
    return [CropSet(f"img_{i}", i % 2, unit_rows(rng, 10, 8)) for i in range(5)], \
        unit_rows(rng, 2, 8), 5


@pytest.mark.parametrize("inputs", [_synth_shaped, _one_parent_two_classes, _no_crop_sets,
                                    _sets_of_different_sizes, _every_crop_ties,
                                    _q_half_of_p])
def test_build_training_set_matches_row_loop(inputs):
    crop_sets, label_rows, q = inputs(np.random.default_rng(80))
    ts = build_training_set(crop_sets, label_rows, q)
    pos, labels, neg = oracle_training_set(crop_sets, label_rows, q)
    assert np.array_equal(ts.pos_features, pos)
    assert np.array_equal(ts.pos_labels, labels)
    assert np.array_equal(ts.neg_features, neg)
    assert ts.pos_features.shape[1] == ts.neg_features.shape[1] == label_rows.shape[1]


def test_selection_matches_oracle_on_tied_random_draws():
    rng = np.random.default_rng(81)
    for _ in range(60):
        q, dim, n_labels = int(rng.integers(1, 5)), int(rng.integers(2, 5)), 3
        # features rounded to whole numbers: few distinct rows, so similarities tie
        label_rows = np.round(2 * rng.standard_normal((n_labels, dim)))
        crop_sets = [CropSet(f"img_{i}", int(rng.integers(n_labels)),
                             np.round(rng.standard_normal((int(rng.integers(2 * q, 2 * q + 9)),
                                                           dim))))
                     for i in range(int(rng.integers(1, 7)))]
        ts = build_training_set(crop_sets, label_rows, q)
        pos, labels, neg = oracle_training_set(crop_sets, label_rows, q)
        assert np.array_equal(ts.pos_features, pos)
        assert np.array_equal(ts.pos_labels, labels)
        assert np.array_equal(ts.neg_features, neg)
        for cs in crop_sets:
            sel = select_outliers(cs, label_rows[cs.label_index], q)
            top, bottom = oracle_select(cs.features, label_rows[cs.label_index], q)
            assert np.array_equal(sel.top_indices, top)
            assert np.array_equal(sel.bottom_indices, bottom)


def test_training_set_manifest_round_trip(tmp_path):
    from nft_ood.data_io import read_bank, read_manifest, write_bank, write_manifest

    rng = np.random.default_rng(79)
    ts = build_training_set([CropSet("p", 1, unit_rows(rng, 8, 8))], unit_rows(rng, 2, 8), 2)

    bank_path = tmp_path / "train.fbnk"
    man_path = tmp_path / "manifest.jsonl"
    write_bank(bank_path, np.vstack([ts.pos_features, ts.neg_features]))
    records = [
        {"row": i, "id": f"train_pos_{i}", "role": "train_pos", "class": 1}
        for i in range(ts.n_pos)
    ] + [
        {"row": ts.n_pos + i, "id": f"train_neg_{i}", "role": "train_neg"}
        for i in range(ts.n_neg)
    ]
    write_manifest(man_path, records)

    mat = read_bank(bank_path, unit_rows=True)
    back = read_manifest(man_path)
    assert back == records
    assert np.allclose(mat[: ts.n_pos], ts.pos_features, atol=1e-6)
    assert np.allclose(mat[ts.n_pos :], ts.neg_features, atol=1e-6)
