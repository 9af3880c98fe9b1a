import dataclasses
import hashlib
import math

import numpy as np
import pytest

from bank_reference import affine_params
from conftest import unit_rows
from loop_reference import backward as loop_backward
from loss_reference import (
    loss_kr_feature,
    loss_kr_logits,
    loss_kr_prob,
    loss_negative,
    loss_positive,
)
from nft_ood.errors import (
    BadClassIndex,
    EmptyBatch,
    InvalidConfig,
    NoNegativeLabels,
    ShapeMismatch,
    ZeroNorm,
)
from nft_ood.model import (
    IMAGE_INDEPENDENT_MODES,
    MODES,
    FeatureBank,
    TrainingSet,
    flat_buffer,
    init_model,
    transform_bank,
)
from nft_ood.scoring import score_many
from nft_ood.objectives import (
    _CANCELLATION,
    KR_SCOPES,
    KR_VARIANTS,
    Batch,
    _forward,
    backward,
    fd_well_conditioned,
    finite_diff_grad,
    max_relative_error,
    total_loss,
    zero_gradients,
)
from nft_ood.trainer import TrainConfig, gradcheck_instance, train


def perturbed_state(rng, d=8, hidden=4, mode="scale_shift", scale=0.15):
    state = init_model(d, hidden=hidden, mode=mode, seed=int(rng.integers(1 << 30)))
    for arr in state.params().values():
        arr += scale * rng.standard_normal(arr.shape)
    return state


def test_batch_is_the_training_set_class():
    assert Batch is TrainingSet
    batch = Batch(np.zeros((2, 4)), np.array([0, 1]), np.zeros((3, 4)))
    assert (batch.n_pos, batch.n_neg) == (2, 3)


# ---- task losses ----


def test_loss_positive_two_way_symmetry():
    # bank rows symmetric about v, so both cosines are equal
    bank = FeatureBank.from_rows([[1.0, 0.0]], [[0.0, 1.0]])
    state = init_model(2, hidden=4, seed=0)
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert loss_positive(state, bank, v, 0, tau=0.3) == pytest.approx(
        math.log(2), abs=1e-12
    )


def test_loss_positive_two_classes_no_negatives():
    bank = FeatureBank.from_rows([[1.0, 0.0], [0.0, 1.0]], np.zeros((0, 2)))
    state = init_model(2, hidden=4, seed=0)
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert loss_positive(state, bank, v, 1, tau=0.1) == pytest.approx(
        math.log(2), abs=1e-12
    )


def test_loss_positive_naive_oracle():
    rng = np.random.default_rng(20)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    state = perturbed_state(rng)
    v = unit_rows(rng, 1, 8)[0]
    tau, y = 0.2, 2
    rows = transform_bank(state, bank, v)
    exps = np.exp(rows @ v / tau)
    expected = -math.log(exps[y] / exps.sum())
    assert loss_positive(state, bank, v, y, tau) == pytest.approx(expected, abs=1e-10)


def test_loss_positive_bad_class_rejected():
    bank = FeatureBank.from_rows([[1.0, 0.0]], [[0.0, 1.0]])
    state = init_model(2, seed=0)
    with pytest.raises(BadClassIndex):
        loss_positive(state, bank, np.array([1.0, 0.0]), 5, tau=0.1)


def test_loss_negative_equal_masses():
    bank = FeatureBank.from_rows([[1.0, 0.0]], [[0.0, 1.0]])
    state = init_model(2, hidden=4, seed=0)
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert loss_negative(state, bank, v, tau=0.4) == pytest.approx(
        math.log(0.5), abs=1e-12
    )


def test_loss_negative_one_of_four():
    # N=1, M=3, all four cosines equal -> ID mass is a quarter
    d = 4
    eye = np.eye(d)
    bank = FeatureBank.from_rows(eye[:1], eye[1:])
    state = init_model(d, hidden=4, seed=0)
    v = np.ones(d) / 2.0
    assert loss_negative(state, bank, v, tau=0.7) == pytest.approx(
        math.log(0.25), abs=1e-12
    )


def test_loss_negative_naive_oracle_and_sign():
    rng = np.random.default_rng(21)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 5, 8))
    state = perturbed_state(rng)
    v = unit_rows(rng, 1, 8)[0]
    tau = 0.25
    exps = np.exp(transform_bank(state, bank, v) @ v / tau)
    expected = math.log(exps[:3].sum() / exps.sum())
    got = loss_negative(state, bank, v, tau)
    assert got == pytest.approx(expected, abs=1e-10)
    assert got <= 0.0


def test_loss_negative_requires_negatives():
    bank = FeatureBank.from_rows([[1.0, 0.0]], np.zeros((0, 2)))
    state = init_model(2, seed=0)
    with pytest.raises(NoNegativeLabels):
        loss_negative(state, bank, np.array([1.0, 0.0]), tau=0.1)


# ---- knowledge regularization ----


def test_kr_feature_zero_at_identity():
    rng = np.random.default_rng(22)
    bank = FeatureBank.from_rows(unit_rows(rng, 2, 6), unit_rows(rng, 2, 6))
    got = loss_kr_feature(bank, bank.rows())
    assert 0.0 <= got < 1e-12


def test_kr_feature_antipodal_extreme():
    rng = np.random.default_rng(23)
    bank = FeatureBank.from_rows(unit_rows(rng, 2, 6), unit_rows(rng, 2, 6))
    assert loss_kr_feature(bank, -bank.rows()) == pytest.approx(2.0, abs=1e-12)


def test_kr_feature_one_rotated_row():
    eye = np.eye(4)
    bank = FeatureBank.from_rows(eye[:2], eye[2:])
    transformed = bank.rows().copy()
    transformed[0] = eye[1]  # rotated 90 degrees, cosine 0
    assert loss_kr_feature(bank, transformed) == pytest.approx(0.25, abs=1e-12)


def test_kr_logits_zero_and_single_gap():
    eye = np.eye(3)
    bank = FeatureBank.from_rows(eye[:1], eye[1:2])
    v = np.array([1.0, 0.0, 0.0])
    assert loss_kr_logits(bank, bank.rows(), v) == 0.0
    # move the positive row so its logit drops by 0.5; keep the other fixed
    transformed = bank.rows().copy()
    transformed[0] = np.array([0.5, 0.0, math.sqrt(0.75)])
    single = FeatureBank.from_rows(eye[:1], np.zeros((0, 3)))
    assert loss_kr_logits(single, transformed[:1], v) == pytest.approx(
        0.25, abs=1e-12
    )


def test_kr_logits_naive_loop_oracle():
    rng = np.random.default_rng(24)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    transformed = unit_rows(rng, 7, 8)
    v = unit_rows(rng, 1, 8)[0]
    rows = bank.rows()
    expected = np.mean(
        [(np.dot(rows[i], v) - np.dot(transformed[i], v)) ** 2 for i in range(7)]
    )
    assert loss_kr_logits(bank, transformed, v) == pytest.approx(expected, abs=1e-12)


def test_kr_prob_self_entropy_and_uniform():
    rng = np.random.default_rng(25)
    bank = FeatureBank.from_rows(unit_rows(rng, 2, 6), unit_rows(rng, 3, 6))
    v = unit_rows(rng, 1, 6)[0]
    p = np.exp(bank.rows() @ v)
    p /= p.sum()
    entropy = -np.sum(p * np.log(p))
    assert loss_kr_prob(bank, bank.rows(), v) == pytest.approx(entropy, abs=1e-10)

    # orthogonal rows give uniform p and q -> cross-entropy ln K
    eye = np.eye(5)
    obank = FeatureBank.from_rows(eye[:2], eye[2:])
    u = np.ones(5) / math.sqrt(5.0)
    assert loss_kr_prob(obank, obank.rows(), u) == pytest.approx(
        math.log(5), abs=1e-10
    )


def test_kr_prob_naive_oracle():
    rng = np.random.default_rng(26)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    transformed = unit_rows(rng, 7, 8)
    v = unit_rows(rng, 1, 8)[0]
    p = np.exp(bank.rows() @ v)
    p /= p.sum()
    q = np.exp(transformed @ v)
    q /= q.sum()
    expected = -np.sum(p * np.log(q))
    assert loss_kr_prob(bank, transformed, v) == pytest.approx(expected, abs=1e-10)


# ---- total loss ----


def make_batch(rng, n_pos, n_neg, n_classes, d):
    return Batch(
        pos_features=unit_rows(rng, n_pos, d),
        pos_labels=rng.integers(0, n_classes, size=n_pos),
        neg_features=unit_rows(rng, n_neg, d),
    )


def test_total_loss_kr_zero_at_init():
    rng = np.random.default_rng(27)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    state = init_model(8, hidden=4, seed=0)
    batch = make_batch(rng, 2, 2, 3, 8)
    report = total_loss(state, bank, batch, TrainConfig(kr_variant="feature"))
    assert abs(report.l_kr) < 1e-12


def test_total_loss_degenerate_weights():
    rng = np.random.default_rng(28)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    state = perturbed_state(rng)
    batch = make_batch(rng, 3, 2, 3, 8)
    report = total_loss(
        state, bank, batch, TrainConfig(lambda1=0.0, lambda2=0.0, tau_loss=0.2)
    )
    assert report.total == pytest.approx(report.l_pos, abs=1e-12)


@pytest.mark.parametrize("variant", ("feature", "logits", "prob"))
@pytest.mark.parametrize("scope", ("pos", "both"))
def test_total_loss_component_sum_oracle(variant, scope):
    rng = np.random.default_rng(29)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    state = perturbed_state(rng)
    batch = make_batch(rng, 3, 2, 3, 8)
    cfg = TrainConfig(
        lambda1=0.3, lambda2=100.0, tau_loss=0.2, kr_variant=variant, kr_scope=scope
    )
    report = total_loss(state, bank, batch, cfg)

    l_pos = np.mean(
        [
            loss_positive(state, bank, batch.pos_features[i],
                          int(batch.pos_labels[i]), cfg.tau_loss)
            for i in range(batch.n_pos)
        ]
    )
    l_neg = np.mean(
        [
            loss_negative(state, bank, batch.neg_features[i], cfg.tau_loss)
            for i in range(batch.n_neg)
        ]
    )
    imgs = [batch.pos_features[i] for i in range(batch.n_pos)]
    if scope == "both":
        imgs += [batch.neg_features[i] for i in range(batch.n_neg)]
    kr_terms = []
    for v in imgs:
        transformed = transform_bank(state, bank, v)
        if variant == "feature":
            kr_terms.append(loss_kr_feature(bank, transformed))
        elif variant == "logits":
            kr_terms.append(loss_kr_logits(bank, transformed, v))
        else:
            kr_terms.append(loss_kr_prob(bank, transformed, v))
    l_kr = np.mean(kr_terms)

    assert report.l_pos == pytest.approx(l_pos, abs=1e-10)
    assert report.l_neg == pytest.approx(l_neg, abs=1e-10)
    assert report.l_kr == pytest.approx(l_kr, abs=1e-10)
    expected_total = l_pos + cfg.lambda1 * l_neg + cfg.lambda2 * l_kr
    assert report.total == pytest.approx(expected_total, abs=1e-9)
    assert report.total == pytest.approx(
        report.l_pos + cfg.lambda1 * report.l_neg + cfg.lambda2 * report.l_kr,
        abs=1e-12,
    )


def test_total_loss_empty_batch_rejected():
    rng = np.random.default_rng(30)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    state = init_model(8, hidden=4, seed=0)
    empty = Batch(np.zeros((0, 8)), np.zeros(0, dtype=int), np.zeros((0, 8)))
    with pytest.raises(EmptyBatch):
        total_loss(state, bank, empty, TrainConfig())


@pytest.mark.parametrize("labels, n_neg_labels, exc", [
    ([0, 3], 4, BadClassIndex),  # class N is a negative label's row
    ([-1, 0], 4, BadClassIndex),
    ([0, 2], 0, NoNegativeLabels),  # negative samples, but a bank without negative labels
])
def test_invalid_batch_is_rejected_by_every_loss_call(labels, n_neg_labels, exc):
    rng = np.random.default_rng(30)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, n_neg_labels, 8))
    batch = Batch(unit_rows(rng, 2, 8), np.array(labels), unit_rows(rng, 2, 8))
    state = init_model(8, hidden=4, seed=0)
    for call in (total_loss, backward):
        with pytest.raises(exc):
            call(state, bank, batch, TrainConfig())


@pytest.mark.parametrize("pos, neg", [(0, 2), (2, 0), (2, 2)])
def test_batch_of_the_wrong_width_is_rejected_by_every_loss_call(pos, neg):
    # a negatives-only batch once passed its check and failed in numpy's matmul
    rng = np.random.default_rng(30)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    batch = Batch(unit_rows(rng, pos, 4), np.zeros(pos, dtype=int), unit_rows(rng, neg, 4))
    state = init_model(8, hidden=4, seed=0)
    for call in (total_loss, backward):
        with pytest.raises(ShapeMismatch, match="training features do not match bank"):
            call(state, bank, batch, TrainConfig())


def test_total_loss_permutation_invariant():
    rng = np.random.default_rng(31)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    state = perturbed_state(rng)
    batch = make_batch(rng, 5, 4, 3, 8)
    cfg = TrainConfig(tau_loss=0.2)
    base = total_loss(state, bank, batch, cfg)
    pp = rng.permutation(5)
    np_ = rng.permutation(4)
    shuffled = Batch(
        batch.pos_features[pp], batch.pos_labels[pp], batch.neg_features[np_]
    )
    got = total_loss(state, bank, shuffled, cfg)
    assert got.total == pytest.approx(base.total, abs=1e-10)


def test_total_loss_one_sided_batches():
    rng = np.random.default_rng(32)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    state = perturbed_state(rng)
    cfg = TrainConfig(tau_loss=0.2)
    pos_only = Batch(unit_rows(rng, 2, 8), rng.integers(0, 3, 2), np.zeros((0, 8)))
    rep = total_loss(state, bank, pos_only, cfg)
    assert rep.l_neg == 0.0
    neg_only = Batch(np.zeros((0, 8)), np.zeros(0, dtype=int), unit_rows(rng, 2, 8))
    rep = total_loss(state, bank, neg_only, cfg)
    assert rep.l_pos == 0.0


# ---- gradients ----


def test_backward_report_matches_total_loss():
    rng = np.random.default_rng(33)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    for mode in MODES:
        state = perturbed_state(rng, mode=mode)
        batch = make_batch(rng, 3, 2, 3, 8)
        cfg = TrainConfig(tau_loss=0.2, lambda2=5.0)
        report, _ = backward(state, bank, batch, cfg)
        direct = total_loss(state, bank, batch, cfg)
        assert report.total == pytest.approx(direct.total, abs=1e-10)


def test_backward_kr_only_at_init():
    rng = np.random.default_rng(34)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    state = init_model(8, hidden=4, seed=0)
    batch = make_batch(rng, 2, 2, 3, 8)
    cfg = TrainConfig(lambda1=0.0, lambda2=1.0, kr_variant="feature", tau_loss=0.2)
    report, grads = backward(state, bank, batch, cfg)
    assert abs(report.l_kr) < 1e-12
    for arr in grads.values():
        assert np.all(np.isfinite(arr))


def test_backward_mean_semantics_under_duplication():
    rng = np.random.default_rng(35)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    state = perturbed_state(rng)
    batch = make_batch(rng, 2, 2, 3, 8)
    doubled = Batch(
        np.vstack([batch.pos_features] * 2),
        np.concatenate([batch.pos_labels] * 2),
        np.vstack([batch.neg_features] * 2),
    )
    cfg = TrainConfig(tau_loss=0.2, lambda2=3.0)
    _, g1 = backward(state, bank, batch, cfg)
    _, g2 = backward(state, bank, doubled, cfg)
    for key in g1:
        assert np.allclose(g1[key], g2[key], atol=1e-12)


@pytest.mark.parametrize("mode", MODES)
def test_gradcheck_spot(mode):
    state, bank, batch, cfg, grads = gradcheck_instance(mode, "feature", 77)
    fd = finite_diff_grad(state, bank, batch, cfg, eps=1e-5)
    assert max_relative_error(grads, fd) < 1e-4


def test_finite_diff_const_shift_tight():
    # single effective parameter, well scaled: the oracle is very accurate
    state, bank, batch, cfg, grads = gradcheck_instance("const_shift", "logits", 3)
    fd = finite_diff_grad(state, bank, batch, cfg, eps=1e-5)
    assert max_relative_error(grads, fd) < 1e-6


def test_finite_diff_rejects_zero_eps():
    rng = np.random.default_rng(36)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    state = init_model(8, hidden=4, seed=0)
    batch = make_batch(rng, 2, 2, 3, 8)
    with pytest.raises(InvalidConfig):
        finite_diff_grad(state, bank, batch, TrainConfig(), eps=0.0)


@pytest.mark.parametrize("mode", MODES)
def test_zero_gradients_are_views_of_one_zeroed_buffer(mode):
    state = init_model(8, hidden=4, mode=mode, seed=0)
    grads = zero_gradients(state)
    flat = flat_buffer(grads, grads)
    assert flat.shape == (sum(a.size for a in state.arrays.values()),)
    assert not flat.any()
    for key, arr in state.arrays.items():
        assert grads[key].base is flat and grads[key].shape == arr.shape
        assert not np.shares_memory(grads[key], arr)


# sha256 of backward's loss report and gradients on gradcheck_instance(mode, variant,
# 10000 i + 100 j), recorded before the loss lost its numpy wrappers: the same bits.
# vec_shift's three moved (by <= 4e-16 relative) when it stopped taking ||c||^2 = 1
# from a GEMM of ones against C * C. const_shift's and mlp's six moved (by <= 4.4e-16
# relative to each gradient array's largest entry) when the whole-bank forward took its
# row norms from transform_bank's kernel, (u * u).sum(axis=1), instead of an einsum.
BACKWARD_SHA256 = {
    "const_shift/feature": "a491d9ca0530c941fcd15f30e31cd3ab44e75a7986ca142bcaa14ce096cc8cd7",
    "const_shift/logits": "8af33d54e0e9b53fb22dc8b9a1e53dee5379fea75e14bdbcffec4fa6ab908974",
    "const_shift/prob": "c5efd8bbd311367b27b03c9ae2d3ea4714eb486c3aa0d4c05065d7f66536d03f",
    "vec_shift/feature": "4d6bb5916349484d2451e0e0e3a89bc702443fe8919399d0d861de661ed07e45",
    "vec_shift/logits": "d1737e0b7b2d684f32b27d3c7d83557152ed3992b9952780680934dd822ccaaf",
    "vec_shift/prob": "b48e10df3555405f582977503fd2f55d2b75947d75bbc3c6ce1f7d5d38675ff7",
    "scale_shift/feature": "72a4909b2dd9d034ad4c4cf86fb6f8d2b98f1a2df605804a6df35a1e5093ac60",
    "scale_shift/logits": "5f997a9f574e4eb51843f72890483a3e7a2461d7854f1e6d558bfefcd0fa61e4",
    "scale_shift/prob": "07f59a3fe62f442fcdc069435cbf7127a7bacaeac99dd49baf460170142848e5",
    "mlp/feature": "3ea91574bb7120b94df39fbbf50e1ca73f946983cfc54d4a80810f1ec9ecdc3b",
    "mlp/logits": "879b5753b8def0e4db246ea002cb90757dedf299ed2ed954a3047f096a417641",
    "mlp/prob": "e99e1f52cff3bafc2e44ccd43c3ee1305fd44191283ce10ec8afab426cd128d0",
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("variant", KR_VARIANTS)
def test_backward_bits_are_pinned(mode, variant):
    seed = 10000 * MODES.index(mode) + 100 * KR_VARIANTS.index(variant)
    state, bank, batch, cfg, _ = gradcheck_instance(mode, variant, seed)
    report, grads = backward(state, bank, batch, cfg)
    h = hashlib.sha256(repr(dataclasses.astuple(report)).encode())
    for key, g in grads.items():
        h.update(key.encode())
        h.update(g.astype("<f8").tobytes())
    assert h.hexdigest() == BACKWARD_SHA256[f"{mode}/{variant}"]


def test_max_relative_error_floor():
    state = init_model(4, hidden=4, seed=0)
    a = zero_gradients(state)
    b = zero_gradients(state)
    assert max_relative_error(a, b) == 0.0
    b["pos_head.beta"][0] = 1e-12  # below the 1e-8 denominator floor
    assert max_relative_error(a, b) == pytest.approx(1e-4, rel=1e-6)


def test_fd_conditioning_flags_tiny_gradients():
    rng = np.random.default_rng(37)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    state = perturbed_state(rng)
    batch = make_batch(rng, 2, 2, 3, 8)
    _, grads = backward(state, bank, batch, TrainConfig(tau_loss=0.25))
    grads["pos_head.beta"][0] = 1e-9
    assert not fd_well_conditioned(state, bank, batch, grads)


def test_backward_rejects_invalid_variant():
    rng = np.random.default_rng(38)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    state = init_model(8, hidden=4, seed=0)
    batch = make_batch(rng, 2, 2, 3, 8)
    cfg = TrainConfig()
    cfg.kr_variant = "bogus"  # bypass the constructor check
    with pytest.raises(InvalidConfig):
        backward(state, bank, batch, cfg)


@pytest.mark.parametrize("field, value", [
    ("tau_loss", 0.0), ("tau_loss", -1.0), ("tau_loss", math.nan), ("tau_loss", math.inf),
    ("kr_variant", "bogus"), ("kr_scope", "neither"),
])
def test_loss_config_edited_after_construction_is_rejected_by_every_caller(field, value):
    # NaN once gave backward a NaN loss, and inf a flat run that exited 0
    rng = np.random.default_rng(38)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 4, 8))
    state = init_model(8, hidden=4, seed=0)
    batch = make_batch(rng, 2, 2, 3, 8)
    cfg = TrainConfig(epochs=1)
    setattr(cfg, field, value)
    calls = {"TrainConfig": lambda: TrainConfig(**dataclasses.asdict(cfg)),
             "backward": lambda: backward(state, bank, batch, cfg),
             "total_loss": lambda: total_loss(state, bank, batch, cfg),
             "train": lambda: train(state, bank, batch, cfg)}
    raised = {}
    for name, call in calls.items():
        with pytest.raises(InvalidConfig, match=field) as e:
            call()
        raised[name] = e.value
    # the loss calls share one check; the constructor's finiteness check answers
    # first for NaN and inf, with an InvalidConfig of its own
    assert len({(type(e), str(e)) for k, e in raised.items() if k != "TrainConfig"}) == 1
    if not (field == "tau_loss" and not math.isfinite(value)):
        assert type(raised["TrainConfig"]) is type(raised["backward"])


# ---- batched closed form against the per-sample loop and the tuned bank ----

# The batched backward sums the loop's float64 terms in another order, so the
# two agree to rounding, not bit for bit: a fixed float64 tolerance.
LOOP_RTOL = 1e-10


def full_and_one_sided(batch):
    d = batch.pos_features.shape[1]
    return (
        batch,
        Batch(batch.pos_features, batch.pos_labels, np.zeros((0, d))),
        Batch(np.zeros((0, d)), np.zeros(0, dtype=int), batch.neg_features),
    )


@pytest.mark.parametrize("scope", KR_SCOPES)
@pytest.mark.parametrize("variant", KR_VARIANTS)
@pytest.mark.parametrize("mode", MODES)
def test_backward_matches_loop_reference(mode, variant, scope):
    state, bank, batch, cfg, _ = gradcheck_instance(mode, variant, 41)
    cfg = dataclasses.replace(cfg, kr_scope=scope)
    for part in full_and_one_sided(batch):
        report, grads = backward(state, bank, part, cfg)
        want_report, want_grads = loop_backward(state, bank, part, cfg)
        assert (report.n_pos, report.n_neg) == (want_report.n_pos, want_report.n_neg)
        for name in ("l_pos", "l_neg", "l_kr", "total"):
            got, want = getattr(report, name), getattr(want_report, name)
            assert abs(got - want) <= LOOP_RTOL * abs(want), name
        assert grads.keys() == want_grads.keys()
        for key, want in want_grads.items():
            err = np.max(np.abs(grads[key] - want))
            assert err <= LOOP_RTOL * np.max(np.abs(want)), key


def assert_matches_loop_reference(state, bank, batch, cfg):
    report, grads = backward(state, bank, batch, cfg)
    want_report, want_grads = loop_backward(state, bank, batch, cfg)
    for name in ("l_pos", "l_neg", "l_kr", "total"):
        got, want = getattr(report, name), getattr(want_report, name)
        assert abs(got - want) <= LOOP_RTOL * abs(want), name
    assert grads.keys() == want_grads.keys()
    for key, want in want_grads.items():
        err = np.max(np.abs(grads[key] - want))
        assert err <= LOOP_RTOL * np.max(np.abs(want)), key


def batch_images(batch):
    return np.vstack([batch.pos_features, batch.neg_features])


def cancelled_entries(state, bank, imgs):
    """(B, K) mask of the entries with ||u||^2 <= _CANCELLATION (||a*c||^2 + ||b||^2),
    from the reference's per-image (a, b) and u itself."""
    mask = np.zeros((imgs.shape[0], bank.rows().shape[0]), dtype=bool)
    for i, v in enumerate(imgs):
        for role, rows in (("positive", slice(0, bank.n_pos)),
                           ("negative", slice(bank.n_pos, None))):
            a, b = affine_params(state, v, role)
            c = bank.rows()[rows]
            u = a * c + b
            mask[i, rows] = (np.sum(u * u, axis=1)
                             <= _CANCELLATION * (np.sum((a * c) ** 2, axis=1) + b @ b))
    return mask


@pytest.mark.parametrize("role, i0, k0, scope", [
    ("positive", 1, 2, "both"),  # a positive image, with its c . c' dots
    ("negative", 5, 3, "pos"),  # a negative image, which takes no dots
])
def test_backward_cancellation_recompute_matches_loop_reference(role, i0, k0, scope):
    for mode in ("scale_shift", "vec_shift"):  # vec_shift recomputes u with a = 1
        state, bank, batch, cfg, _ = gradcheck_instance(mode, "feature", 42)
        cfg = dataclasses.replace(cfg, kr_scope=scope)
        imgs = batch_images(batch)
        # shift the role's head so that image i0 tunes row k0 to ||u|| = 1e-4, where the
        # GEMM expansion of ||u||^2 keeps only about 1e-8 of its terms' size
        prefix, rows = ("pos", bank.pos) if role == "positive" else ("neg", bank.neg)
        a, b = affine_params(state, imgs[i0], role)
        e = unit_rows(np.random.default_rng(45), 1, bank.dim)[0]
        state.arrays[f"{prefix}_head.beta"] += 1e-4 * e - (a * rows[k0] + b)
        mask = cancelled_entries(state, bank, imgs)
        assert mask[i0, k0 + (bank.n_pos if role == "negative" else 0)] and mask.sum() == 1
        assert_matches_loop_reference(state, bank, batch, cfg)


@pytest.mark.parametrize("mode", MODES)
def test_backward_without_negative_labels_matches_loop_reference(mode):
    state, bank, batch, cfg, _ = gradcheck_instance(mode, "logits", 46)
    bank = FeatureBank.from_rows(bank.pos, np.zeros((0, bank.dim)))
    pos_only = Batch(batch.pos_features, batch.pos_labels, np.zeros((0, bank.dim)))
    assert_matches_loop_reference(state, bank, pos_only, cfg)


def test_bank_squares_are_read_only_and_built_by_training_only():
    # scale_shift training alone builds them: vec_shift has a = 1 and unit rows ||c|| = 1
    for mode in MODES:
        state, bank, batch, cfg, _ = gradcheck_instance(mode, "feature", 47)
        bank = FeatureBank.from_rows(bank.pos, bank.neg)  # the instance's backward built its own
        imgs = batch_images(batch)
        for method in ("mcm", "neglabel", "krnft"):
            score_many(imgs, method, bank, state=state)
        assert "squares" not in vars(bank)
        train(state, bank, batch, dataclasses.replace(cfg, epochs=1))
        assert ("squares" in vars(bank)) == (mode == "scale_shift"), mode
        if mode == "scale_shift":
            assert np.array_equal(bank.squares, bank.matrix * bank.matrix)
            assert not bank.squares.flags.writeable
            with pytest.raises(ValueError):
                bank.squares[0, 0] = 0.0


def forward_cosines_and_dots(state, bank, imgs):
    f = _forward(state, bank, imgs, imgs.shape[0])
    return f.s, f.d


@pytest.mark.parametrize("mode", MODES)
def test_forward_matches_materialized_bank(mode):
    state, bank, batch, _, _ = gradcheck_instance(mode, "feature", 42)
    imgs = batch_images(batch)
    s, d = forward_cosines_and_dots(state, bank, imgs)
    for i, v in enumerate(imgs):
        tuned = transform_bank(state, bank, v)
        assert np.max(np.abs(s[i] - tuned @ v)) <= 1e-12
        assert np.max(np.abs(d[i] - np.sum(bank.rows() * tuned, axis=1))) <= 1e-12


@pytest.mark.parametrize("mode", IMAGE_INDEPENDENT_MODES)
def test_forward_trains_on_the_bank_that_krnft_scores(mode):
    # criterion 2's 21 instances of the mode: the whole-bank forward tunes through
    # transform_bank's kernel, so its bank equals transform_bank's bit for bit
    for vi, variant in enumerate(KR_VARIANTS):
        for s in range(7):
            base_seed = 10000 * MODES.index(mode) + 100 * vi + s
            state, bank, batch, _, _ = gradcheck_instance(mode, variant, base_seed)
            imgs = batch_images(batch)
            cp = _forward(state, bank, imgs, 0).cp
            assert np.array_equal(cp, transform_bank(state, bank, imgs[0])), base_seed
    # roles longer than transform_bank's blocks, which training tunes in one call
    rng = np.random.default_rng(45)
    bank = FeatureBank.from_rows(unit_rows(rng, 300, 16), unit_rows(rng, 600, 16))
    state = perturbed_state(rng, d=16, hidden=8, mode=mode)
    imgs = unit_rows(rng, 3, 16)
    assert np.array_equal(_forward(state, bank, imgs, 0).cp, transform_bank(state, bank, imgs[0]))


def test_forward_near_zero_norm_guard():
    state, bank, batch, _, _ = gradcheck_instance("scale_shift", "feature", 42)
    imgs = batch_images(batch)
    v0, k0 = imgs[0], 2
    # shift the positive head so that image v0 tunes row k0 to ||u|| = 1e-6
    a, b = affine_params(state, v0, "positive")
    e = unit_rows(np.random.default_rng(43), 1, bank.dim)[0]
    state.arrays["pos_head.beta"] += 1e-6 * e - (a * bank.pos[k0] + b)
    a, b = affine_params(state, v0, "positive")
    assert np.linalg.norm(a * bank.pos[k0] + b) == pytest.approx(1e-6, rel=1e-3)

    s, d = forward_cosines_and_dots(state, bank, imgs)
    # Expanding ||u||^2 = ||a*c||^2 + 2 (a*b).c + ||b||^2 into D-term GEMMs
    # costs up to ~D eps (||a*c|| + ||b||)^2 absolutely, which v.u / ||u|| and
    # c.u / ||u|| carry with relative weight 1 / ||u||^2.
    k = 4 * bank.dim
    eps = np.finfo(np.float64).eps
    for i, v in enumerate(imgs):
        tuned = transform_bank(state, bank, v)
        scale = np.zeros(tuned.shape[0])
        u_norm = np.zeros(tuned.shape[0])
        for role, rows in (("positive", slice(0, bank.n_pos)),
                           ("negative", slice(bank.n_pos, None))):
            a, b = affine_params(state, v, role)
            c = bank.rows()[rows]
            scale[rows] = np.linalg.norm(a * c, axis=1) + np.linalg.norm(b)
            u_norm[rows] = np.linalg.norm(a * c + b, axis=1)
        bound = k * eps * scale**2 / u_norm**2
        assert np.all(np.abs(s[i] - tuned @ v) <= bound)
        assert np.all(np.abs(d[i] - np.sum(bank.rows() * tuned, axis=1)) <= bound)


@pytest.mark.parametrize("mode", MODES)
def test_exactly_zero_u_raises_zero_norm(mode):
    state, bank, batch, cfg, _ = gradcheck_instance(mode, "feature", 44)
    # a constant unit row, so that even const_shift's scalar shift can cancel it
    c0 = np.full(bank.dim, 1.0 / math.sqrt(bank.dim))
    bank = FeatureBank.from_rows(np.vstack([c0, bank.pos[1:]]), bank.neg)
    params = state.params()
    for key in ("pos_net.w_alpha", "pos_net.b_alpha", "pos_net.w_beta", "pos_net.b_beta"):
        if key in params:  # the mode's live meta-net heads
            params[key][...] = 0.0
    # with no image-conditional residual, u = a * c0 + shift == 0 exactly
    a = params["pos_head.alpha"] if mode == "scale_shift" else 1.0
    shift = params["pos_net.b_beta" if mode == "mlp" else "pos_head.beta"]
    shift[...] = (-a * c0)[: shift.size]  # const_shift's beta is one scalar
    with pytest.raises(ZeroNorm):
        total_loss(state, bank, batch, cfg)
    with pytest.raises(ZeroNorm):
        backward(state, bank, batch, cfg)
