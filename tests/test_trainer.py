import numpy as np
import pytest

from adamw_reference import adamw_step as reference_adamw_step
from conftest import unit_rows
from nft_ood.errors import EmptyTrainingSet, InvalidConfig, ShapeMismatch
from nft_ood.model import (
    MODES,
    Checkpoint,
    FeatureBank,
    TrainingSet,
    flat_arrays,
    init_model,
    save_checkpoint,
)
from nft_ood.objectives import zero_gradients
from nft_ood.trainer import (
    LossTrace,
    OptimizerState,
    TrainConfig,
    adamw_step,
    init_optimizer,
    make_batches,
    train,
)


def scalar_setup(lr=0.1, wd=0.0):
    params = {"w": np.array([1.0])}
    opt = OptimizerState(m={"w": np.zeros(1)}, v={"w": np.zeros(1)}, step=0)
    cfg = TrainConfig(lr=lr, weight_decay=wd)
    return params, opt, cfg


def make_training_set(rng, n_pos=10, n_neg=10, n_classes=3, d=8):
    return TrainingSet(
        pos_features=unit_rows(rng, n_pos, d),
        pos_labels=rng.integers(0, n_classes, size=n_pos),
        neg_features=unit_rows(rng, n_neg, d),
    )


# ---- config validation ----


def test_config_validation():
    with pytest.raises(InvalidConfig):
        TrainConfig(lr=0.0)
    with pytest.raises(InvalidConfig):
        TrainConfig(epochs=0)
    with pytest.raises(InvalidConfig):
        TrainConfig(batch_size=0)
    with pytest.raises(InvalidConfig):
        TrainConfig(lambda1=-0.1)
    with pytest.raises(InvalidConfig):
        TrainConfig(tau_loss=0.0)
    with pytest.raises(InvalidConfig):
        TrainConfig(kr_variant="bogus")
    with pytest.raises(InvalidConfig):
        TrainConfig(kr_scope="neither")


def test_config_accepts_optimizer_fields_at_their_bounds():
    # the rejected side of each bound is a cli.main test
    TrainConfig(beta1=0.0, beta2=0.0, weight_decay=0.0, adam_eps=1e-300)
    TrainConfig(beta1=1 - 2**-53, beta2=1 - 2**-53)


# ---- AdamW ----


def test_adamw_zero_gradient_no_decay_is_noop():
    params, opt, cfg = scalar_setup(wd=0.0)
    adamw_step(params, {"w": np.zeros(1)}, opt, cfg)
    assert params["w"][0] == 1.0
    assert opt.step == 1


def test_adamw_single_step_hand_oracle():
    lr, wd, g = 0.1, 0.01, 0.5
    params, opt, cfg = scalar_setup(lr=lr, wd=wd)
    theta0 = params["w"][0]
    adamw_step(params, {"w": np.array([g])}, opt, cfg)
    # bias-corrected moments after one step reduce to m_hat = g, v_hat = g^2
    m_hat = g
    v_hat = g * g
    expected = theta0 - lr * (m_hat / (np.sqrt(v_hat) + cfg.adam_eps) + wd * theta0)
    assert params["w"][0] == pytest.approx(expected, abs=1e-15)


def test_adamw_three_steps_matches_hand_adam():
    # weight_decay=0 reduces AdamW to Adam; replay the recurrence by hand
    lr = 0.05
    params, opt, cfg = scalar_setup(lr=lr, wd=0.0)
    grads = [0.3, -0.2, 0.7]
    theta = params["w"][0]
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        m_hat = m / (1 - cfg.beta1**t)
        v_hat = v / (1 - cfg.beta2**t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        adamw_step(params, {"w": np.array([g])}, opt, cfg)
    assert params["w"][0] == pytest.approx(theta, abs=1e-14)
    assert opt.step == 3


def test_adamw_alpha_decays_toward_one():
    state = init_model(4, hidden=4, seed=0)
    state.arrays["pos_head.alpha"][:] = 2.0
    state.arrays["pos_head.beta"][:] = 2.0
    params = state.params()
    opt = init_optimizer(state)
    cfg = TrainConfig(lr=0.1, weight_decay=0.5)
    zero = {k: np.zeros_like(p) for k, p in params.items()}
    adamw_step(params, zero, opt, cfg)
    # with zero gradients only the decoupled decay acts
    assert np.all(state.arrays["pos_head.alpha"] < 2.0)
    assert np.all(state.arrays["pos_head.alpha"] > 1.0)
    assert np.all(state.arrays["pos_head.beta"] < 2.0)
    expected_alpha = 2.0 - cfg.lr * cfg.weight_decay * (2.0 - 1.0)
    expected_beta = 2.0 - cfg.lr * cfg.weight_decay * 2.0
    assert np.allclose(state.arrays["pos_head.alpha"], expected_alpha, atol=1e-15)
    assert np.allclose(state.arrays["pos_head.beta"], expected_beta, atol=1e-15)


def test_adamw_shape_mismatch():
    params, opt, cfg = scalar_setup()
    with pytest.raises(ShapeMismatch):
        adamw_step(params, {"w": np.zeros(2)}, opt, cfg)


@pytest.mark.parametrize("flat", [True, False, "reversed"])
@pytest.mark.parametrize("mode", MODES)
def test_adamw_matches_per_array_reference(mode, flat):
    # flat: the library's arrays, views of one buffer each; otherwise separate copies.
    # reversed: the library's, with gradients viewing one buffer in reversed key order,
    # which was once read as if laid out in the parameters' order
    rng = np.random.default_rng(49)
    state = init_model(8, hidden=4, mode=mode, seed=3)
    for arr in state.params().values():
        arr += 0.5 * rng.standard_normal(arr.shape)  # alpha off 1, which decay pulls it to
    cfg = TrainConfig(lr=0.05, weight_decay=0.5)
    params, opt = state.params(), init_optimizer(state)
    if not flat:
        params = {k: a.copy() for k, a in params.items()}
        opt = OptimizerState(m={k: a.copy() for k, a in opt.m.items()},
                             v={k: a.copy() for k, a in opt.v.items()}, rest=opt.rest)
    want = {k: a.copy() for k, a in params.items()}
    want_opt = init_optimizer(state)
    for _ in range(6):
        grads = zero_gradients(state) if flat else {k: np.zeros_like(a)
                                                    for k, a in params.items()}
        if flat == "reversed":
            grads = flat_arrays(dict(reversed(grads.items())))
        for g in grads.values():
            g += rng.standard_normal(g.shape)
        adamw_step(params, grads, opt, cfg)
        reference_adamw_step(want, grads, want_opt, cfg)
    assert opt.step == want_opt.step == 6
    for key in want:
        assert np.array_equal(params[key], want[key]), key
        assert np.array_equal(opt.m[key], want_opt.m[key]), key
        assert np.array_equal(opt.v[key], want_opt.v[key]), key


def test_optimizer_shapes_mirror_state():
    for mode in MODES:
        state = init_model(8, hidden=4, mode=mode, seed=0)
        opt = init_optimizer(state)
        assert opt.m.keys() == opt.v.keys() == state.params().keys()
        for key, arr in state.params().items():
            assert opt.m[key].shape == arr.shape
            assert opt.v[key].shape == arr.shape
            assert not np.any(opt.m[key]) and not np.any(opt.v[key])


# ---- batching ----


def test_make_batches_deterministic():
    rng = np.random.default_rng(40)
    ts = make_training_set(rng)
    b1 = make_batches(ts, 4, seed=5, epoch=2)
    b2 = make_batches(ts, 4, seed=5, epoch=2)
    for x, y in zip(b1, b2):
        assert np.array_equal(x.pos_features, y.pos_features)
        assert np.array_equal(x.neg_features, y.neg_features)
    b3 = make_batches(ts, 4, seed=5, epoch=3)
    assert not all(
        np.array_equal(x.pos_features, y.pos_features) for x, y in zip(b1, b3)
    )


def test_make_batches_counting():
    rng = np.random.default_rng(41)
    ts = make_training_set(rng, n_pos=10, n_neg=10)
    batches = make_batches(ts, 4, seed=0)
    assert len(batches) == 5
    for b in batches:
        assert b.n_pos == 2 and b.n_neg == 2


def test_make_batches_without_replacement():
    rng = np.random.default_rng(42)
    ts = make_training_set(rng, n_pos=7, n_neg=5)
    batches = make_batches(ts, 4, seed=1)
    pos_seen = np.vstack([b.pos_features for b in batches])
    assert pos_seen.shape[0] == 7
    # every training row appears exactly once across the epoch
    assert {tuple(r) for r in pos_seen} == {tuple(r) for r in ts.pos_features}


def test_make_batches_pos_only():
    rng = np.random.default_rng(43)
    ts = TrainingSet(
        pos_features=unit_rows(rng, 6, 8),
        pos_labels=rng.integers(0, 3, 6),
        neg_features=np.zeros((0, 8)),
    )
    batches = make_batches(ts, 3, seed=0)
    assert len(batches) == 2
    assert all(b.n_neg == 0 for b in batches)


def test_make_batches_empty_rejected():
    ts = TrainingSet(np.zeros((0, 8)), np.zeros(0, dtype=int), np.zeros((0, 8)))
    with pytest.raises(EmptyTrainingSet):
        make_batches(ts, 4, seed=0)


def test_make_batches_tiny_batch_rejected():
    rng = np.random.default_rng(44)
    ts = make_training_set(rng)
    with pytest.raises(InvalidConfig):
        make_batches(ts, 1, seed=0)


# ---- trace ----


def test_trace_csv_format():
    from nft_ood.objectives import LossReport

    trace = LossTrace()
    trace.append(0, 0, LossReport(1.5, -0.25, 0.125, 1.55, 2, 2))
    csv_text = trace.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "epoch,step,l_pos,l_neg,l_kr,total"
    fields = lines[1].split(",")
    assert fields[:2] == ["0", "0"]
    assert float(fields[2]) == 1.5
    assert float(fields[5]) == 1.55
    assert trace.epoch_mean_totals() == {0: 1.55}


# ---- full loop ----


def test_train_deterministic_checkpoints(tmp_path):
    rng = np.random.default_rng(45)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 6, 8))
    ts = make_training_set(rng, n_classes=3)
    paths = []
    for name in ("a.nftc", "b.nftc"):
        state = init_model(8, hidden=4, seed=2)
        cfg = TrainConfig(lr=1e-4, epochs=2, batch_size=4, tau_loss=0.1, seed=9)
        ckpt, trace = train(state, bank, ts, cfg)
        p = tmp_path / name
        save_checkpoint(ckpt, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_loss_decreases_task_only():
    rng = np.random.default_rng(46)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 6, 8))
    # one dominant class so the CE objective has an easy descent direction
    ts = TrainingSet(
        pos_features=unit_rows(rng, 12, 8),
        pos_labels=np.zeros(12, dtype=int),
        neg_features=np.zeros((0, 8)),
    )
    state = init_model(8, hidden=4, seed=0)
    cfg = TrainConfig(
        lambda1=0.0, lambda2=0.0, lr=1e-3, epochs=3, batch_size=4,
        tau_loss=0.1, seed=0,
    )
    _, trace = train(state, bank, ts, cfg)
    means = list(trace.epoch_mean_totals().values())
    assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
    assert means[-1] < means[0]


def test_train_records_all_steps():
    rng = np.random.default_rng(47)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 6, 8))
    ts = make_training_set(rng, n_pos=10, n_neg=10, n_classes=3)
    state = init_model(8, hidden=4, seed=0)
    cfg = TrainConfig(lr=1e-4, epochs=2, batch_size=4, tau_loss=0.1, seed=0)
    ckpt, trace = train(state, bank, ts, cfg)
    assert len(trace.records) == 10  # 5 batches x 2 epochs
    assert ckpt.meta["steps"] == 10
    assert ckpt.meta["trace_digest"] == trace.digest()
    assert ckpt.config["lr"] == cfg.lr


def test_train_dim_mismatch():
    rng = np.random.default_rng(48)
    bank = FeatureBank.from_rows(unit_rows(rng, 3, 8), unit_rows(rng, 6, 8))
    ts = make_training_set(rng, d=16)
    state = init_model(8, hidden=4, seed=0)
    with pytest.raises(ShapeMismatch):
        train(state, bank, ts, TrainConfig())
