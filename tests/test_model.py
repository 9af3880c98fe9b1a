import json
import os
import struct

import numpy as np
import pytest

import bank_reference
from conftest import unit_rows
from nft_ood.errors import DimMismatch, FormatError, InvalidDim, ZeroNorm
from nft_ood.model import (
    MODES,
    Checkpoint,
    FeatureBank,
    ModelState,
    init_model,
    load_checkpoint,
    role_arrays,
    role_terms,
    save_checkpoint,
    states_equal,
    transform_bank,
)
from nft_ood.scoring import score_many

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def small_bank(rng, n=3, m=4, d=8):
    return FeatureBank.from_rows(unit_rows(rng, n, d), unit_rows(rng, m, d))


def tune_one(state, c, v):
    """c tuned as the positive row of a one-row bank, conditioned on image feature v."""
    return transform_bank(state, FeatureBank.from_rows(c, []), v)[0]


# ---- FeatureBank ----


def test_bank_renormalizes_with_warning():
    with pytest.warns(UserWarning):
        bank = FeatureBank.from_rows([[3.0, 4.0]], [[0.0, 2.0]])
    assert np.allclose(bank.pos[0], [0.6, 0.8])
    assert np.allclose(bank.neg[0], [0.0, 1.0])


def test_bank_rejects_negatives_of_another_width():
    rng = np.random.default_rng(0)
    with pytest.raises(DimMismatch):
        FeatureBank.from_rows(unit_rows(rng, 2, 8), unit_rows(rng, 4, 16))


def test_bank_is_one_read_only_array():
    bank = small_bank(np.random.default_rng(1))
    rows = bank.rows()
    assert rows is bank.rows() and rows.shape == (7, 8)
    assert np.shares_memory(bank.pos, rows) and np.shares_memory(bank.neg, rows)
    assert np.array_equal(np.vstack([bank.pos, bank.neg]), rows)
    assert not rows.flags.writeable


def test_bank_needs_positive_rows():
    with pytest.raises(InvalidDim):
        FeatureBank.from_rows(np.zeros((0, 4)), unit_rows(np.random.default_rng(0), 2, 4))


# ---- initialization ----


@pytest.mark.parametrize("mode", MODES)
def test_identity_at_init(mode):
    rng = np.random.default_rng(10)
    state = init_model(8, hidden=4, mode=mode, seed=3)
    bank = small_bank(rng)
    for _ in range(5):
        v = unit_rows(rng, 1, 8)[0]
        out = transform_bank(state, bank, v)
        assert np.max(np.abs(out - bank.rows())) < 1e-12


def test_init_deterministic():
    a = init_model(16, hidden=8, mode="scale_shift", seed=42)
    b = init_model(16, hidden=8, mode="scale_shift", seed=42)
    assert states_equal(a, b)
    c = init_model(16, hidden=8, mode="scale_shift", seed=43)
    assert not states_equal(a, c)


def test_init_rejects_bad_dims():
    with pytest.raises(InvalidDim):
        init_model(0)
    with pytest.raises(InvalidDim):
        init_model(8, hidden=0)
    with pytest.raises(InvalidDim):
        init_model(8, mode="nonsense")


def test_init_trunk_within_uniform_bound():
    state = init_model(16, hidden=8, seed=0)
    bound = 1.0 / np.sqrt(16)
    for net in ("pos_net", "neg_net"):
        assert np.all(np.abs(state.arrays[f"{net}.w1"]) <= bound)
        assert np.all(np.abs(state.arrays[f"{net}.b1"]) <= bound)
        assert not np.any(state.arrays[f"{net}.w_alpha"])
        assert not np.any(state.arrays[f"{net}.w_beta"])


# ---- meta-net ----


def test_metanet_fresh_outputs_zero():
    state = init_model(8, hidden=4, seed=1)
    v = unit_rows(np.random.default_rng(0), 1, 8)[0]
    a, b, _, _ = role_terms(state, "positive", v)
    # zero-initialized meta-net heads leave the head's identity scale and shift
    assert np.array_equal(a, np.ones(8)) and not np.any(b)


def test_metanet_hand_oracle():
    # one hidden unit per output coordinate so the product is hand-checkable
    state = init_model(3, hidden=2, mode="scale_shift", seed=0)
    params = state.params()
    params["pos_net.w1"][...] = [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
    params["pos_net.b1"][...] = [0.0, 0.5]
    params["pos_net.w_alpha"][...] = [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]
    params["pos_net.b_alpha"][...] = [0.1, 0.0, 0.0]
    params["pos_net.b_beta"][...] = [0.0, 0.0, 7.0]
    v = np.array([0.5, 0.25, 0.0])
    # z = [0.5, 0.25], relu keeps both
    a, b, z, h = role_terms(state, "positive", v)
    assert np.array_equal(z, [0.5, 0.25]) and np.array_equal(h, z)
    assert np.allclose(a, 1.0 + np.array([0.6, 0.25, 1.0]), atol=1e-15)
    assert np.allclose(b, [0.0, 0.0, 7.0], atol=1e-15)


def test_metanet_wrong_length_rejected():
    state = init_model(8, hidden=4, seed=1)
    with pytest.raises(DimMismatch):
        tune_one(state, np.ones(8) / np.sqrt(8), np.ones(5))


# ---- transform ----


def test_uniform_scaling_removed_by_normalization():
    state = init_model(6, hidden=4, mode="scale_shift", seed=0)
    state.arrays["pos_head.alpha"][:] = 2.0
    rng = np.random.default_rng(7)
    c = unit_rows(rng, 1, 6)[0]
    v = unit_rows(rng, 1, 6)[0]
    assert np.allclose(tune_one(state, c, v), c, atol=1e-12)


def test_shift_by_basis_vector_oracle():
    state = init_model(4, hidden=4, mode="scale_shift", seed=0)
    state.arrays["pos_head.beta"][0] = 1.0
    c = np.array([0.0, 1.0, 0.0, 0.0])
    v = np.array([1.0, 0.0, 0.0, 0.0])
    out = tune_one(state, c, v)
    root_half = np.sqrt(2.0) / 2.0
    assert np.allclose(out, [root_half, root_half, 0.0, 0.0], atol=1e-12)


def test_transform_degenerate_parameters_raise():
    state = init_model(4, hidden=4, mode="scale_shift", seed=0)
    state.arrays["pos_head.alpha"][:] = 0.0  # alpha*c + beta == 0
    c = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ZeroNorm):
        tune_one(state, c, c)


# ---- transform_bank ----


@pytest.mark.parametrize("mode", MODES)
def test_transform_bank_matches_row_by_row(mode):
    rng = np.random.default_rng(11)
    state = init_model(8, hidden=4, mode=mode, seed=5)
    for arr in state.params().values():
        arr += 0.1 * rng.standard_normal(arr.shape)
    bank = FeatureBank.from_rows(unit_rows(rng, 2, 8), unit_rows(rng, 3, 8))
    v = unit_rows(rng, 1, 8)[0]
    out = transform_bank(state, bank, v)
    # batched matmul may differ from row-at-a-time in the last float bit
    for i in range(2):
        row = bank_reference.transform_rows(state, bank.pos[i], v, "positive")[0]
        assert np.max(np.abs(out[i] - row)) < 1e-12
    for j in range(3):
        row = bank_reference.transform_rows(state, bank.neg[j], v, "negative")[0]
        assert np.max(np.abs(out[2 + j] - row)) < 1e-12


def test_transform_bank_rows_unit_norm():
    rng = np.random.default_rng(12)
    state = init_model(8, hidden=4, mode="scale_shift", seed=5)
    for arr in state.params().values():
        arr += 0.2 * rng.standard_normal(arr.shape)
    bank = small_bank(rng)
    v = unit_rows(rng, 1, 8)[0]
    norms = np.linalg.norm(transform_bank(state, bank, v), axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_positive_negative_independence():
    rng = np.random.default_rng(13)
    state = init_model(8, hidden=4, mode="scale_shift", seed=5)
    bank = small_bank(rng)
    v = unit_rows(rng, 1, 8)[0]
    before = transform_bank(state, bank, v)
    state.arrays["neg_head.beta"] += 0.5
    state.arrays["neg_net.w_beta"] += rng.standard_normal(state.arrays["neg_net.w_beta"].shape)
    after = transform_bank(state, bank, v)
    assert np.array_equal(before[: bank.n_pos], after[: bank.n_pos])
    assert not np.array_equal(before[bank.n_pos :], after[bank.n_pos :])

    state2 = init_model(8, hidden=4, mode="scale_shift", seed=5)
    before2 = transform_bank(state2, bank, v)
    state2.arrays["pos_head.beta"] += 0.5
    after2 = transform_bank(state2, bank, v)
    assert np.array_equal(before2[bank.n_pos :], after2[bank.n_pos :])


def test_joint_rescale_invariance():
    rng = np.random.default_rng(14)
    state = init_model(6, hidden=4, mode="scale_shift", seed=2)
    state.arrays["pos_head.alpha"][:] = rng.uniform(0.5, 1.5, 6)
    state.arrays["pos_head.beta"][:] = rng.standard_normal(6) * 0.3
    c = unit_rows(rng, 1, 6)[0]
    v = unit_rows(rng, 1, 6)[0]
    base = tune_one(state, c, v)
    for k in (2.0, 0.25, 17.0):
        scaled = state.copy()
        scaled.arrays["pos_head.alpha"][:] *= k
        scaled.arrays["pos_head.beta"][:] *= k
        assert np.allclose(tune_one(scaled, c, v), base, atol=1e-10)


def test_transform_bank_dim_mismatch():
    state = init_model(8, seed=0)
    rng = np.random.default_rng(15)
    bank = FeatureBank.from_rows(unit_rows(rng, 2, 16), unit_rows(rng, 2, 16))
    with pytest.raises(DimMismatch):
        transform_bank(state, bank, unit_rows(rng, 1, 16)[0])


# ---- checkpoints ----


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    state = init_model(8, hidden=4, mode="mlp", seed=9)
    for arr in state.params().values():
        arr += rng.standard_normal(arr.shape)
    ckpt = Checkpoint(model=state, config={"lr": 1e-5}, meta={"seed": 9})
    path = tmp_path / "model.nftc"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert states_equal(loaded.model, state)
    assert loaded.config == {"lr": 1e-5}
    assert loaded.meta == {"seed": 9}


def test_checkpoint_reserialization_byte_identical(tmp_path):
    state = init_model(8, hidden=4, mode="vec_shift", seed=1)
    p1 = tmp_path / "a.nftc"
    p2 = tmp_path / "b.nftc"
    save_checkpoint(Checkpoint(model=state), p1)
    save_checkpoint(Checkpoint(model=load_checkpoint(p1).model), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_truncated_rejected(tmp_path):
    state = init_model(8, hidden=4, seed=1)
    path = tmp_path / "model.nftc"
    save_checkpoint(Checkpoint(model=state), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "model.nftc"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    state = init_model(8, hidden=4, seed=1)
    path = tmp_path / "model.nftc"
    save_checkpoint(Checkpoint(model=state), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_wrong_dim_fails_at_use_site(tmp_path):
    state = init_model(16, hidden=8, seed=1)
    path = tmp_path / "model.nftc"
    save_checkpoint(Checkpoint(model=state), path)
    loaded = load_checkpoint(path).model
    rng = np.random.default_rng(17)
    bank32 = FeatureBank.from_rows(unit_rows(rng, 2, 32), unit_rows(rng, 2, 32))
    with pytest.raises(DimMismatch):
        transform_bank(loaded, bank32, unit_rows(rng, 1, 32)[0])


# ---- live parameters and checkpoint versions ----

LIVE_KEYS = {
    "const_shift": {"head.beta"},
    "vec_shift": {"head.beta", "net.w1", "net.b1", "net.w_beta", "net.b_beta"},
    "scale_shift": {"head.alpha", "head.beta", "net.w1", "net.b1", "net.w_alpha",
                    "net.b_alpha", "net.w_beta", "net.b_beta"},
    "mlp": {"net.w1", "net.b1", "net.w_beta", "net.b_beta"},
}


@pytest.mark.parametrize("mode, scalars", [
    ("const_shift", 2), ("vec_shift", 592), ("scale_shift", 912), ("mlp", 560)])
def test_params_hold_only_live_arrays(mode, scalars):
    state = init_model(16, hidden=8, mode=mode, seed=0)
    params = state.params()
    assert set(params) == {f"{p}_{k}" for p in ("pos", "neg") for k in LIVE_KEYS[mode]}
    assert sum(a.size for a in params.values()) == scalars
    assert set(state.copy().params()) == set(params)


def test_const_shift_checkpoint_holds_two_values(tmp_path):
    state = init_model(16, hidden=8, mode="const_shift", seed=0)
    state.arrays["pos_head.beta"][0], state.arrays["neg_head.beta"][0] = 0.25, -0.5
    path = tmp_path / "c.nftc"
    save_checkpoint(Checkpoint(model=state), path)
    data = path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", data, 16)
    assert data[4] == 2 and len(data) == 20 + meta_len + 2 * 8
    assert struct.unpack_from("<2d", data, 20 + meta_len) == (0.25, -0.5)


def _v1_fixture_inputs():
    with open(os.path.join(FIXTURES, "v1_checkpoints.json")) as f:
        spec = json.load(f)
    rng = np.random.default_rng(spec["data_seed"])
    bank = FeatureBank.from_rows(unit_rows(rng, spec["n_pos"], spec["dim"]),
                                 unit_rows(rng, spec["n_neg"], spec["dim"]))
    images = unit_rows(rng, spec["n_images"], spec["dim"])
    return spec, bank, images


@pytest.mark.parametrize("mode", MODES)
def test_v1_checkpoint_loads_to_identical_scores(mode):
    # written by the v1 writer: init_model(8, hidden=4) with every one of the
    # 16 arrays moved off its initial value, dead ones included
    spec, bank, images = _v1_fixture_inputs()
    path = os.path.join(FIXTURES, f"v1_{mode}.nftc")
    with open(path, "rb") as f:
        assert f.read(5)[4] == 1
    ckpt = load_checkpoint(path)
    assert ckpt.model.mode == mode and ckpt.config == {"mode": mode}
    assert isinstance(ckpt.model, ModelState)
    assert {k.split("_", 1)[1] for k in ckpt.model.params()} == LIVE_KEYS[mode]
    got = score_many(images, "krnft", bank, state=ckpt.model, tau_score=spec["tau_score"])
    assert np.array_equal(got, np.array(spec["krnft_scores"][mode]))


@pytest.mark.parametrize("mode", MODES)
def test_v1_checkpoint_resaves_as_v2(tmp_path, mode):
    ckpt = load_checkpoint(os.path.join(FIXTURES, f"v1_{mode}.nftc"))
    first, second = tmp_path / "a.nftc", tmp_path / "b.nftc"
    save_checkpoint(ckpt, first)
    assert first.read_bytes()[4] == 2
    reloaded = load_checkpoint(first)
    assert states_equal(reloaded.model, ckpt.model)
    save_checkpoint(reloaded, second)
    assert second.read_bytes() == first.read_bytes()


def _states_of_every_origin(mode, tmp_path):
    """A mode's state as init_model, load_checkpoint of a v2 and of a v1 file, and copy
    give it."""
    state = init_model(8, hidden=4, mode=mode, seed=5)
    for arr in state.arrays.values():
        arr += 0.25
    save_checkpoint(Checkpoint(model=state), tmp_path / "v2.nftc")
    return {"init": state, "v2": load_checkpoint(tmp_path / "v2.nftc").model,
            "v1": load_checkpoint(os.path.join(FIXTURES, f"v1_{mode}.nftc")).model,
            "copy": state.copy()}


@pytest.mark.parametrize("mode", MODES)
def test_role_arrays_are_the_live_arrays(mode, tmp_path):
    for origin, state in _states_of_every_origin(mode, tmp_path).items():
        for role, prefix in (("positive", "pos_"), ("negative", "neg_")):
            got = role_arrays(state.arrays, mode, role)
            assert set(got) == {k.split(".")[1] for k in LIVE_KEYS[mode]}, origin
            # the oracle: the arrays whose key has the role's prefix, named after the dot
            assert all(got[k.split(".")[1]] is a for k, a in state.arrays.items()
                       if k.startswith(prefix)), origin


@pytest.mark.parametrize("mode", MODES)
def test_role_arrays_see_in_place_edits(mode, tmp_path):
    for origin, state in _states_of_every_origin(mode, tmp_path).items():
        for i, arr in enumerate(state.arrays.values()):
            arr.reshape(-1)[0] = 10.0 + i  # as finite_diff_grad probes a parameter
        got = [a for role in ("positive", "negative")
               for a in role_arrays(state.arrays, mode, role).values()]
        assert sorted(a.flat[0] for a in got) == [10.0 + i for i in range(len(got))], origin
