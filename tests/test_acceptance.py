"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS line (visible with pytest -s or in the -v
test listing) and enforces its runtime budget.
"""

import json
import os
import time

import numpy as np

from conftest import unit_rows
from loss_reference import loss_kr_feature
from nft_ood.data_io import SynthConfig, synth_dataset
from nft_ood.model import (
    MODES,
    Checkpoint,
    FeatureBank,
    init_model,
    load_checkpoint,
    save_checkpoint,
    states_equal,
    transform_bank,
)
from nft_ood.objectives import finite_diff_grad, max_relative_error
from nft_ood.scoring import (
    auroc,
    evaluate,
    fpr_at_tpr,
    hmean,
    score_krnft,
    score_many,
    score_neglabel,
)
from nft_ood.trainer import TrainConfig, gradcheck_instance, train

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "fixtures",
                            "fixture_metrics.json")

KR_VARIANTS = ("feature", "logits", "prob")


def load_fixture():
    with open(FIXTURE_PATH) as f:
        return json.load(f)


def fixture_dataset():
    return synth_dataset(SynthConfig())  # D=32, N=8, M=64, S=4, P=16, Q=4, seed=7


def run_fixture_training(lambda2=100.0):
    fix = load_fixture()
    res = fixture_dataset()
    t = fix["train"]
    state = init_model(res.bank.dim, mode=t["mode"], seed=t["model_seed"])
    cfg = TrainConfig(
        lambda1=t["lambda1"], lambda2=lambda2, lr=t["lr"], epochs=t["epochs"],
        batch_size=t["batch_size"], tau_loss=t["tau_loss"], seed=t["seed"],
        kr_variant=t["kr_variant"], kr_scope=t["kr_scope"],
    )
    ckpt, trace = train(state, res.bank, res.training, cfg)
    return res, ckpt, trace


def report(name, elapsed, budget):
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s / budget {budget}s)")


def test_criterion_1_identity_at_initialization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(10):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(1, 65))
        d = int(rng.integers(4, 65))
        bank = FeatureBank.from_rows(unit_rows(rng, n, d), unit_rows(rng, m, d))
        state = init_model(d, seed=int(rng.integers(1 << 30)))
        for _ in range(100):
            v = unit_rows(rng, 1, d)[0]
            zero_shot = score_neglabel(v, bank.rows(), n)
            assert abs(score_krnft(state, v, bank) - zero_shot) < 1e-10
            assert abs(loss_kr_feature(bank, transform_bank(state, bank, v))) < 1e-12
    report("1 identity-at-initialization", time.perf_counter() - t0, 5.0)


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    per_mode = {mode: 0 for mode in MODES}
    per_variant = {v: 0 for v in KR_VARIANTS}
    for mi, mode in enumerate(MODES):
        for vi, variant in enumerate(KR_VARIANTS):
            for s in range(7):
                base_seed = 10000 * mi + 100 * vi + s
                state, bank, batch, cfg, grads = gradcheck_instance(
                    mode, variant, base_seed
                )
                fd = finite_diff_grad(state, bank, batch, cfg, eps=1e-5)
                err = max_relative_error(grads, fd)
                assert err < 1e-4, f"{mode}/{variant} seed {base_seed}: {err:.2e}"
                worst = max(worst, err)
                per_mode[mode] += 1
                per_variant[variant] += 1
    assert all(c >= 20 for c in per_mode.values())
    assert all(c >= 20 for c in per_variant.values())
    elapsed = time.perf_counter() - t0
    report(f"2 gradient-correctness (worst {worst:.1e})", elapsed, 60.0)


def test_criterion_3_metric_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(100):
        n_id = int(rng.integers(1, 201))
        n_ood = int(rng.integers(1, 201))
        # half the instances use a coarse grid to force ties
        if rng.integers(2):
            ids = rng.integers(0, 12, n_id) / 12.0
            oods = rng.integers(0, 12, n_ood) / 12.0
        else:
            ids = rng.standard_normal(n_id)
            oods = rng.standard_normal(n_ood)
        wins = (ids[:, None] > oods[None, :]).sum()
        ties = (ids[:, None] == oods[None, :]).sum()
        assert auroc(ids, oods) == (wins + 0.5 * ties) / (n_id * n_ood)

        got_fpr, got_thr = fpr_at_tpr(ids, oods, tpr=0.95)
        best = None
        for t in np.unique(ids)[::-1]:
            if np.mean(ids >= t) >= 0.95:
                best = t
                break
        assert got_thr == best
        assert got_fpr == np.mean(oods >= best)
    report("3 metric-oracles", time.perf_counter() - t0, 10.0)


def test_criterion_4_paper_checkable_arithmetic():
    t0 = time.perf_counter()
    assert abs(hmean(22.79, 11.41) - 15.21) < 0.01
    # exact harmonic mean of the printed pair is 16.4373; the published table
    # shows 16.45, computed before its inputs were rounded to two decimals
    assert abs(hmean(25.40, 12.15) - 16.45) < 0.02
    report("4 paper-checkable-arithmetic", time.perf_counter() - t0, 5.0)


def test_criterion_5_end_to_end_fixture():
    t0 = time.perf_counter()
    fix = load_fixture()
    res, ckpt, trace = run_fixture_training()

    sid0 = score_many(res.test_id, "neglabel", res.bank)
    sood0 = score_many(res.test_ood, "neglabel", res.bank)
    zero_shot = evaluate(sid0, sood0)
    sid = score_many(res.test_id, "krnft", res.bank, state=ckpt.model)
    sood = score_many(res.test_ood, "krnft", res.bank, state=ckpt.model)
    trained = evaluate(sid, sood)

    means = list(trace.epoch_mean_totals().values())
    assert means[-1] < means[0], "final epoch loss must fall below the first"
    assert trained.fpr95 <= zero_shot.fpr95

    # frozen fixture values, enforced to 1e-6
    for got, key in (
        (zero_shot.auroc, ("zero_shot", "auroc")),
        (zero_shot.fpr95, ("zero_shot", "fpr95")),
        (trained.auroc, ("trained", "auroc")),
        (trained.fpr95, ("trained", "fpr95")),
    ):
        assert abs(got - fix[key[0]][key[1]]) < 1e-6, key
    for got, want in zip(means, fix["epoch_mean_totals"]):
        assert abs(got - want) < 1e-6
    assert trace.digest() == fix["trace_digest"]
    report("5 end-to-end-fixture", time.perf_counter() - t0, 60.0)


def test_criterion_6_lambda2_regularization_effect():
    t0 = time.perf_counter()
    res = fixture_dataset()
    rows0 = res.bank.rows()
    test_imgs = np.vstack([res.test_id, res.test_ood])
    displacement = {}
    for lam2 in (0.0, 10.0, 100.0, 1000.0):
        _, ckpt, _ = run_fixture_training(lambda2=lam2)
        displacement[lam2] = float(np.mean([
            np.mean(np.linalg.norm(transform_bank(ckpt.model, res.bank, v) - rows0,
                                   axis=1))
            for v in test_imgs
        ]))
    assert displacement[1000.0] <= displacement[0.0]
    report("6 lambda2-regularization-effect", time.perf_counter() - t0, 120.0)


def test_criterion_7_limiting_case_separation():
    t0 = time.perf_counter()
    res = synth_dataset(SynthConfig(kappa=0.0))
    sid = score_many(res.test_id, "neglabel", res.bank)
    sood = score_many(res.test_ood, "neglabel", res.bank)
    rep = evaluate(sid, sood)
    assert rep.auroc == 1.0
    assert rep.fpr95 == 0.0
    report("7 limiting-case-separation", time.perf_counter() - t0, 5.0)


def test_criterion_8_selection_oracles():
    from nft_ood.mining import CandidateLexicon, CropSet, mine_negative_labels, \
        select_outliers

    t0 = time.perf_counter()
    rng = np.random.default_rng(108)

    # crop selection at paper scale
    feats = unit_rows(rng, 256, 32)
    label = unit_rows(rng, 1, 32)[0]
    sel = select_outliers(CropSet("s", 0, feats), label, 32)
    sims = feats @ label
    desc = sorted(range(256), key=lambda i: (-sims[i], i))
    top = sorted(desc[:32])
    rest = [i for i in range(256) if i not in set(top)]
    bottom = sorted(sorted(rest, key=lambda i: (sims[i], i))[:32])
    assert sel.top_indices.tolist() == top
    assert sel.bottom_indices.tolist() == bottom

    # mining at 10k/20k scale; duplicated rows force exact statistic ties
    lex_feats = np.tile(unit_rows(rng, 5000, 16), (4, 1))
    id_rows = unit_rows(rng, 8, 16)
    lex = CandidateLexicon(lex_feats, [f"w{i}" for i in range(20000)])
    statistic = (lex_feats @ id_rows.T).max(axis=1)
    assert np.unique(statistic).size < statistic.size, "tie coverage"
    order = sorted(range(20000), key=lambda i: (statistic[i], i))
    for m in (10, 1000, 10000):
        got = mine_negative_labels(lex, id_rows, m)
        assert got.tolist() == order[:m]
    report("8 selection-oracles", time.perf_counter() - t0, 30.0)


def test_criterion_9_determinism_and_formats(tmp_path):
    from nft_ood.data_io import read_bank, write_bank

    t0 = time.perf_counter()

    # synth determinism
    a = synth_dataset(SynthConfig())
    b = synth_dataset(SynthConfig())
    assert np.array_equal(a.bank.rows(), b.bank.rows())
    assert np.array_equal(a.test_id, b.test_id)

    # FBNK round-trip is lossless for float32-representable payloads
    mat = a.bank.rows().astype(np.float32).astype(np.float64)
    bank_path = tmp_path / "bank.fbnk"
    write_bank(bank_path, mat)
    assert np.array_equal(read_bank(bank_path), mat)
    write_bank(tmp_path / "bank2.fbnk", mat)
    assert bank_path.read_bytes() == (tmp_path / "bank2.fbnk").read_bytes()

    # train determinism: byte-identical checkpoints from identical runs
    cfg = TrainConfig(lr=1e-5, epochs=1, seed=0)
    paths = []
    for name in ("c1.nftc", "c2.nftc"):
        state = init_model(a.bank.dim, mode="scale_shift", seed=0)
        ckpt, _ = train(state, a.bank, a.training, cfg)
        p = tmp_path / name
        save_checkpoint(ckpt, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    # checkpoint round-trip preserves every parameter bit
    loaded = load_checkpoint(paths[0])
    reread = tmp_path / "c3.nftc"
    save_checkpoint(Checkpoint(model=loaded.model, config=loaded.config,
                               meta=loaded.meta), reread)
    assert reread.read_bytes() == paths[0].read_bytes()

    # score determinism
    model = loaded.model
    s1 = score_many(a.test_id[:32], "krnft", a.bank, state=model)
    s2 = score_many(a.test_id[:32], "krnft", a.bank, state=model)
    assert np.array_equal(s1, s2)
    assert states_equal(model, load_checkpoint(paths[1]).model)
    report("9 determinism-and-formats", time.perf_counter() - t0, 10.0)
