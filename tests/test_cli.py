import csv
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest

from nft_ood import cli, scoring
from nft_ood.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from nft_ood.data_io import (SynthConfig, read_bank, read_dataset, read_manifest, synth_dataset,
                             write_bank, write_dataset, write_manifest)
from nft_ood.model import MODES, Checkpoint, FeatureBank, init_model, save_checkpoint
from nft_ood.objectives import finite_diff_grad, max_relative_error
from nft_ood.scoring import score_many
from nft_ood.trainer import TrainConfig, gradcheck_instance
from selection_reference import oracle_select, oracle_synth


def run(*argv):
    return main(list(argv))


def read_scores(path):
    with open(path) as f:
        return [float(row["score"]) for row in csv.DictReader(f)]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    assert run("synth", "--out", str(out)) == EXIT_OK
    return out


# past int()'s 4,300-digit limit json raises a plain ValueError, not JSONDecodeError
HUGE_INT = b"1" * 5000


def assert_one_line(err, *needles):
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    for needle in needles:
        assert needle in err


def copy_dataset(src, dst, keep=lambda rec: True):
    """Copy a dataset directory, keeping only the manifest records keep accepts."""
    dst.mkdir()
    for name in ("labels.fbnk", "train.fbnk", "test_id.fbnk"):
        (dst / name).write_bytes((src / name).read_bytes())
    records = [r for r in read_manifest(src / "manifest.jsonl") if keep(r)]
    write_manifest(dst / "manifest.jsonl", records)
    return records


def label_dir(d, rows, n_pos):
    """Dataset directory d of label rows alone, scaled to unit norm: the first n_pos
    positive, the rest negative."""
    d.mkdir()
    write_bank(d / "labels.fbnk", rows / np.linalg.norm(rows, axis=1, keepdims=True))
    write_manifest(d / "manifest.jsonl", [
        {"row": i, "id": f"pos_{i}", "role": "pos_label", "class": i} if i < n_pos
        else {"row": i, "id": f"neg_{i - n_pos}", "role": "neg_label"}
        for i in range(rows.shape[0])])
    return d


def tiny_bank_dir(tmp_path, n_pos=1):
    """Dataset directory with n_pos positive labels and one negative label."""
    return label_dir(tmp_path / "bank", np.eye(4)[: n_pos + 1], n_pos)


# ---- synth ----


def test_synth_file_inventory(synth_dir):
    expected = {
        "labels.fbnk",
        "train.fbnk",
        "test_id.fbnk",
        "test_ood.fbnk",
        "manifest.jsonl",
        "config.json",
    }
    assert {p.name for p in synth_dir.iterdir()} == expected
    cfg = json.loads((synth_dir / "config.json").read_text())
    assert cfg["dim"] == 32 and cfg["seed"] == 7


def test_synth_rerun_byte_identical(synth_dir, tmp_path):
    other = tmp_path / "again"
    assert run("synth", "--out", str(other)) == EXIT_OK
    for name in ("labels.fbnk", "train.fbnk", "test_id.fbnk", "test_ood.fbnk",
                 "manifest.jsonl"):
        assert (other / name).read_bytes() == (synth_dir / name).read_bytes()


def test_synth_bad_config_exit_code(tmp_path):
    assert run("synth", "--out", str(tmp_path / "x"), "--dim", "0") == EXIT_USAGE


@pytest.mark.parametrize("config, argv, needle", [
    ({"background_fraction": 2.0}, [], "background_fraction"),  # once exit 4
    ({"background_fraction": -1.0}, [], "background_fraction"),
    ({}, ["--kappa", "nan"], "kappa"),  # once exit 2
    ({}, ["--kappa", "inf"], "kappa"),
], ids=["fraction-above-1", "fraction-below-0", "kappa-nan", "kappa-inf"])
def test_synth_config_out_of_range_is_usage_error(tmp_path, capsys, config, argv, needle):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x"
    assert run("synth", "--config", str(cfg), *argv, "--out", str(out)) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, needle)
    assert not out.exists()


@pytest.mark.parametrize("value", [2**61, 2**62, 2**64 - 1, 2**64])
@pytest.mark.parametrize("flag", ["--dim", "--n-classes", "--m-neg", "--shots",
                                  "--crops-per-sample", "--n-test-per-class", "--n-test-ood"])
def test_synth_size_numpy_cannot_shape_is_usage_error(tmp_path, capsys, flag, value):
    # --shots 2**62 and --n-test-per-class 2**61 once died with SIGSEGV in np.repeat; the
    # others exited 4 with a traceback
    c = dict(asdict(SynthConfig()), **{flag[2:].replace("-", "_"): value})
    rows = max(c["n_classes"] + c["m_neg"], c["n_classes"] * c["shots"] * c["crops_per_sample"],
               c["n_classes"] * c["n_test_per_class"], c["n_test_ood"])
    out = tmp_path / "x"
    assert run("synth", "--out", str(out), flag, str(value)) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: dim * max(n_classes + m_neg, n_classes * shots * crops_per_sample, n_classes * "
        f"n_test_per_class, n_test_ood) = {c['dim'] * rows} > {2**60 - 1}, more than numpy can "
        "shape\n")
    assert not out.exists()


@pytest.mark.parametrize("kappa", ["1e160", "1e200", "1e308"])
def test_synth_kappa_that_overflows_is_numeric_failure(tmp_path, capsys, kappa):
    # 1e160 and 1e200 once exited 0 with all-zero train, test_id and test_ood rows after a
    # RuntimeWarning; 1e308 exited 2 after one
    out = tmp_path / "x"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("synth", "--out", str(out), "--kappa", kappa) == EXIT_NUMERIC
    assert not caught
    assert capsys.readouterr().err == "numeric failure: a row's norm overflows\n"
    assert not out.exists()


# ---- mining commands ----


def test_mine_neg_cli(tmp_path):
    rng = np.random.default_rng(90)
    feats = rng.standard_normal((20, 8))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    ids = rng.standard_normal((3, 8))
    ids /= np.linalg.norm(ids, axis=1, keepdims=True)
    write_bank(tmp_path / "lex.fbnk", feats)
    write_bank(tmp_path / "ids.fbnk", ids)
    out = tmp_path / "mined.json"
    assert run(
        "mine-neg", "--lexicon", str(tmp_path / "lex.fbnk"),
        "--id-bank", str(tmp_path / "ids.fbnk"), "-m", "5", "--out", str(out),
    ) == EXIT_OK
    picked = json.loads(out.read_text())["indices"]
    from nft_ood.mining import CandidateLexicon, mine_negative_labels

    lex = CandidateLexicon(feats, [f"cand_{i}" for i in range(20)])
    assert picked == mine_negative_labels(lex, ids, 5).tolist()


@pytest.mark.parametrize("extra", [[], ["--quantile", "1.5"]])
def test_mine_neg_bad_quantile_is_usage_error(tmp_path, capsys, extra):
    rng = np.random.default_rng(95)
    write_bank(tmp_path / "lex.fbnk", np.linalg.qr(rng.standard_normal((8, 8)))[0])
    assert run("mine-neg", "--lexicon", str(tmp_path / "lex.fbnk"),
               "--id-bank", str(tmp_path / "lex.fbnk"), "-m", "2", "--stat", "quantile",
               *extra, "--out", str(tmp_path / "mined.json")) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "--quantile")


@pytest.mark.parametrize("m", ["0", "-1"])  # -1 once wrote 19 of 20 candidates
def test_mine_neg_count_below_one_is_usage_error(tmp_path, capsys, m):
    lex = np.random.default_rng(97).standard_normal((20, 8))
    write_bank(tmp_path / "lex.fbnk", lex / np.linalg.norm(lex, axis=1, keepdims=True))
    out = tmp_path / "mined.json"
    assert run("mine-neg", "--lexicon", str(tmp_path / "lex.fbnk"),
               "--id-bank", str(tmp_path / "lex.fbnk"), "-m", m, "--out", str(out)) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, f"m={m}")
    assert not out.exists()


def test_select_crops_cli(tmp_path):
    rng = np.random.default_rng(91)
    crops = rng.standard_normal((12, 8))
    crops /= np.linalg.norm(crops, axis=1, keepdims=True)
    data = label_dir(tmp_path / "data", rng.standard_normal((3, 8)), n_pos=2)
    write_bank(tmp_path / "crops.fbnk", crops)
    records = [
        {"row": i, "id": f"crop_{i}", "role": "crop",
         "class": i // 6, "parent": f"img_{i // 6}"}
        for i in range(12)
    ]
    write_manifest(tmp_path / "crops.jsonl", records)
    out = tmp_path / "training"
    assert run(
        "select-crops", "--crops", str(tmp_path / "crops.fbnk"),
        "--crops-manifest", str(tmp_path / "crops.jsonl"),
        "--data", str(data), "-q", "2", "--out", str(out),
    ) == EXIT_OK
    assert {p.name for p in out.iterdir()} == {"labels.fbnk", "train.fbnk", "manifest.jsonl",
                                               "config.json"}
    mat = read_bank(out / "train.fbnk")
    back = read_manifest(out / "manifest.jsonl")
    assert mat.shape == (8, 8)  # 2 parents x q=2 top + q=2 bottom
    assert sum(r["role"] == "train_pos" for r in back) == 4
    assert sum(r["role"] == "train_neg" for r in back) == 4
    # the 3 label records, then the training rows numbered after them
    expected = (
        read_manifest(data / "manifest.jsonl")
        + [{"class": c, "id": f"train_pos_{i}", "role": "train_pos", "row": 3 + i}
           for i, c in enumerate([0, 0, 1, 1])]
        + [{"id": f"train_neg_{i}", "role": "train_neg", "row": 7 + i} for i in range(4)])
    assert (out / "manifest.jsonl").read_text() == "".join(
        json.dumps(r, sort_keys=True) + "\n" for r in expected)
    assert run("train", "--data", str(out), "--out", str(tmp_path / "run"),
               "--epochs", "1") == EXIT_OK


@pytest.mark.parametrize("n_classes", [8, 12])
def test_select_crops_output_trains_and_scores_as_synth_does(n_classes, tmp_path):
    # synth -> select-crops -> train -> score -> eval on the crop sets synth drew its D_p/D_n
    # from. select-crops keeps the crops manifest's order of (parent, class) groups, which is
    # synth's: at 12 classes a string sort would put train_10_0 before train_1_0.
    synth_dir = tmp_path / "synth"
    assert run("synth", "--out", str(synth_dir), "--n-classes", str(n_classes)) == EXIT_OK
    cfg = SynthConfig(n_classes=n_classes)
    want = oracle_synth(cfg)
    write_bank(tmp_path / "crops.fbnk", np.concatenate([cs.features for cs in want.crop_sets]))
    parents = [(cs.parent_id, cs.label_index) for cs in want.crop_sets for _ in cs.features]
    write_manifest(tmp_path / "crops.jsonl", [
        {"row": i, "id": f"crop_{i}", "role": "crop", "class": c, "parent": p}
        for i, (p, c) in enumerate(parents)])
    # the files hold float32: say so if that rounding moves a pick away from synth's
    crops = read_bank(tmp_path / "crops.fbnk")
    bank, _ = read_dataset(synth_dir, training=False)
    q, lo, moved = cfg.select, 0, []
    for k, cs in enumerate(want.crop_sets):
        top, bottom = oracle_select(crops[lo:lo + len(cs.features)], bank.pos[cs.label_index], q)
        lo += len(cs.features)
        if not (np.array_equal(cs.features[top], want.training.pos_features[k * q:(k + 1) * q])
                and np.array_equal(cs.features[bottom],
                                   want.training.neg_features[k * q:(k + 1) * q])):
            moved.append(cs.parent_id)
    assert not moved, f"float32 rounding of the crop and label files moved the picks of {moved}"

    out = tmp_path / "selected"
    assert run("select-crops", "--crops", str(tmp_path / "crops.fbnk"),
               "--crops-manifest", str(tmp_path / "crops.jsonl"), "--data", str(synth_dir),
               "-q", str(q), "--out", str(out)) == EXIT_OK
    assert {p.name for p in out.iterdir()} == {"labels.fbnk", "train.fbnk", "manifest.jsonl",
                                               "config.json"}
    for name in ("labels.fbnk", "train.fbnk"):
        assert (out / name).read_bytes() == (synth_dir / name).read_bytes(), name
    assert read_manifest(out / "manifest.jsonl") == [
        r for r in read_manifest(synth_dir / "manifest.jsonl")
        if r["role"] not in ("test_id", "test_ood")]

    # OUT has no test banks: both runs score synth's
    run_dirs = {synth_dir: tmp_path / "run_synth", out: tmp_path / "run_selected"}
    for data, run_dir in run_dirs.items():
        assert run("train", "--data", str(data), "--out", str(run_dir), "--epochs", "2") == EXIT_OK
        for side in ("id", "ood"):
            images = synth_dir / f"test_{side}.fbnk"
            assert run("score", "--bank", str(data), "--images", str(images),
                       "--method", "krnft", "--checkpoint", str(run_dir / "checkpoint.nftc"),
                       "--tau-score", "0.01", "--out", str(run_dir / f"{side}.csv")) == EXIT_OK
        assert run("eval", "--scores-id", str(run_dir / "id.csv"),
                   "--scores-ood", str(run_dir / "ood.csv"),
                   "--out", str(run_dir / "eval.json")) == EXIT_OK
    for name in ("checkpoint.nftc", "trace.csv", "id.csv", "ood.csv", "eval.json"):
        assert ((run_dirs[out] / name).read_bytes()
                == (run_dirs[synth_dir] / name).read_bytes()), name


# ---- train ----


def test_train_deterministic(synth_dir, tmp_path):
    outs = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        assert run(
            "train", "--data", str(synth_dir), "--out", str(out),
            "--epochs", "1", "--seed", "0",
        ) == EXIT_OK
        assert (out / "trace.csv").exists()
        assert (out / "config.json").exists()
        outs.append((out / "checkpoint.nftc").read_bytes())
    assert outs[0] == outs[1]


def test_train_byte_identical_across_processes(tmp_path):
    # training and each score method in fresh processes: the same bytes, and nothing on
    # stderr, where only a real process shows a warning
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    outs = []
    for name in ("p1", "p2"):
        data, out = tmp_path / name / "synth", tmp_path / name / "run"
        argvs = [["synth", "--out", str(data)], ["train", "--data", str(data), "--out", str(out)]]
        argvs += [["score", "--bank", str(data), "--images", str(data / "test_id.fbnk"),
                   "--method", method, "--out", str(out / f"{method}.csv")]
                  + (["--checkpoint", str(out / "checkpoint.nftc")] if method == "krnft" else [])
                  for method in ("krnft", "neglabel", "mcm")]
        for argv in argvs:
            proc = subprocess.run([sys.executable, "-m", "nft_ood.cli", *argv],
                                  env=env, check=True, capture_output=True, timeout=300)
            assert proc.stderr == b"", (argv, proc.stderr)
        outs.append([(out / f).read_bytes() for f in ("trace.csv", "checkpoint.nftc", "krnft.csv",
                                                        "neglabel.csv", "mcm.csv")])
    assert outs[0] == outs[1]


# runs each argv of the JSON list in sys.argv[1] through cli.main, in this process
_RUN_ARGVS = """
import json, sys
from nft_ood.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"exit != 0: {argv}")
"""


def test_outputs_byte_identical_across_blas_thread_counts(tmp_path):
    # the README's rule across thread counts: the fixture pipeline, and mid-shape scoring from
    # one checkpoint, give the same bytes at 1 and 2 BLAS threads (mid-shape training does not)
    mid = tmp_path / "mid"
    write_dataset(mid, synth_dataset(SynthConfig(dim=128, n_classes=100, m_neg=1000,
                                                 n_test_per_class=3, seed=1)))
    state = init_model(128, mode="scale_shift", seed=5)
    rng = np.random.default_rng(6)
    for arr in state.arrays.values():
        arr += 0.01 * rng.standard_normal(arr.shape)
    save_checkpoint(Checkpoint(model=state), tmp_path / "mid.nftc")
    argvs = [["synth", "--out", "data", "--seed", "3"]]
    for mode in ("scale_shift", "mlp"):
        argvs.append(["train", "--data", "data", "--out", mode, "--mode", mode,
                      "--epochs", "1", "--lr", "1e-3"])
    for run_dir, method in (("scale_shift", "krnft"), ("mlp", "krnft"), ("zero_shot", "neglabel")):
        for split in ("id", "ood"):
            argvs.append(["score", "--bank", "data", "--images", f"data/test_{split}.fbnk",
                          "--method", method, "--tau-score", "0.01",
                          "--out", f"{run_dir}_{split}.csv"]
                         + (["--checkpoint", f"{run_dir}/checkpoint.nftc"]
                            if method == "krnft" else []))
        argvs.append(["eval", "--scores-id", f"{run_dir}_id.csv",
                      "--scores-ood", f"{run_dir}_ood.csv", "--out", f"{run_dir}_eval.json"])
    for method in ("krnft", "neglabel", "mcm"):
        argvs.append(["score", "--bank", "../mid", "--images", "../mid/test_id.fbnk",
                      "--method", method, "--checkpoint", "../mid.nftc", "--tau-score", "0.01",
                      "--out", f"mid_{method}.csv"])
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = os.environ.get("PYTHONPATH")
    outs = []
    for threads in ("1", "2"):  # set before numpy is imported, in a process of its own
        cwd = tmp_path / f"threads_{threads}"
        cwd.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run([sys.executable, "-c", _RUN_ARGVS, json.dumps(argvs)], cwd=cwd,
                              env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
        # every path is relative to cwd, so the echoed configs compare too
        outs.append({str(p.relative_to(cwd)): p.read_bytes()
                     for p in sorted(cwd.rglob("*")) if p.is_file()})
    assert len(outs[0]) == 33
    assert outs[0].keys() == outs[1].keys()
    assert [k for k in outs[0] if outs[0][k] != outs[1][k]] == []


@pytest.mark.parametrize("mode", ["const_shift", "scale_shift"])
@pytest.mark.parametrize("hidden", [2**32, 2**61, 2**62, 2**64 - 1])
def test_train_hidden_past_the_checkpoint_field_is_usage_error(synth_dir, tmp_path, capsys,
                                                               hidden, mode):
    # scale_shift once exited 4 with "array is too big" at 2**62; const_shift trained, then
    # exited 4 writing the checkpoint's uint32 hidden width
    out = tmp_path / "run"
    assert run("train", "--data", str(synth_dir), "--out", str(out), "--epochs", "1",
               "--mode", mode, "--hidden", str(hidden)) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: hidden must be in [1, 2**32), got {hidden}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [
    ("--mode", "error: unknown transform mode ''\n"),
    ("--data", "error: train requires --data or a data_dir config entry\n"),
], ids=["mode", "data"])
def test_train_empty_explicit_flag_overrides_the_config_file(synth_dir, tmp_path, capsys,
                                                             flag, message):
    # an empty --mode or --data was dropped for the file's value, and training exited 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "mlp", "data_dir": str(synth_dir)}))
    out = tmp_path / "run"
    assert run("train", "--config", str(cfg), "--out", str(out), "--epochs", "1",
               flag, "") == EXIT_USAGE
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_allocation_the_machine_cannot_hold_is_one_line_usage_error(tmp_path, capsys):
    # (2**49, 1024) float64 negatives are 2**62 bytes, more than any address space maps, so no
    # page is touched; numpy's MemoryError once ended in a traceback and exit 4
    out = tmp_path / "synth"
    assert run("synth", "--out", str(out), "--dim", "1024", "--m-neg", str(2**49)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert_one_line(err)
    assert err.startswith("error: out of memory: Unable to allocate 4.00 EiB")
    assert not out.exists()


def test_train_trace_header(synth_dir, tmp_path):
    out = tmp_path / "t"
    assert run(
        "train", "--data", str(synth_dir), "--out", str(out), "--epochs", "1",
    ) == EXIT_OK
    first = (out / "trace.csv").read_text().splitlines()[0]
    assert first == "epoch,step,l_pos,l_neg,l_kr,total"


@pytest.mark.parametrize("flag, value", [
    ("--lr", "nan"), ("--lr", "inf"), ("--tau-loss", "nan"), ("--lambda1", "nan"),
    ("--lambda2", "nan"), ("--weight-decay", "nan"),  # each once an all-NaN checkpoint
])
def test_train_non_finite_value_is_usage_error(synth_dir, tmp_path, capsys, flag, value):
    out = tmp_path / "run"
    assert run("train", "--data", str(synth_dir), "--out", str(out), "--epochs", "1",
               flag, value) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, flag[2:].replace("-", "_") + " must be finite")
    assert not out.exists()


def test_train_subnormal_tau_loss_is_usage_error(synth_dir, tmp_path, capsys):
    # once exit 3: "training diverged"
    out = tmp_path / "run"
    assert run("train", "--data", str(synth_dir), "--out", str(out), "--epochs", "1",
               "--tau-loss", "1e-310") == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "tau_loss must be >= 2.2250738585072014e-308",
                    "got 1e-310")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["const_shift", "vec_shift", "scale_shift", "mlp"])
def test_train_divergence_is_numeric_error(synth_dir, tmp_path, capsys, mode):
    # once exit 0 with an all-NaN checkpoint and 8 lines of overflow warnings
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("train", "--data", str(synth_dir), "--out", str(out), "--mode", mode,
                   "--lr", "1e100", "--epochs", "1") == EXIT_NUMERIC
    assert_one_line(capsys.readouterr().err, "diverged", "epoch 0 step")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("--lr", "1e300", "--epochs", "1", "--batch-size", "1000"),  # one step
    ("--lr", "1e3", "--epochs", "3"),  # a finite loss at every step
])
def test_train_runaway_parameters_are_numeric_error(synth_dir, tmp_path, capsys, argv):
    # both once exited 0, with a largest parameter of 1e300 and 9.5e24, when only
    # the loss was checked, before each update
    out = tmp_path / "run"
    assert run("train", "--data", str(synth_dir), "--out", str(out), *argv) == EXIT_NUMERIC
    assert_one_line(capsys.readouterr().err, "diverged at epoch 0 step", "parameter norm")
    assert not out.exists()


def test_train_unknown_kr_scope_is_usage_error(synth_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert run("train", "--data", str(synth_dir), "--out", str(out),
               "--kr-scope", "neither") == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "error: unknown kr_scope 'neither'")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, needle", [
    # each once exited 0 and trained with a wrong optimizer
    ("--beta1", "2", "beta1 must be in [0, 1), got 2.0"),
    ("--beta1", "-0.5", "beta1 must be in [0, 1), got -0.5"),
    ("--beta2", "1.5", "beta2 must be in [0, 1), got 1.5"),
    ("--adam-eps", "-1", "adam_eps must be > 0, got -1.0"),
    ("--weight-decay", "-1", "weight_decay must be >= 0, got -1.0"),
    # each once exited 3, "training diverged at epoch 0 step 0": a zero bias
    # correction or 0/0, not divergence
    ("--beta1", "1", "beta1 must be in [0, 1), got 1.0"),
    ("--beta2", "1", "beta2 must be in [0, 1), got 1.0"),
    ("--adam-eps", "0", "adam_eps must be > 0, got 0.0"),
])
def test_train_optimizer_field_outside_its_range_is_usage_error(synth_dir, tmp_path, capsys,
                                                                 flag, value, needle):
    out = tmp_path / "run"
    assert run("train", "--data", str(synth_dir), "--out", str(out), "--epochs", "1",
               flag, value) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, needle)
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("how", ["synth", "train-flag", "train-config", "gradcheck"])
def test_seed_outside_uint64_is_usage_error(synth_dir, tmp_path, capsys, how, seed):
    # once exit 4 with an OverflowError or ValueError traceback
    out = tmp_path / "out"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"data_dir": str(synth_dir), "seed": seed}))
    argv = {"synth": ["synth", "--out", str(out), "--seed", str(seed)],
            "train-flag": ["train", "--data", str(synth_dir), "--out", str(out),
                           "--seed", str(seed)],
            "train-config": ["train", "--config", str(config), "--out", str(out)],
            "gradcheck": ["gradcheck", "--mode", "const_shift", "--kr-variant", "feature",
                          "--instances", "1", "--seed", str(seed)]}[how]
    assert run(*argv) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "seed must be")
    assert not out.exists()


@pytest.mark.parametrize("cls", [8, -1, 2**64])
def test_train_pos_class_outside_the_positive_labels_is_data_error(synth_dir, tmp_path,
                                                                   capsys, cls):
    # 2**64 once overflowed into exit 4; the others failed on the first batch
    d = tmp_path / "bad"
    records = copy_dataset(synth_dir, d)
    victim = next(r for r in records if r["role"] == "train_pos")
    victim["class"] = cls
    write_manifest(d / "manifest.jsonl", records)
    assert run("train", "--data", str(d), "--out", str(tmp_path / "t"),
               "--epochs", "1") == EXIT_DATA
    assert_one_line(capsys.readouterr().err, f"row {victim['row']} ", repr(victim["id"]),
                    f"class {cls}, outside the 8 pos_label rows")


@pytest.mark.parametrize("cmd, cls", [("synth", SynthConfig), ("train", TrainConfig)])
def test_every_config_field_has_its_flag(cmd, cls):
    for f in fields(cls):
        args = cli.build_parser().parse_args(
            [cmd, "--out", "o", "--" + f.name.replace("_", "-"), str(f.default)])
        assert getattr(args, f.name) == f.default


@pytest.mark.parametrize("cmd, key, value", [
    ("synth", "background_fraction", 0.25),
    ("train", "beta1", 0.8),
])
def test_flag_echoes_the_config_file_value(synth_dir, tmp_path, cmd, key, value):
    data = ["--data", str(synth_dir), "--epochs", "1"] if cmd == "train" else []
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    by_file, by_flag = tmp_path / "file", tmp_path / "flag"
    assert run(cmd, *data, "--config", str(cfg_path), "--out", str(by_file)) == EXIT_OK
    assert run(cmd, *data, "--" + key.replace("_", "-"), str(value),
               "--out", str(by_flag)) == EXIT_OK
    echoed = (by_flag / "config.json").read_text()
    assert echoed == (by_file / "config.json").read_text()
    assert json.loads(echoed)[key] == value


def test_train_requires_data(tmp_path):
    assert run("train", "--out", str(tmp_path / "t")) == EXIT_USAGE


def test_train_config_file_with_override(synth_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "data_dir": str(synth_dir), "epochs": 1, "lr": 1e-5, "mode": "vec_shift",
    }))
    out = tmp_path / "t"
    assert run("train", "--config", str(cfg_path), "--out", str(out),
               "--lr", "2e-5") == EXIT_OK
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["mode"] == "vec_shift"
    assert echoed["lr"] == 2e-5
    assert echoed["epochs"] == 1


@pytest.mark.parametrize("cmd, cfg, needle", [
    ("synth", {"dimm": 8}, "unknown key 'dimm'"),
    ("synth", {"dim": "x"}, "key 'dim' must be int, got 'x'"),
    ("synth", [1], "not a JSON object"),
    ("train", [1], "not a JSON object"),
    ("train", {"lambda_1": 1.0}, "unknown key 'lambda_1'"),
    ("train", {"epochs": 1.5}, "key 'epochs' must be int, got 1.5"),
], ids=["synth-typo", "synth-type", "synth-list", "train-list", "train-typo", "train-type"])
def test_config_file_outside_the_echoed_keys_is_usage_error(synth_dir, tmp_path, capsys,
                                                            cmd, cfg, needle):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    data = ["--data", str(synth_dir)] if cmd == "train" else []
    out = tmp_path / "out"
    assert run(cmd, "--config", str(cfg_path), *data, "--out", str(out)) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, str(cfg_path), needle)
    assert not out.exists()


def test_config_file_integer_past_the_digit_limit_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'{"seed": ' + HUGE_INT + b"}")
    out = tmp_path / "out"
    assert run("synth", "--config", str(cfg_path), "--out", str(out)) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, f"cannot read config file {cfg_path}")
    assert not out.exists()


def test_train_replays_its_echoed_config(synth_dir, tmp_path):
    first = tmp_path / "first"
    assert run("train", "--data", str(synth_dir), "--out", str(first), "--epochs", "1",
               "--mode", "vec_shift") == EXIT_OK
    echoed = json.loads((first / "config.json").read_text())
    echoed.update(beta1=0.5, beta2=0.9, adam_eps=1e-6)  # keys the first run left at default
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(echoed))
    again = tmp_path / "again"
    assert run("train", "--config", str(cfg_path), "--out", str(again)) == EXIT_OK
    assert json.loads((again / "config.json").read_text()) == echoed
    assert ((again / "checkpoint.nftc").read_bytes()
            != (first / "checkpoint.nftc").read_bytes())


def test_train_rows_offset_by_label_bank(synth_dir, tmp_path):
    # drop 2 of the 72 label records and 2 train_neg records: training rows
    # still start after all 72 rows of labels.fbnk
    dropped = {"neg_3", "neg_60", "train_neg_0", "train_neg_9"}
    d = tmp_path / "trimmed"
    records = copy_dataset(synth_dir, d, keep=lambda r: r["id"] not in dropped)
    n_labels = read_bank(d / "labels.fbnk").shape[0]
    bank, training = read_dataset(d)
    assert bank.n_pos + bank.n_neg == n_labels - 2
    feats = read_bank(d / "train.fbnk", unit_rows=True)
    neg = sorted(r["row"] - n_labels for r in records if r["role"] == "train_neg")
    assert np.array_equal(training.neg_features, feats[neg])
    assert run("train", "--data", str(d), "--out", str(tmp_path / "t"),
               "--epochs", "1") == EXIT_OK


@pytest.mark.parametrize("cmd, role, row", [
    ("score", "neg_label", "past_end"),
    ("train", "train_neg", "past_end"),
    ("train", "train_neg", "label_row"),  # below the training rows
])
def test_manifest_row_outside_its_bank_is_data_error(synth_dir, tmp_path, capsys,
                                                     cmd, role, row):
    d = tmp_path / "bad"
    records = copy_dataset(synth_dir, d, keep=lambda r: r["id"] != "neg_0")
    victim = next(r for r in records if r["role"] == role)
    # a row no other record uses; 8 was the dropped neg_0's
    victim["row"] = 1 + max(r["row"] for r in records) if row == "past_end" else 8
    write_manifest(d / "manifest.jsonl", records)
    argv = {"train": ["train", "--data", str(d), "--out", str(tmp_path / "t")],
            "score": ["score", "--bank", str(d), "--images", str(d / "test_id.fbnk"),
                      "--out", str(tmp_path / "s.csv")]}[cmd]
    assert run(*argv) == EXIT_DATA
    assert_one_line(capsys.readouterr().err, f"row {victim['row']} ", repr(victim["id"]))


@pytest.mark.parametrize("cmd", ["train", "score"])
def test_manifest_without_pos_label_rows_is_data_error(synth_dir, tmp_path, capsys, cmd):
    d = tmp_path / "no_pos"
    copy_dataset(synth_dir, d, keep=lambda r: r["role"] != "pos_label")
    argv = {"train": ["train", "--data", str(d), "--out", str(tmp_path / "t")],
            "score": ["score", "--bank", str(d), "--images", str(d / "test_id.fbnk"),
                      "--out", str(tmp_path / "s.csv")]}[cmd]
    assert run(*argv) == EXIT_DATA
    assert_one_line(capsys.readouterr().err, "manifest declares no pos_label rows")


def test_train_negatives_only_from_a_narrower_train_bank_is_data_error(synth_dir, tmp_path,
                                                                       capsys):
    # once exit 4 with a traceback: train checked the width of its positive side only
    d = tmp_path / "narrow"
    copy_dataset(synth_dir, d, keep=lambda r: r["role"] != "train_pos")
    n_rows = read_bank(d / "train.fbnk").shape[0]
    write_bank(d / "train.fbnk", np.eye(16)[np.arange(n_rows) % 16])
    assert read_bank(d / "labels.fbnk").shape[1] == 32
    assert run("train", "--data", str(d), "--out", str(tmp_path / "t"),
               "--epochs", "1") == EXIT_DATA
    assert_one_line(capsys.readouterr().err, "training features do not match bank dimension")
    assert not (tmp_path / "t").exists()


def test_train_pos_class_must_be_an_integer(synth_dir, tmp_path, capsys):
    d = tmp_path / "bad"
    records = copy_dataset(synth_dir, d)
    victim = next(r for r in records if r["role"] == "train_pos")
    victim["class"] = "a"
    write_manifest(d / "manifest.jsonl", records)
    assert run("train", "--data", str(d), "--out", str(tmp_path / "t"),
               "--epochs", "1") == EXIT_DATA
    line = 1 + records.index(victim)
    assert_one_line(capsys.readouterr().err, str(d / "manifest.jsonl"), f"line {line}:",
                    "class 'a' is not an integer")


def select_crops_argv(tmp_path, edit=lambda rec: None):
    """select-crops on 2 images of 6 crops and a dataset of N = 2 positive and M = 2
    negative label rows; edit changes img_0's crops."""
    rng = np.random.default_rng(93)
    crops = rng.standard_normal((12, 8))
    data = label_dir(tmp_path / "data", rng.standard_normal((4, 8)), n_pos=2)
    write_bank(tmp_path / "crops.fbnk", crops / np.linalg.norm(crops, axis=1, keepdims=True))
    records = [{"row": i, "id": f"crop_{i}", "role": "crop",
                "class": i // 6, "parent": f"img_{i // 6}"} for i in range(12)]
    for rec in records[:6]:
        edit(rec)
    write_manifest(tmp_path / "crops.jsonl", records)
    return ["select-crops", "--crops", str(tmp_path / "crops.fbnk"),
            "--crops-manifest", str(tmp_path / "crops.jsonl"),
            "--data", str(data), "-q", "2", "--out", str(tmp_path / "training")]


def test_select_crops_non_crop_role_is_data_error(tmp_path, capsys):
    def edit(rec):
        rec["role"] = "pos_label"

    assert run(*select_crops_argv(tmp_path, edit)) == EXIT_DATA
    assert_one_line(capsys.readouterr().err, "non-crop role 'pos_label'")
    assert not (tmp_path / "training").exists()


def test_select_crops_crop_without_parent_is_data_error(tmp_path, capsys):
    assert run(*select_crops_argv(tmp_path, lambda rec: rec.pop("parent"))) == EXIT_DATA
    assert_one_line(capsys.readouterr().err, str(tmp_path / "crops.jsonl"), "line 1:",
                    "parent")


@pytest.mark.parametrize("parents", ([[1]] * 6, [5, "img_0"] * 3))
def test_select_crops_parent_must_be_a_string(tmp_path, capsys, parents):
    it = iter(parents)

    def edit(rec):
        rec["parent"] = next(it)

    assert run(*select_crops_argv(tmp_path, edit)) == EXIT_DATA
    assert_one_line(capsys.readouterr().err, str(tmp_path / "crops.jsonl"), "line 1:",
                    f"parent {parents[0]!r} is not a string")
    assert not (tmp_path / "training").exists()


@pytest.mark.parametrize("q", ["0", "-1"])  # -1 once kept all but one crop per side
def test_select_crops_count_below_one_is_usage_error(tmp_path, capsys, q):
    argv = select_crops_argv(tmp_path)
    argv[argv.index("-q") + 1] = q
    assert run(*argv) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, f"q={q}")
    assert not (tmp_path / "training").exists()


def test_select_crops_parent_with_crops_of_two_classes(tmp_path):
    # one parent holds 4 class-0 and 6 class-1 crops; each class's rows once
    # came from the last crop set of that parent, class 1's
    rng = np.random.default_rng(98)
    crops = rng.standard_normal((10, 8))
    data = label_dir(tmp_path / "data", rng.standard_normal((2, 8)), n_pos=2)
    write_bank(tmp_path / "crops.fbnk", crops / np.linalg.norm(crops, axis=1, keepdims=True))
    classes = [0] * 4 + [1] * 6
    write_manifest(tmp_path / "crops.jsonl", [
        {"row": i, "id": f"crop_{i}", "role": "crop", "class": c, "parent": "img_0"}
        for i, c in enumerate(classes)])
    out = tmp_path / "training"
    assert run("select-crops", "--crops", str(tmp_path / "crops.fbnk"),
               "--crops-manifest", str(tmp_path / "crops.jsonl"),
               "--data", str(data), "-q", "1", "--out", str(out)) == EXIT_OK
    crops, labels = read_bank(tmp_path / "crops.fbnk"), read_bank(data / "labels.fbnk")
    sims = np.array([crops[i] @ labels[c] for i, c in enumerate(classes)])
    rows = {c: [i for i, k in enumerate(classes) if k == c] for c in (0, 1)}
    top = [max(rows[c], key=lambda i: sims[i]) for c in (0, 1)]
    bottom = [min(rows[c], key=lambda i: sims[i]) for c in (0, 1)]
    written = read_bank(out / "train.fbnk")
    assert [r["class"] for r in read_manifest(out / "manifest.jsonl")
            if r["role"] == "train_pos"] == [0, 1]
    assert np.array_equal(written, crops[top + bottom])


@pytest.mark.parametrize("cls", (99, 2, -1))
def test_select_crops_class_outside_labels_is_data_error(tmp_path, capsys, cls):
    def edit(rec):
        rec["class"] = cls

    assert run(*select_crops_argv(tmp_path, edit)) == EXIT_DATA
    assert_one_line(capsys.readouterr().err, str(tmp_path / "crops.jsonl"), "'crop_0'",
                    f"class {cls},", "outside the 2 pos_label rows", str(tmp_path / "data"))
    assert not (tmp_path / "training").exists()


def test_select_crops_rejects_a_negative_label_class(tmp_path, capsys):
    # class 3 is the last of the M = 2 negative rows: a bare --labels .fbnk could not tell
    # it from a positive row, so select-crops once wrote it and only train rejected it
    assert run(*select_crops_argv(tmp_path, lambda rec: rec.update({"class": 3}))) == EXIT_DATA
    assert_one_line(capsys.readouterr().err, str(tmp_path / "crops.jsonl"), "'crop_0'",
                    "class 3,", "outside the 2 pos_label rows", str(tmp_path / "data"))
    assert not (tmp_path / "training").exists()


@pytest.mark.parametrize("classes", [(1, 0), (5, 5)], ids=["swapped", "both-5"])
@pytest.mark.parametrize("cmd", ["train", "select-crops"])
def test_pos_label_class_other_than_its_rank_is_data_error(synth_dir, tmp_path, capsys, cmd,
                                                           classes):
    # the bank is ordered by row: these classes were once ignored and training ran on
    d = tmp_path / "bad"
    records = copy_dataset(synth_dir, d)
    assert [r["id"] for r in records[:2]] == ["pos_0", "pos_1"]
    for rec, cls in zip(records, classes):
        rec["class"] = cls
    write_manifest(d / "manifest.jsonl", records)
    write_manifest(tmp_path / "crops.jsonl", [
        {"row": i, "id": f"crop_{i}", "role": "crop", "class": 0, "parent": "img_0"}
        for i in range(8)])
    argv = {"train": ["train", "--data", str(d), "--out", str(tmp_path / "out"),
                      "--epochs", "1"],
            "select-crops": ["select-crops", "--crops", str(d / "test_id.fbnk"),
                             "--crops-manifest", str(tmp_path / "crops.jsonl"),
                             "--data", str(d), "-q", "1", "--out", str(tmp_path / "out")]}[cmd]
    assert run(*argv) == EXIT_DATA
    assert_one_line(capsys.readouterr().err, "manifest row 0 (id 'pos_0') has class "
                    f"{classes[0]}, not its rank 0 among the pos_label rows")
    assert not (tmp_path / "out").exists()


def test_select_crops_group_below_2q_names_manifest_parent_and_class(tmp_path, capsys):
    # parent a holds 4 crops and parent b 3, so b cannot give q=2 disjoint crops per side
    rng = np.random.default_rng(99)
    crops = rng.standard_normal((7, 8))
    data = label_dir(tmp_path / "data", rng.standard_normal((2, 8)), n_pos=2)
    write_bank(tmp_path / "crops.fbnk", crops / np.linalg.norm(crops, axis=1, keepdims=True))
    write_manifest(tmp_path / "crops.jsonl", [
        {"row": i, "id": f"crop_{i}", "role": "crop", "class": 1, "parent": "a" if i < 4 else "b"}
        for i in range(7)])
    assert run("select-crops", "--crops", str(tmp_path / "crops.fbnk"),
               "--crops-manifest", str(tmp_path / "crops.jsonl"),
               "--data", str(data), "-q", "2", "--out", str(tmp_path / "training")) == EXIT_DATA
    assert_one_line(capsys.readouterr().err, str(tmp_path / "crops.jsonl"),
                    "parent 'b', class 1", "q=2, P=3")
    assert not (tmp_path / "training").exists()


def test_select_crops_empty_manifest_is_data_error(tmp_path, capsys):
    # once exit 4: the training-set copy could not reshape zero rows
    argv = select_crops_argv(tmp_path)
    (tmp_path / "crops.jsonl").write_text("")
    assert run(*argv) == EXIT_DATA
    assert_one_line(capsys.readouterr().err, str(tmp_path / "crops.jsonl"), "no crop rows")
    assert not (tmp_path / "training").exists()


# ---- score ----


def test_score_mcm_single_class(tmp_path):
    d = tiny_bank_dir(tmp_path, n_pos=1)
    rng = np.random.default_rng(92)
    imgs = rng.standard_normal((5, 4))
    imgs /= np.linalg.norm(imgs, axis=1, keepdims=True)
    write_bank(tmp_path / "imgs.fbnk", imgs)
    out = tmp_path / "scores.csv"
    assert run(
        "score", "--bank", str(d), "--images", str(tmp_path / "imgs.fbnk"),
        "--method", "mcm", "--out", str(out),
    ) == EXIT_OK
    assert read_scores(out) == [1.0] * 5


def test_score_krnft_at_init_equals_neglabel(tmp_path):
    d = tiny_bank_dir(tmp_path, n_pos=2)
    rng = np.random.default_rng(93)
    imgs = rng.standard_normal((6, 4))
    imgs /= np.linalg.norm(imgs, axis=1, keepdims=True)
    write_bank(tmp_path / "imgs.fbnk", imgs)
    ckpt_path = tmp_path / "fresh.nftc"
    save_checkpoint(Checkpoint(model=init_model(4, hidden=4, seed=0)), ckpt_path)
    out_nl = tmp_path / "nl.csv"
    out_kr = tmp_path / "kr.csv"
    assert run("score", "--bank", str(d), "--images", str(tmp_path / "imgs.fbnk"),
               "--method", "neglabel", "--out", str(out_nl)) == EXIT_OK
    assert run("score", "--bank", str(d), "--images", str(tmp_path / "imgs.fbnk"),
               "--method", "krnft", "--checkpoint", str(ckpt_path),
               "--out", str(out_kr)) == EXIT_OK
    nl = read_scores(out_nl)
    kr = read_scores(out_kr)
    assert max(abs(a - b) for a, b in zip(nl, kr)) < 1e-10


def test_score_krnft_needs_checkpoint(tmp_path):
    d = tiny_bank_dir(tmp_path)
    write_bank(tmp_path / "imgs.fbnk", np.eye(4)[:2])
    assert run("score", "--bank", str(d), "--images", str(tmp_path / "imgs.fbnk"),
               "--method", "krnft", "--out", str(tmp_path / "s.csv")) == EXIT_USAGE


@pytest.mark.parametrize("method", ["neglabel", "mcm"])  # once exit 2 and exit 0
def test_score_nan_tau_is_usage_error(tmp_path, capsys, method):
    d = tiny_bank_dir(tmp_path, n_pos=2)
    write_bank(tmp_path / "imgs.fbnk", np.eye(4)[:2])
    assert run("score", "--bank", str(d), "--images", str(tmp_path / "imgs.fbnk"),
               "--method", method, "--tau-score", "nan",
               "--out", str(tmp_path / "s.csv")) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "must be > 0, got nan")


@pytest.mark.parametrize("method", ["neglabel", "mcm", "krnft"])
def test_score_infinite_tau_is_usage_error(tmp_path, capsys, method):
    # once exit 0 with every image scored alike
    d = tiny_bank_dir(tmp_path, n_pos=2)
    write_bank(tmp_path / "imgs.fbnk", np.eye(4)[:2])
    save_checkpoint(Checkpoint(model=init_model(4, hidden=4, seed=0)), tmp_path / "c.nftc")
    out = tmp_path / "s.csv"
    assert run("score", "--bank", str(d), "--images", str(tmp_path / "imgs.fbnk"),
               "--method", method, "--checkpoint", str(tmp_path / "c.nftc"),
               "--tau-score", "inf", "--out", str(out)) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "must be finite, got inf")
    assert not out.exists()


@pytest.mark.parametrize("method", ["mcm", "neglabel", "krnft"])
def test_score_subnormal_tau_is_usage_error(synth_dir, tmp_path, capsys, method):
    # once mcm exit 0 with NaN in every row, and neglabel and krnft exit 2, each
    # after numpy's overflow warnings: a unit cosine over 1e-310 overflows
    dim = read_bank(synth_dir / "labels.fbnk").shape[1]
    save_checkpoint(Checkpoint(model=init_model(dim, seed=0)), tmp_path / "c.nftc")
    out = tmp_path / "s.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("score", "--bank", str(synth_dir), "--images",
                   str(synth_dir / "test_id.fbnk"), "--method", method, "--checkpoint",
                   str(tmp_path / "c.nftc"), "--tau-score", "1e-310", "--out", str(out))
    assert code == EXIT_USAGE
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert_one_line(capsys.readouterr().err, "tau_score must be >= 2.2250738585072014e-308",
                    "got 1e-310")
    assert not out.exists()


@pytest.mark.parametrize("mode", MODES)
def test_score_krnft_overflowing_tuned_norm_is_numeric_error(synth_dir, tmp_path, capsys, mode):
    # once exit 0 after an overflow warning, each positive tuned row a row of
    # zeros: u = c + 1e200 is finite but its squares overflow, so ||u|| is Inf
    dim = read_bank(synth_dir / "labels.fbnk").shape[1]
    state = init_model(dim, mode=mode, seed=0)
    state.arrays["pos_net.b_beta" if mode == "mlp" else "pos_head.beta"][:] = 1e200
    save_checkpoint(Checkpoint(model=state), tmp_path / "c.nftc")
    out = tmp_path / "s.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("score", "--bank", str(synth_dir), "--images",
                   str(synth_dir / "test_id.fbnk"), "--method", "krnft", "--checkpoint",
                   str(tmp_path / "c.nftc"), "--out", str(out))
    assert code == EXIT_NUMERIC
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert_one_line(capsys.readouterr().err, "norm overflows")
    assert not out.exists()


@pytest.mark.parametrize("edits, code, needle", [
    ({"pos_head.beta": (0, math.inf)}, EXIT_DATA, "pos_head.beta contains NaN or Inf"),
    ({"pos_net.w1": ((0, 0), math.inf)}, EXIT_DATA, "pos_net.w1 contains NaN or Inf"),
    ({"neg_head.alpha": (0, math.nan)}, EXIT_DATA, "neg_head.alpha contains NaN or Inf"),
    # finite parameters whose a * c + b, or whose meta-net, overflows: a numeric failure
    ({"pos_head.alpha": (..., 1.7e308), "pos_head.beta": (..., 1.7e308)}, EXIT_NUMERIC,
     "norm overflows"),
    ({"pos_net.w1": (..., 1e308)}, EXIT_NUMERIC, "norm overflows"),
], ids=["inf_beta", "inf_w1", "nan_alpha", "overflow", "overflow_w1"])
def test_score_krnft_non_finite_or_overflowing_checkpoint(synth_dir, tmp_path, capsys, edits,
                                                          code, needle):
    # each once exit 2 with "input contains NaN or Inf", after up to three RuntimeWarnings
    state = init_model(read_bank(synth_dir / "labels.fbnk").shape[1], seed=0)
    for key, (index, value) in edits.items():
        state.arrays[key][index] = value
    save_checkpoint(Checkpoint(model=state), tmp_path / "c.nftc")
    out = tmp_path / "s.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("score", "--bank", str(synth_dir), "--images",
                   str(synth_dir / "test_id.fbnk"), "--method", "krnft", "--checkpoint",
                   str(tmp_path / "c.nftc"), "--out", str(out)) == code
    assert not caught
    assert_one_line(capsys.readouterr().err, needle)
    assert not out.exists()


def test_score_warns_once_naming_an_off_unit_images_file(synth_dir, tmp_path):
    # the warning once named no file
    images = tmp_path / "doubled.fbnk"
    write_bank(images, 2.0 * read_bank(synth_dir / "test_id.fbnk"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("score", "--bank", str(synth_dir), "--images", str(images),
                   "--out", str(tmp_path / "s.csv")) == EXIT_OK
    assert [str(w.message) for w in caught] == [
        f"{images}: rows deviate from unit norm by > 1e-5; re-normalizing"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name", ["test_id.fbnk", "train.fbnk"])
def test_non_finite_bank_cell_is_data_error_naming_file_and_row(synth_dir, tmp_path, capsys,
                                                               name, value):
    # once a re-normalizing warning (Inf) and a RuntimeWarning, then "input contains NaN
    # or Inf", which named no file
    d = tmp_path / "data"
    copy_dataset(synth_dir, d)
    raw = bytearray((d / name).read_bytes())
    (dim,) = struct.unpack_from("<Q", raw, 16)
    struct.pack_into("<f", raw, 24 + 4 * (3 * dim + 5), float(value))  # row 3, column 5
    (d / name).write_bytes(bytes(raw))
    if name == "train.fbnk":
        argv = ["train", "--data", d, "--out", tmp_path / "run", "--epochs", "1"]
    else:
        argv = ["score", "--bank", d, "--images", d / name, "--out", tmp_path / "s.csv"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*map(str, argv)) == EXIT_DATA
    assert not caught
    assert_one_line(capsys.readouterr().err, f"{d / name}: row 3 contains NaN or Inf")


@pytest.mark.parametrize("method, mode", [("mcm", None), ("neglabel", None)]
                         + [("krnft", mode) for mode in MODES])
@pytest.mark.parametrize("tau", ["-1", "nan"])
def test_score_bad_tau_without_images_is_usage_error(tmp_path, capsys, method, mode, tau):
    # once exit 0 with a header-only CSV for every method but neglabel
    d = tiny_bank_dir(tmp_path, n_pos=2)
    write_bank(tmp_path / "imgs.fbnk", np.zeros((0, 4)))
    state = init_model(4, hidden=4, mode=mode or "scale_shift", seed=0)
    save_checkpoint(Checkpoint(model=state), tmp_path / "c.nftc")
    out = tmp_path / "s.csv"
    assert run("score", "--bank", str(d), "--images", str(tmp_path / "imgs.fbnk"),
               "--method", method, "--checkpoint", str(tmp_path / "c.nftc"),
               "--tau-score", tau, "--out", str(out)) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "must be > 0, got")
    assert not out.exists()


@pytest.mark.parametrize("mode", MODES)
def test_score_krnft_without_images_or_negative_labels_is_data_error(tmp_path, capsys, mode):
    # once exit 0 with a header-only CSV, where neglabel exits 2
    d = tiny_bank_dir(tmp_path, n_pos=2)
    write_manifest(d / "manifest.jsonl", [r for r in read_manifest(d / "manifest.jsonl")
                                          if r["role"] != "neg_label"])
    write_bank(tmp_path / "imgs.fbnk", np.zeros((0, 4)))
    save_checkpoint(Checkpoint(model=init_model(4, hidden=4, mode=mode, seed=0)),
                    tmp_path / "c.nftc")
    out = tmp_path / "s.csv"
    assert run("score", "--bank", str(d), "--images", str(tmp_path / "imgs.fbnk"),
               "--method", "krnft", "--checkpoint", str(tmp_path / "c.nftc"),
               "--out", str(out)) == EXIT_DATA
    assert_one_line(capsys.readouterr().err, "requires negative label rows")
    assert not out.exists()


def test_score_missing_bank_is_data_error(tmp_path):
    write_bank(tmp_path / "imgs.fbnk", np.eye(4)[:2])
    assert run("score", "--bank", str(tmp_path / "nope"),
               "--images", str(tmp_path / "imgs.fbnk"),
               "--out", str(tmp_path / "s.csv")) == EXIT_DATA


def test_score_ignores_threads_env(tmp_path, monkeypatch):
    d = tiny_bank_dir(tmp_path, n_pos=2)
    write_bank(tmp_path / "imgs.fbnk", np.eye(4)[:3])
    plain, with_env = tmp_path / "plain.csv", tmp_path / "env.csv"
    argv = ["score", "--bank", str(d), "--images", str(tmp_path / "imgs.fbnk"), "--out"]
    assert run(*argv, str(plain)) == EXIT_OK
    monkeypatch.setenv("NFT_OOD_THREADS", "abc")
    assert run(*argv, str(with_env)) == EXIT_OK
    assert with_env.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("line3, needle", [
    (b'{"row": 2, "id": oops\n', "line 3: not valid JSON"),
    (b'[2, "x", "neg_label"]\n', "line 3: not a JSON object"),
    (b'{"row": 2, "id": "x\xff", "role": "neg_label"}\n', "not valid UTF-8"),
])
def test_score_malformed_manifest_line_is_data_error(tmp_path, capsys, line3, needle):
    d = tiny_bank_dir(tmp_path)  # two records
    manifest = d / "manifest.jsonl"
    manifest.write_bytes(manifest.read_bytes() + line3)
    write_bank(tmp_path / "imgs.fbnk", np.eye(4)[:2])
    assert run("score", "--bank", str(d), "--images", str(tmp_path / "imgs.fbnk"),
               "--out", str(tmp_path / "s.csv")) == EXIT_DATA
    assert_one_line(capsys.readouterr().err, str(manifest), needle)


def test_score_manifest_integer_past_the_digit_limit_is_data_error(tmp_path, capsys):
    d = tiny_bank_dir(tmp_path)  # two records
    manifest = d / "manifest.jsonl"
    manifest.write_bytes(manifest.read_bytes()
                         + b'{"row": ' + HUGE_INT + b', "id": "x", "role": "neg_label"}\n')
    write_bank(tmp_path / "imgs.fbnk", np.eye(4)[:2])
    assert run("score", "--bank", str(d), "--images", str(tmp_path / "imgs.fbnk"),
               "--out", str(tmp_path / "s.csv")) == EXIT_DATA
    assert_one_line(capsys.readouterr().err, str(manifest), "line 3: not valid JSON")


def test_score_parser_reuse_keeps_no_state(tmp_path):
    # the second call omits --tau-score: it must score at the default 1.0
    d = tiny_bank_dir(tmp_path, n_pos=2)
    rng = np.random.default_rng(96)
    imgs = rng.standard_normal((5, 4))
    imgs /= np.linalg.norm(imgs, axis=1, keepdims=True)
    write_bank(tmp_path / "imgs.fbnk", imgs)
    argv = ["score", "--bank", str(d), "--images", str(tmp_path / "imgs.fbnk"), "--out"]
    assert run(*argv, str(tmp_path / "half.csv"), "--tau-score", "0.5") == EXIT_OK
    assert run(*argv, str(tmp_path / "default.csv")) == EXIT_OK
    eye = np.eye(4)
    bank = FeatureBank.from_rows(eye[:2], eye[2:3])
    images = read_bank(tmp_path / "imgs.fbnk", unit_rows=True)
    for name, tau in (("half.csv", 0.5), ("default.csv", 1.0)):
        want = score_many(images, "neglabel", bank, tau_score=tau)
        assert np.array_equal(read_scores(tmp_path / name), want), name


def _checkpoint_bytes(tmp_path):
    path = tmp_path / "good.nftc"
    save_checkpoint(Checkpoint(model=init_model(4, hidden=4, seed=0)), path)
    return bytearray(path.read_bytes())


def _header_only(dim, hidden):
    return (b"NFTC" + struct.pack("<BBHII", 1, 2, 0, dim, hidden)
            + struct.pack("<I", 2) + b"{}")


def _with_dims(dim, hidden):
    def edit(data):
        struct.pack_into("<II", data, 8, dim, hidden)
        return data
    return edit


def _with_meta(byte):
    def edit(data):
        (meta_len,) = struct.unpack_from("<I", data, 16)
        data[20 : 20 + meta_len] = byte * meta_len
        return data
    return edit


def _with_meta_blob(meta):
    def edit(data):
        (meta_len,) = struct.unpack_from("<I", data, 16)
        return data[:16] + struct.pack("<I", len(meta)) + meta + data[20 + meta_len :]
    return edit


@pytest.mark.parametrize("case, make, needle", [
    # 22 bytes declaring a 298 GiB payload: rejected before any allocation
    ("huge_dims", lambda data: _header_only(200000, 200000), "truncated"),
    ("zero_dim", _with_dims(0, 4), "dim=0"),
    ("zero_hidden", _with_dims(4, 0), "hidden=0"),
    ("non_utf8_meta", _with_meta(b"\xff"), "UTF-8"),
    ("malformed_json_meta", _with_meta(b"{"), "JSON"),
    ("meta_not_an_object", _with_meta_blob(b"[]"), "lacks its 'config' and 'meta' entries"),
    ("meta_without_meta", _with_meta_blob(b'{"config": {}}'),
     "lacks its 'config' and 'meta' entries"),
])
def test_score_malformed_checkpoint_is_data_error(tmp_path, capsys, case, make, needle):
    d = tiny_bank_dir(tmp_path)
    write_bank(tmp_path / "imgs.fbnk", np.eye(4)[:2])
    ckpt = tmp_path / f"{case}.nftc"
    ckpt.write_bytes(bytes(make(_checkpoint_bytes(tmp_path))))
    assert run("score", "--bank", str(d), "--images", str(tmp_path / "imgs.fbnk"),
               "--method", "krnft", "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "s.csv")) == EXIT_DATA
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_score_checkpoint_metadata_integer_past_the_digit_limit_is_data_error(tmp_path,
                                                                             capsys):
    meta = b'{"config": {}, "meta": {"n": ' + HUGE_INT + b"}}"
    ckpt = tmp_path / "huge_int_meta.nftc"
    ckpt.write_bytes(bytes(_with_meta_blob(meta)(_checkpoint_bytes(tmp_path))))
    d = tiny_bank_dir(tmp_path)
    write_bank(tmp_path / "imgs.fbnk", np.eye(4)[:2])
    assert run("score", "--bank", str(d), "--images", str(tmp_path / "imgs.fbnk"),
               "--method", "krnft", "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "s.csv")) == EXIT_DATA
    assert_one_line(capsys.readouterr().err, "checkpoint metadata is not valid JSON")


# ---- eval ----


def write_scores_csv(path, scores, truth):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "score", "truth"])
        for i, s in enumerate(scores):
            w.writerow([f"x{i}", repr(float(s)), truth])


def test_eval_pair_hmean(tmp_path):
    out = tmp_path / "h.json"
    assert run("eval", "--pair", "22.79", "11.41", "--out", str(out)) == EXIT_OK
    assert abs(json.loads(out.read_text())["hmean"] - 15.21) < 0.01


def test_eval_pair_then_scores(tmp_path):
    assert run("eval", "--pair", "0.2", "0.1", "--out", str(tmp_path / "h.json")) == EXIT_OK
    write_scores_csv(tmp_path / "id.csv", [0.9, 0.8], "ID")
    write_scores_csv(tmp_path / "ood.csv", [0.1, 0.85], "OOD")
    out = tmp_path / "m.json"
    assert run("eval", "--scores-id", str(tmp_path / "id.csv"),
               "--scores-ood", str(tmp_path / "ood.csv"), "--out", str(out)) == EXIT_OK
    assert json.loads(out.read_text()) == {
        "auroc": 0.75, "fpr95": 0.5, "n_id": 2, "n_ood": 2, "threshold": 0.8}


@pytest.mark.parametrize("pair", [
    ("nan", "0.5"),  # once written as {"hmean": NaN}, which is not JSON
    ("inf", "0.5"),
    ("0", "0.5"),  # once exit 2, from scoring.hmean
    ("0.5", "-1"),
    ("0.5", "101"),  # above 100 percent
])
def test_eval_bad_pair_is_usage_error(tmp_path, capsys, pair):
    out = tmp_path / "h.json"
    assert run("eval", "--pair", *pair, "--out", str(out)) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "--pair")
    assert not out.exists()


@pytest.mark.parametrize("argv, needle", [
    (["--tpr", "0"], "--tpr"),
    (["--tpr", "1.5"], "--tpr"),
    (["--tpr", "0.95"], "--scores-id"),  # no score files and no --pair
])
def test_eval_bad_flags_are_usage_errors(tmp_path, capsys, argv, needle):
    write_scores_csv(tmp_path / "s.csv", [0.1, 0.2], "ID")
    files = [] if needle == "--scores-id" else [
        "--scores-id", str(tmp_path / "s.csv"), "--scores-ood", str(tmp_path / "s.csv")]
    assert run("eval", *files, *argv, "--out", str(tmp_path / "m.json")) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, needle)


def test_eval_perfect_separation(tmp_path):
    id_csv = tmp_path / "id.csv"
    ood_csv = tmp_path / "ood.csv"
    write_scores_csv(id_csv, np.linspace(0.8, 1.0, 20), "ID")
    write_scores_csv(ood_csv, np.linspace(0.0, 0.2, 20), "OOD")
    out = tmp_path / "metrics.json"
    assert run("eval", "--scores-id", str(id_csv), "--scores-ood", str(ood_csv),
               "--out", str(out)) == EXIT_OK
    metrics = json.loads(out.read_text())
    assert metrics["auroc"] == 1.0
    assert metrics["fpr95"] == 0.0
    assert metrics["n_id"] == 20 and metrics["n_ood"] == 20


def test_eval_matches_library_metrics(tmp_path):
    rng = np.random.default_rng(94)
    ids = rng.integers(0, 10, 30) / 10.0
    oods = rng.integers(0, 10, 30) / 10.0
    id_csv = tmp_path / "id.csv"
    ood_csv = tmp_path / "ood.csv"
    write_scores_csv(id_csv, ids, "ID")
    write_scores_csv(ood_csv, oods, "OOD")
    out = tmp_path / "metrics.json"
    assert run("eval", "--scores-id", str(id_csv), "--scores-ood", str(ood_csv),
               "--out", str(out)) == EXIT_OK
    metrics = json.loads(out.read_text())
    from nft_ood.scoring import auroc, fpr_at_tpr

    assert metrics["auroc"] == round(auroc(ids, oods), 4)
    assert metrics["fpr95"] == round(fpr_at_tpr(ids, oods)[0], 4)


@pytest.mark.parametrize("text, line", [
    ("id,score,truth\nx0,0.5,ID\nx1,,ID\n", 3),  # empty score cell
    ("id,score,truth\nx0,high,ID\n", 2),  # non-numeric score cell
    ("", 1),  # empty file: no header at all
    ("id,score,truth\nx0,0.5,ID\nx1,nan,ID\n", 3),  # NaN score cell
    ("id,score,truth\nx0,inf,ID\n", 2),  # infinite score cell
])
def test_eval_malformed_scores_csv_is_data_error(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    good = tmp_path / "good.csv"
    write_scores_csv(good, [0.1, 0.2], "OOD")
    assert run("eval", "--scores-id", str(bad), "--scores-ood", str(good),
               "--out", str(tmp_path / "m.json")) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{bad} line {line}:" in err
    assert len(err.strip().splitlines()) == 1


def test_eval_non_utf8_scores_csv_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"id,score,truth\nx0,\xff\xfe,ID\n")
    good = tmp_path / "good.csv"
    write_scores_csv(good, [0.1, 0.2], "OOD")
    assert run("eval", "--scores-id", str(bad), "--scores-ood", str(good),
               "--out", str(tmp_path / "m.json")) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(bad) in err and "UTF-8" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


# ---- gradcheck ----


def test_gradcheck_passes(capsys):
    assert run("gradcheck", "--mode", "const_shift", "--kr-variant", "feature",
               "--instances", "2") == EXIT_OK
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out
    assert out.splitlines()[-1].endswith(" tolerance=1.0e-04")


def test_gradcheck_tolerance_is_not_a_flag(capsys):
    # a --tolerance flag once let a run pass a check that fails at 1e-4
    assert run("gradcheck", "--mode", "const_shift", "--instances", "1",
               "--tolerance", "1") == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "--tolerance")


def test_gradcheck_replays_acceptance_instances(capsys):
    # criterion 2 draws instance s of (mode i, variant j) at base seed
    # 10000 i + 100 j + s, and gradcheck --seed S instance k at 10000 i + 100 j + S + k
    assert run("gradcheck", "--mode", "vec_shift", "--kr-variant", "prob",
               "--seed", "2", "--instances", "2") == EXIT_OK
    printed = capsys.readouterr().out.splitlines()[1]
    state, bank, batch, cfg, grads = gradcheck_instance("vec_shift", "prob",
                                                        10000 * 1 + 100 * 2 + 3)
    err = max_relative_error(grads, finite_diff_grad(state, bank, batch, cfg, eps=1e-5))
    assert f"instance=1 max_rel_err={err:.3e} ok" in printed


def test_gradcheck_corrupted_fails(monkeypatch):
    def corrupted(*args):
        state, bank, batch, cfg, analytic = gradcheck_instance(*args)
        return state, bank, batch, cfg, {k: 1.01 * g for k, g in analytic.items()}

    monkeypatch.setattr(cli, "gradcheck_instance", corrupted)
    assert run("gradcheck", "--mode", "const_shift", "--kr-variant", "feature",
               "--instances", "1") == EXIT_NUMERIC


def test_gradcheck_seed_bound_is_checked_before_any_instance(capsys):
    # instance seeds are base_seed * 1000 + attempt (attempt < 50), base_seed 10000 i +
    # 100 j + seed + instance; a too large --seed once failed inside the first instance,
    # naming the derived seed
    one = ["gradcheck", "--mode", "const_shift", "--kr-variant", "feature", "--instances", "1"]
    limit = (2**64 - 1 - 49) // 1000
    assert run(*one, "--seed", str(limit)) == EXIT_OK
    capsys.readouterr()
    assert run(*one, "--seed", str(limit + 1)) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, f"--seed must be <= {limit} ", str(limit + 1))
    # every mode and variant, 3 instances: the largest base seed is 30202 + seed
    assert run("gradcheck", "--instances", "3", "--seed", str(limit - 30201)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_line(captured.err, f"--seed must be <= {limit - 30202} ")
    # instances that no --seed admits: --instances is at fault (once blamed --seed, with a
    # negative bound)
    for n in (limit + 2, 2**62):
        assert run(*one[:-1], str(n)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_line(captured.err, f"--instances must be <= {limit + 1} ", str(n))


@pytest.mark.parametrize("n", ["0", "-1"])  # once checked nothing and exited 0
def test_gradcheck_instances_below_one_is_usage_error(capsys, n):
    assert run("gradcheck", "--mode", "const_shift", "--instances", n) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "--instances")


# ---- argument handling ----


def test_internal_error_exits_4_with_its_traceback(tmp_path, capsys, monkeypatch):
    def boom(a, b):
        raise RuntimeError("boom")

    monkeypatch.setattr(scoring, "hmean", boom)
    assert run("eval", "--pair", "0.1", "0.2", "--out", str(tmp_path / "m.json")) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


@pytest.mark.parametrize("argv, needle", [
    (["frobnicate"], "frobnicate"),
    (["synth", "--no-such-flag", "x", "--out", "o"], "--no-such-flag"),
    (["train", "--lr", "x", "--out", "o"], "--lr"),
    (["eval", "--pair", "0.5", "-inf", "--out", "o"], "--pair"),  # -inf reads as a flag
    (["eval", "--pair", "0.5", "1"], "--out"),
    # once echoed unchecked into the metrics JSON, NaN included
    (["eval", "--scores-id", "a.csv", "--scores-ood", "b.csv", "--gamma", "0.5",
      "--out", "o"], "--gamma"),
], ids=["command", "flag", "float", "pair", "missing-out", "eval-gamma"])
def test_unknown_arguments_exit_usage(capsys, argv, needle):
    # once the subcommand's whole usage block: 3 to 9 lines
    assert run(*argv) == EXIT_USAGE
    assert_one_line(capsys.readouterr().err, needle)


def test_help_exits_ok(capsys):
    assert run("train", "--help") == EXIT_OK
    assert "--lr" in capsys.readouterr().out
