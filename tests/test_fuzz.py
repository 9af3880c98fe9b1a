"""Seeded fuzzing of the file readers and the CLI, through `cli.main`.

Every case must end in a documented exit code (0 success, 1 usage, 2 data,
3 numeric) with at most one line on stderr and no traceback. The inputs are
byte mutations of valid files, JSON value substitutions in manifest records
and edge values of numeric flags. Size flags (`--dim`, `--n-classes`,
`--hidden`, `--epochs`, `--batch-size`, `-m`, `-q`) are never fuzzed upward
to values that allocate or run for a long time; the `synth` sizes and
`--hidden` do take values no array numpy can shape would hold, which must be
rejected before any allocation. The cases are fixed by their seeds, so a
failure replays.
"""

import json
import math
import os
import struct
import warnings

import numpy as np
import pytest

from nft_ood.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from nft_ood.data_io import read_bank, write_bank
from nft_ood.model import load_checkpoint, save_checkpoint

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
DOCUMENTED = {EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC}
# a fixture-shaped dataset small enough that one command takes a few ms
SYNTH = ("--dim", "8", "--n-classes", "3", "--m-neg", "6", "--shots", "2",
         "--n-test-per-class", "4", "--n-test-ood", "8")
# one training step in the cheapest mode
TRAIN = ("--epochs", "1", "--batch-size", "64", "--mode", "const_shift")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A synth dataset, a v2 checkpoint trained on it, its test_id scores and a crops
    manifest over its 12 test_id rows: 3 images of 4 crops, one per class."""
    root = tmp_path_factory.mktemp("fuzz")
    data, run = root / "data", root / "run"
    assert main(["synth", "--out", str(data), *SYNTH]) == EXIT_OK
    (data / "crops.jsonl").write_text("".join(
        json.dumps({"row": i, "id": f"crop_{i}", "role": "crop", "class": i // 4,
                    "parent": f"img_{i // 4}"}) + "\n" for i in range(12)))
    assert main(["train", "--data", str(data), "--out", str(run), "--epochs", "1",
                 "--mode", "scale_shift", "--hidden", "4"]) == EXIT_OK
    for side in ("id", "ood"):
        assert main(["score", "--bank", str(data), "--images", str(data / f"test_{side}.fbnk"),
                     "--out", str(root / f"{side}.csv")]) == EXIT_OK
    return root


def _outcome(argv, capsys, parses=False):
    """None if main(argv) ends as documented, else a description of what went wrong.

    A warning counts against a case, as the lines an `nft-ood` process would print
    for it, except the readers' notice that they re-normalized a bank. With parses,
    so does an argparse usage error: the case's flags are all valid, so its files
    must be read.
    """
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.filterwarnings("ignore", message=".*re-normalizing")
        code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    if (not caught and code in DOCUMENTED and "Traceback" not in err
            and len(err.strip().splitlines()) <= 1
            and not (parses and err.startswith(f"error: nft-ood {argv[0]}:"))):
        return None
    return (f"{argv}: exit {code}, stderr {err.strip().splitlines()[-1:]}, "
            f"warnings {[str(w.message) for w in caught][:1]}")


def _mutated(rng, data):
    """data with a few bytes overwritten, or cut short, or with bytes appended."""
    out = bytearray(data)
    kind = rng.integers(0, 4)
    if kind == 0:
        return bytes(out[: rng.integers(0, len(out))])
    if kind == 1:
        return bytes(out) + rng.integers(0, 256, size=rng.integers(1, 9), dtype=np.uint8).tobytes()
    for i in rng.integers(0, len(out), size=rng.integers(1, 5)):
        # the header is where a reader's sizes live: hit it as often as the payload
        out[i if kind == 2 else i % 32] = rng.integers(0, 256)
    return bytes(out)


def _dataset_copy(src, dst, name, content):
    """src's dataset in dst, with the file name holding content instead."""
    dst.mkdir()
    for f in ("labels.fbnk", "train.fbnk", "test_id.fbnk", "manifest.jsonl"):
        (dst / f).write_bytes(content if f == name else (src / f).read_bytes())
    return dst


def test_fuzz_file_mutations(inputs, tmp_path, capsys):
    rng = np.random.default_rng(2025)
    data, out = inputs / "data", tmp_path / "out.csv"
    bad = []
    for i in range(60):
        for name in ("labels.fbnk", "manifest.jsonl", "test_id.fbnk"):
            d = _dataset_copy(data, tmp_path / f"{name}_{i}", name,
                              _mutated(rng, (data / name).read_bytes()))
            bad.append(_outcome(["score", "--bank", d, "--images", d / "test_id.fbnk",
                                 "--out", out], capsys))
    # the v1 fixtures were written at D=8, the dataset's width
    checkpoints = {"v2": inputs / "run" / "checkpoint.nftc"}
    checkpoints.update((mode, os.path.join(FIXTURES, f"v1_{mode}.nftc"))
                       for mode in ("const_shift", "vec_shift", "scale_shift", "mlp"))
    for tag, path in checkpoints.items():
        with open(path, "rb") as f:
            raw = f.read()
        for i in range(60 if tag == "v2" else 20):
            ckpt = tmp_path / f"{tag}_{i}.nftc"
            ckpt.write_bytes(_mutated(rng, raw))
            bad.append(_outcome(["score", "--bank", data, "--images", data / "test_id.fbnk",
                                 "--method", "krnft", "--checkpoint", ckpt, "--out", out],
                                capsys))
    # select-crops reads the crops .fbnk, the crops manifest and the dataset's labels.fbnk
    # (its manifest.jsonl below), mine-neg its lexicon and ID .fbnk
    select = {"--crops": data / "test_id.fbnk", "--crops-manifest": data / "crops.jsonl",
              "--data": data}
    mine = {"--lexicon": data / "labels.fbnk", "--id-bank": data / "test_id.fbnk"}
    for command, files, extra in (("select-crops", select, ["-q", "1"]),
                                  ("mine-neg", mine, ["-m", "2"])):
        for flag, path in files.items():
            for i in range(20):
                mutated = tmp_path / f"{command}{flag}_{i}"
                if flag == "--data":
                    _dataset_copy(data, mutated, "labels.fbnk",
                                  _mutated(rng, (data / "labels.fbnk").read_bytes()))
                else:
                    mutated.write_bytes(_mutated(rng, path.read_bytes()))
                argv = [command, *extra, "--out", tmp_path / f"{command}_out"]
                for f, p in files.items():
                    argv += [f, mutated if f == flag else p]
                bad.append(_outcome(argv, capsys, parses=True))
    raw = (inputs / "id.csv").read_bytes()
    for i in range(60):
        scores = tmp_path / f"scores_{i}.csv"
        scores.write_bytes(_mutated(rng, raw))
        bad.append(_outcome(["eval", "--scores-id", scores, "--scores-ood",
                             inputs / "ood.csv", "--out", tmp_path / "eval.json"], capsys))
    raw = (data / "manifest.jsonl").read_bytes()
    for i in range(20):
        d = _dataset_copy(data, tmp_path / f"select-crops_manifest_{i}", "manifest.jsonl",
                          _mutated(rng, raw))
        bad.append(_outcome(["select-crops", "--crops", data / "test_id.fbnk",
                             "--crops-manifest", data / "crops.jsonl", "--data", d, "-q", "1",
                             "--out", tmp_path / "select-crops_out"], capsys, parses=True))
    bad = [b for b in bad if b]
    assert not bad, f"{len(bad)} undocumented outcomes, e.g. {bad[:3]}"


# edits (array key, index, value) of the trained checkpoint: Inf and NaN parameters, and
# finite ones whose tuned rows overflow
CHECKPOINT_EDITS = (
    (("pos_head.beta", 0, math.inf),),
    (("pos_net.w1", (0, 0), math.inf),),
    (("pos_head.alpha", ..., 1.7e308), ("pos_head.beta", ..., 1.7e308)),
    (("neg_head.alpha", 0, math.nan),),
)


def test_fuzz_fixed_non_finite_values(inputs, tmp_path, capsys):
    data, out = inputs / "data", tmp_path / "out.csv"
    bad = []
    for i, edits in enumerate(CHECKPOINT_EDITS):
        ckpt = load_checkpoint(inputs / "run" / "checkpoint.nftc")
        for key, index, value in edits:
            ckpt.model.arrays[key][index] = value
        path = tmp_path / f"edit_{i}.nftc"
        save_checkpoint(ckpt, path)
        bad.append(_outcome(["score", "--bank", data, "--images", data / "test_id.fbnk",
                             "--method", "krnft", "--checkpoint", path, "--out", out], capsys))
    # a float32 NaN or Inf in row 1, column 2 of a bank
    for name in ("test_id.fbnk", "labels.fbnk"):
        for value in (math.nan, math.inf):
            raw = bytearray((data / name).read_bytes())
            (dim,) = struct.unpack_from("<Q", raw, 16)
            struct.pack_into("<f", raw, 24 + 4 * (dim + 2), value)
            d = _dataset_copy(data, tmp_path / f"{name}_{value}", name, bytes(raw))
            bad.append(_outcome(["score", "--bank", d, "--images", d / "test_id.fbnk",
                                 "--out", out], capsys))
    bad = [b for b in bad if b]
    assert not bad, f"{len(bad)} undocumented outcomes, e.g. {bad[:3]}"


def test_fuzz_fixed_shape_cases(inputs, tmp_path, capsys):
    # krnft on no images against a bank without negative labels (once exit 0 with a
    # header-only CSV), and training on negatives only from a train.fbnk narrower than
    # labels.fbnk (once exit 4)
    data = inputs / "data"
    records = (data / "manifest.jsonl").read_text().splitlines()

    def without(role):
        return "".join(line + "\n" for line in records if json.loads(line)["role"] != role)

    d = _dataset_copy(data, tmp_path / "no_neg", "manifest.jsonl", without("neg_label").encode())
    write_bank(tmp_path / "none.fbnk", np.zeros((0, 8)))
    checkpoints = [inputs / "run" / "checkpoint.nftc"]
    checkpoints += [os.path.join(FIXTURES, f"v1_{mode}.nftc")
                    for mode in ("const_shift", "vec_shift", "scale_shift", "mlp")]
    bad = [_outcome(["score", "--bank", d, "--images", tmp_path / "none.fbnk", "--method",
                     "krnft", "--checkpoint", path, "--out", tmp_path / "s.csv"], capsys)
           for path in checkpoints]
    d = _dataset_copy(data, tmp_path / "narrow", "manifest.jsonl", without("train_pos").encode())
    write_bank(d / "train.fbnk", np.eye(4)[np.arange(read_bank(data / "train.fbnk").shape[0]) % 4])
    bad.append(_outcome(["train", "--data", d, "--out", d / "run", *TRAIN], capsys))
    bad = [b for b in bad if b]
    assert not bad, f"{len(bad)} undocumented outcomes, e.g. {bad[:3]}"


def _with_header(raw, rows, dim):
    """FBNK bytes raw with the header's rows and dim replaced where given (None keeps
    the field), and the payload cut to rows * dim * 4 bytes where that is shorter."""
    old_rows, old_dim = struct.unpack_from("<QQ", raw, 8)
    rows = old_rows if rows is None else rows
    dim = old_dim if dim is None else dim
    return raw[:8] + struct.pack("<QQ", rows, dim) + raw[24 : 24 + rows * dim * 4]


def test_fuzz_fixed_bank_headers(inputs, tmp_path, capsys):
    # rows and dim of 0 or past what numpy can shape, alone and together, in every bank
    # that score, train, select-crops and mine-neg read: rows 0 with dim 2**62 or 2**63,
    # and dim 0 with rows 2**63, once exited 4 with a traceback
    data, out = inputs / "data", tmp_path / "out"
    values = (None, 0, 2**62, 2**63, 2**64 - 1)
    headers = [(rows, dim) for rows in values for dim in values if (rows, dim) != (None, None)]
    crops = ["--crops-manifest", data / "crops.jsonl", "-q", "1", "--out", out]
    commands = {"score": lambda d: ["score", "--bank", d, "--images", d / "test_id.fbnk",
                                    "--out", out],
                "train": lambda d: ["train", "--data", d, "--out", d / "run", *TRAIN],
                "select-crops": lambda d: ["select-crops", "--data", d,
                                           "--crops", data / "test_id.fbnk", *crops]}
    reads = {"labels.fbnk": ("score", "train", "select-crops"), "train.fbnk": ("train",),
             "test_id.fbnk": ("score",)}
    select = {"--crops": data / "test_id.fbnk"}
    mine = {"--lexicon": data / "labels.fbnk", "--id-bank": data / "test_id.fbnk"}
    bad = []
    for i, (rows, dim) in enumerate(headers):
        for name, readers in reads.items():
            d = _dataset_copy(data, tmp_path / f"{name}_{i}", name,
                              _with_header((data / name).read_bytes(), rows, dim))
            bad += [_outcome(commands[c](d), capsys, parses=c == "select-crops")
                    for c in readers]
        for command, files, extra in (("select-crops", select, ["--data", data, *crops]),
                                      ("mine-neg", mine, ["-m", "2", "--out", out])):
            for flag, path in files.items():
                edited = tmp_path / f"{command}{flag}_{i}"
                edited.write_bytes(_with_header(path.read_bytes(), rows, dim))
                argv = [command, *extra]
                for f, p in files.items():
                    argv += [f, edited if f == flag else p]
                bad.append(_outcome(argv, capsys, parses=command == "select-crops"))
    bad = [b for b in bad if b]
    assert not bad, f"{len(bad)} undocumented outcomes, e.g. {bad[:3]}"


# JSON texts that no record field holds in a valid manifest, and some that one does
JSON_VALUES = ("-1", str(2**64), "1e400", "null", "[]", "{}", '""', "true")


def test_fuzz_manifest_values(inputs, tmp_path, capsys):
    data = inputs / "data"
    records = [json.loads(line) for line in (data / "manifest.jsonl").read_text().splitlines()]
    # the first record of each role
    picked = {r["role"]: i for i, r in reversed(list(enumerate(records)))}
    bad = []
    for role, i in sorted(picked.items()):
        for key in ("row", "id", "role", "class", "parent"):
            for j, value in enumerate(JSON_VALUES):
                lines = [json.dumps(r, sort_keys=True) for r in records]
                lines[i] = json.dumps(dict(records[i], **{key: "@"}), sort_keys=True).replace(
                    '"@"', value)
                d = _dataset_copy(data, tmp_path / f"{role}_{key}_{j}", "manifest.jsonl",
                                  "\n".join(lines).encode() + b"\n")
                if role.startswith("train"):
                    argv = ["train", "--data", d, "--out", d / "run", *TRAIN]
                else:
                    argv = ["score", "--bank", d, "--images", d / "test_id.fbnk",
                            "--out", d / "s.csv"]
                bad.append(_outcome(argv, capsys))
    bad = [b for b in bad if b]
    assert not bad, f"{len(bad)} undocumented outcomes, e.g. {bad[:3]}"


# edge values of a number flag: signs, zero, the uint64 bounds, overflow, underflow,
# NaN, non-numbers
FLAG_VALUES = ("-1", "0", "-0", "0.5", "1", "1.5", "2", "-0.5", str(2**64 - 1), str(2**64),
               "1e308", "1e400", "1e-310", "1e-400", "nan", "inf", "-inf", "", "x")
# the values of a size flag: none large
COUNT_VALUES = ("-1", "0", "-0", "0.5", "1", "2", "3", "1e3", "", "x")
# sizes past any array numpy can shape, 2**60 - 1 float64 elements
HUGE_COUNTS = (str(2**61), str(2**62), str(2**64 - 1))
SYNTH_SIZE_FLAGS = ("--dim", "--n-classes", "--m-neg", "--shots", "--crops-per-sample",
                    "--select", "--n-test-per-class", "--n-test-ood")


def test_fuzz_flag_values(inputs, tmp_path, capsys):
    data = inputs / "data"
    train = ["train", "--data", data, "--out", tmp_path / "run", *TRAIN]
    commands = {
        "synth": ["synth", "--out", tmp_path / "synth", *SYNTH],
        "train": train,
        "score": ["score", "--bank", data, "--images", data / "test_id.fbnk",
                  "--out", tmp_path / "s.csv"],
        "gradcheck": ["gradcheck", "--mode", "const_shift", "--kr-variant", "feature",
                      "--instances", "1"],
    }
    flags = [("synth", "--seed"), ("gradcheck", "--seed"), ("score", "--tau-score")]
    flags += [("train", f) for f in ("--seed", "--tau-loss", "--lambda1", "--lambda2", "--lr",
                                     "--beta1", "--beta2", "--adam-eps", "--weight-decay")]
    bad = [_outcome(commands[cmd] + [flag, value], capsys)
           for cmd, flag in flags for value in FLAG_VALUES]
    # --shots 2**62 once died with SIGSEGV, the other sizes exited 4; a kappa whose noise
    # overflows a norm once wrote zero rows (1e160) or exited 2 after a RuntimeWarning (1e308)
    bad += [_outcome(commands[cmd] + [flag, value], capsys)
            for cmd, flag in [("synth", f) for f in SYNTH_SIZE_FLAGS] + [("train", "--hidden")]
            for value in HUGE_COUNTS]
    bad += [_outcome(commands["synth"] + ["--kappa", value], capsys)
            for value in ("1e160", "1e308")]
    select = ["select-crops", "--crops", data / "test_id.fbnk", "--crops-manifest",
              data / "crops.jsonl", "--data", data, "--out", tmp_path / "sel"]
    mine = ["mine-neg", "--lexicon", data / "labels.fbnk", "--id-bank", data / "test_id.fbnk",
            "--out", tmp_path / "neg.json"]
    # an integer -q is parsed, so the other flags must be too
    bad += [_outcome(select + ["-q", value], capsys, parses=value.lstrip("-").isdigit())
            for value in COUNT_VALUES]
    bad += [_outcome(mine + ["-m", value], capsys) for value in COUNT_VALUES]
    bad += [_outcome(mine + ["-m", "2", "--stat", "quantile", "--quantile", value], capsys)
            for value in FLAG_VALUES]
    bad += [_outcome(mine + ["-m", "2", "--stat", value, "--quantile", "0.5"], capsys)
            for value in ("max", "quantile", "MAX", "min", "", "x")]
    bad = [b for b in bad if b]
    assert not bad, f"{len(bad)} undocumented outcomes, e.g. {bad[:3]}"
