"""Command-line entry point.

Subcommands cover the full pipeline: synthetic data generation, negative
label mining, crop selection, training, scoring, metric evaluation, and a
gradient self-check. Exit codes: 0 success, 1 usage/config error, 2
data/format error, 3 numeric failure, 4 internal error (a bug; its
traceback is printed).
"""

import argparse
import csv
import functools
import json
import math
import os
import sys
import traceback
from dataclasses import asdict, fields

import numpy as np

from . import data_io, mining, scoring
from .errors import ConfigError, DataError, NumericError, QTooLarge, SchemaError
from .model import MODES, init_model, load_checkpoint, save_checkpoint
from .objectives import KR_VARIANTS, finite_diff_grad, max_relative_error
from .trainer import TrainConfig, gradcheck_instance, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

# the fixed bound of every gradient check: a run may not loosen it
GRADCHECK_TOLERANCE = 1e-4


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _echo_config(out_dir, cfg_dict):
    _write_json(os.path.join(out_dir, "config.json"), cfg_dict)


# the JSON values a config file may give a field of each type; bool is no int
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _config_keys(cls):
    """The type of each of cls's fields, which a command echoes into its config.json."""
    return {f.name: f.type for f in fields(cls)}


def _load_config_file(path, keys):
    """The JSON object in path; each of its keys must be in keys and hold a value of its type.

    keys are those the command echoes into its config.json, so an echoed
    config.json can be replayed, and a misspelt key fails instead of being
    ignored.
    """
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except (OSError, ValueError) as e:  # ValueError: bad UTF-8 or JSON, or a too-long integer
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path}: not a JSON object")
    for key, value in cfg.items():
        if key not in keys:
            raise ConfigError(f"config file {path}: unknown key {key!r}")
        if type(value) not in _JSON_TYPES[keys[key]]:
            raise ConfigError(f"config file {path}: key {key!r} must be "
                              f"{keys[key].__name__}, got {value!r}")
    return cfg


def _merged(file_cfg, args, keys):
    """The file's entries among keys, each overridden by its CLI flag if one was passed."""
    out = {k: file_cfg[k] for k in keys if k in file_cfg}
    out.update((k, getattr(args, k)) for k in keys if getattr(args, k) is not None)
    return out


def cmd_synth(args):
    keys = _config_keys(data_io.SynthConfig)
    cfg = data_io.SynthConfig(**_merged(_load_config_file(args.config, keys), args, keys))
    data_io.write_dataset(args.out, data_io.synth_dataset(cfg))
    _echo_config(args.out, asdict(cfg))
    print(f"wrote synthetic dataset to {args.out}")
    return EXIT_OK


def cmd_mine_neg(args):
    if args.stat == "quantile" and (args.quantile is None or not 0 <= args.quantile <= 1):
        raise ConfigError(
            f"--stat quantile needs --quantile in [0, 1], got {args.quantile}")
    lex_feats = data_io.read_bank(args.lexicon, unit_rows=True)
    lexicon = mining.CandidateLexicon(
        features=lex_feats, names=[f"cand_{i}" for i in range(lex_feats.shape[0])]
    )
    id_rows = data_io.read_bank(args.id_bank, unit_rows=True)
    idx = mining.mine_negative_labels(
        lexicon, id_rows, args.m, stat=args.stat, quantile=args.quantile
    )
    _write_json(args.out, {"indices": [int(i) for i in idx]})
    _write_json(args.out + ".config.json", {
        "lexicon": args.lexicon, "id_bank": args.id_bank, "m": args.m,
        "stat": args.stat, "quantile": args.quantile,
    })
    print(f"selected {len(idx)} negative labels -> {args.out}")
    return EXIT_OK


def cmd_select_crops(args):
    crops = data_io.read_bank(args.crops, unit_rows=True)
    bank, _ = data_io.read_dataset(args.data, training=False)
    records = data_io.read_manifest(args.crops_manifest, n_rows=crops.shape[0])
    if not records:
        raise DataError(f"{args.crops_manifest}: manifest declares no crop rows")
    groups = {}
    for rec in records:
        if rec["role"] != "crop":
            raise DataError(f"crops manifest contains non-crop role {rec['role']!r}")
        if not 0 <= rec["class"] < bank.n_pos:
            raise SchemaError(f"{args.crops_manifest}: crop row {rec['row']} (id {rec['id']!r}) "
                              f"has class {rec['class']}, outside the {bank.n_pos} pos_label "
                              f"rows of {args.data}")
        groups.setdefault((rec["parent"], rec["class"]), []).append(rec["row"])
    crop_sets = [mining.CropSet(parent_id=parent, label_index=cls, features=crops[sorted(rows)])
                 for (parent, cls), rows in groups.items()]
    try:
        training = mining.build_training_set(crop_sets, bank.pos, args.q)
    except QTooLarge as e:
        raise QTooLarge(f"{args.crops_manifest}: {e}") from None
    no_rows = np.empty((0, bank.dim))
    data_io.write_dataset(args.out, data_io.SynthResult(bank, training, no_rows, no_rows,
                                                        np.empty(0, dtype=int)))
    _echo_config(args.out, {"crops": args.crops, "data": args.data, "q": args.q})
    print(f"selected {training.n_pos} positive / {training.n_neg} negative crops")
    return EXIT_OK


# what train echoes into its config.json besides TrainConfig's fields
_TRAIN_RUN_KEYS = {"data_dir": str, "mode": str, "hidden": int}


def cmd_train(args):
    keys = _config_keys(TrainConfig)
    file_cfg = _load_config_file(args.config, dict(keys, **_TRAIN_RUN_KEYS))
    data_dir = args.data or file_cfg.get("data_dir")
    if data_dir is None:
        raise ConfigError("train requires --data or a data_dir config entry")
    mode = args.mode or file_cfg.get("mode", "scale_shift")
    hidden = args.hidden if args.hidden is not None else file_cfg.get("hidden")
    cfg = TrainConfig(**_merged(file_cfg, args, keys))
    bank, training = data_io.read_dataset(data_dir)
    state = init_model(bank.dim, hidden=hidden, mode=mode, seed=cfg.seed)
    ckpt, trace = train(state, bank, training, cfg)
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(ckpt, os.path.join(args.out, "checkpoint.nftc"))
    trace.save_csv(os.path.join(args.out, "trace.csv"))
    echoed = dict(asdict(cfg), data_dir=data_dir, mode=mode, hidden=state.hidden)
    _echo_config(args.out, echoed)
    finals = trace.epoch_mean_totals()
    print("epoch mean totals: " + ", ".join(f"{e}:{t:.6f}" for e, t in finals.items()))
    return EXIT_OK


def cmd_score(args):
    bank, _ = data_io.read_dataset(args.bank, training=False)
    images = data_io.read_bank(args.images, unit_rows=True)
    state = None
    if args.method == "krnft":
        if args.checkpoint is None:
            raise ConfigError("krnft scoring requires --checkpoint")
        state = load_checkpoint(args.checkpoint).model
    scores = scoring.score_many(images, args.method, bank, state=state,
                                tau_score=args.tau_score)
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["id", "score", "truth"])
        truth = args.truth or ""
        w.writerows([f"img_{i}", repr(s), truth] for i, s in enumerate(scores.tolist()))
    _write_json(args.out + ".config.json", {
        "bank": args.bank, "images": args.images, "method": args.method,
        "tau_score": args.tau_score, "checkpoint": args.checkpoint,
    })
    print(f"scored {len(scores)} samples -> {args.out}")
    return EXIT_OK


def _read_scores_csv(path):
    scores = []
    try:
        with open(path, encoding="utf-8") as f:
            reader = csv.DictReader(f)
            if "score" not in (reader.fieldnames or ()):
                raise DataError(f"{path} line 1: no 'score' column")
            for row in reader:
                try:
                    score = float(row["score"])
                except (TypeError, ValueError):  # empty cell, short row or not a number
                    raise DataError(
                        f"{path} line {reader.line_num}: score is not a number") from None
                if not math.isfinite(score):
                    raise DataError(f"{path} line {reader.line_num}: score is NaN or Inf")
                scores.append(score)
    except UnicodeDecodeError:
        raise DataError(f"{path}: not valid UTF-8") from None
    return np.array(scores)


def cmd_eval(args):
    if args.pair:
        a, b = args.pair
        if not (0 < a <= 100 and 0 < b <= 100):  # also rejects NaN; Inf is > 100
            raise ConfigError(f"--pair values must be in (0, 100], got {a} and {b}")
        out = {"hmean": round(scoring.hmean(a, b), 4)}
    else:
        if args.scores_id is None or args.scores_ood is None:
            raise ConfigError("eval needs --scores-id and --scores-ood, or --pair")
        if not 0 < args.tpr <= 1:
            raise ConfigError(f"--tpr must be in (0, 1], got {args.tpr}")
        id_scores = _read_scores_csv(args.scores_id)
        ood_scores = _read_scores_csv(args.scores_ood)
        report = scoring.evaluate(id_scores, ood_scores, tpr=args.tpr)
        out = report.to_dict()
        for key in ("auroc", "fpr95", "threshold"):
            out[key] = round(out[key], 4)
    _write_json(args.out, out)
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_gradcheck(args):
    if args.instances < 1:
        raise ConfigError(f"--instances must be >= 1, got {args.instances}")
    if args.seed < 0:  # a negative base seed would reach default_rng
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    modes = [args.mode] if args.mode else list(MODES)
    variants = [args.kr_variant] if args.kr_variant else list(KR_VARIANTS)
    # an instance draws from seed base_seed * 1000 + attempt (attempt < 50), below 2**64
    limit = ((2**64 - 50) // 1000 - 10000 * max(map(MODES.index, modes))
             - 100 * max(map(KR_VARIANTS.index, variants)) - args.instances + 1)
    if limit < 0:  # too many instances even at --seed 0
        raise ConfigError(f"--instances must be <= {args.instances + limit} for these modes "
                          f"and variants, got {args.instances}")
    if args.seed > limit:
        raise ConfigError(f"--seed must be <= {limit} for these modes, variants and "
                          f"--instances, got {args.seed}")
    worst = 0.0
    failures = []
    for mode in modes:
        for variant in variants:
            for inst in range(args.instances):
                # --seed 0 --instances 7 replays the acceptance suite's instances
                base_seed = (10000 * MODES.index(mode) + 100 * KR_VARIANTS.index(variant)
                             + args.seed + inst)
                state, bank, batch, cfg, analytic = gradcheck_instance(mode, variant,
                                                                       base_seed)
                numeric = finite_diff_grad(state, bank, batch, cfg, eps=1e-5)
                err = max_relative_error(analytic, numeric)
                worst = max(worst, err)
                status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
                if status == "FAIL":
                    failures.append((mode, variant, inst, err))
                print(f"gradcheck mode={mode} kr={variant} instance={inst} "
                      f"max_rel_err={err:.3e} {status}")
    print(f"worst max_rel_err={worst:.3e} tolerance={GRADCHECK_TOLERANCE:.1e}")
    if failures:
        raise NumericError(f"{len(failures)} gradient check failures")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, through main's ConfigError handler
        raise ConfigError(f"{self.prog}: {message}")


def _add_field_flags(parser, cls):
    """A --field-name flag for each field of cls, of the field's type and None unless passed."""
    for f in fields(cls):
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=f.type)


def build_parser():
    p = _Parser(prog="nft-ood", description="Feature tuning for OOD detection")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic embedding dataset")
    sp.add_argument("--config")
    sp.add_argument("--out", required=True)
    _add_field_flags(sp, data_io.SynthConfig)
    sp.set_defaults(func=cmd_synth)

    mp = sub.add_parser("mine-neg", help="mine negative labels from a lexicon")
    mp.add_argument("--lexicon", required=True)
    mp.add_argument("--id-bank", dest="id_bank", required=True)
    mp.add_argument("-m", type=int, required=True)
    mp.add_argument("--stat", choices=("max", "quantile"), default="max")
    mp.add_argument("--quantile", type=float)
    mp.add_argument("--out", required=True)
    mp.set_defaults(func=cmd_mine_neg)

    cp = sub.add_parser("select-crops", help="select top/bottom crops per sample")
    cp.add_argument("--crops", required=True)
    cp.add_argument("--crops-manifest", dest="crops_manifest", required=True)
    cp.add_argument("--data", required=True, help="dataset directory of the label bank")
    cp.add_argument("-q", type=int, required=True)
    cp.add_argument("--out", required=True)
    cp.set_defaults(func=cmd_select_crops)

    tp = sub.add_parser("train", help="train the feature-tuning model")
    tp.add_argument("--config")
    tp.add_argument("--data")
    tp.add_argument("--out", required=True)
    tp.add_argument("--mode")
    tp.add_argument("--hidden", type=int)
    _add_field_flags(tp, TrainConfig)
    tp.set_defaults(func=cmd_train)

    scp = sub.add_parser("score", help="score image features")
    scp.add_argument("--bank", required=True, help="dataset directory")
    scp.add_argument("--images", required=True, help="fbnk file of image features")
    scp.add_argument("--method", choices=("mcm", "neglabel", "krnft"),
                     default="neglabel")
    scp.add_argument("--checkpoint")
    scp.add_argument("--tau-score", dest="tau_score", type=float, default=1.0)
    scp.add_argument("--truth", choices=("ID", "OOD"))
    scp.add_argument("--out", required=True)
    scp.set_defaults(func=cmd_score)

    ep = sub.add_parser("eval", help="compute AUROC / FPR95 metrics")
    ep.add_argument("--scores-id", dest="scores_id")
    ep.add_argument("--scores-ood", dest="scores_ood")
    ep.add_argument("--tpr", type=float, default=0.95)
    ep.add_argument("--pair", nargs=2, type=float, metavar=("FPR_A", "FPR_B"),
                    help="combine two FPR95 values with their harmonic mean")
    ep.add_argument("--out", required=True)
    ep.set_defaults(func=cmd_eval)

    gp = sub.add_parser("gradcheck", help="verify analytic gradients")
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--mode", choices=MODES)
    gp.add_argument("--kr-variant", dest="kr_variant", choices=KR_VARIANTS)
    gp.add_argument("--instances", type=int, default=3)
    gp.set_defaults(func=cmd_gradcheck)

    return p


@functools.cache
def _parser():
    # parse_args leaves the parser unchanged, so one per process serves every call
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # --help
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception:  # a bug: keep it visible, under a code of its own
        traceback.print_exc()
        print("internal error: the traceback above is a bug", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
