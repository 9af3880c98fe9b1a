"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup`, runs one unit of
work per `iteration` (every call into `nft_ood` goes through `Harness.op`),
checks the outputs in `verify` outside the timed region, and in a traced run
splits its composite calls into their public parts in `decompose`.

The work is deterministic for a seed, so `verify` checks the first
iteration's output against independent references, and every later
iteration's `same` part must equal the first one's.
"""

import contextlib
import csv
import io
import json
import os
from statistics import median

import numpy as np

from nft_ood import cli, data_io, mining, model, objectives, scoring, trainer

import reference
from harness import tail

# Identity-initialized krnft must equal zero-shot neglabel on every seed.
IDENTITY_TOL = 1e-10
# Library scores against the independent numpy references.
REFERENCE_TOL = 1e-9
# Default-seed quality figures against the values recorded in reference.json.
RECORDED_TOL = 1e-6


def _metric(value, unit, better):
    return {"value": value, "unit": unit, "better": better}


def _tail_metrics(prefix, values_ms):
    out = {f"{prefix}_p50_ms": _metric(median(values_ms), "ms", "lower")}
    t = tail(values_ms)
    if t is not None:
        out[f"{prefix}_tail_ms"] = _metric(t[0], "ms", "lower")
        out[f"{prefix}_tail_ms"].update(percentile=round(t[1], 2), samples=t[2])
    return out


def _check_recorded(h, recorded, auroc, fpr95):
    """Default seed only: quality figures must match the recorded values."""
    for key, got in (("krnft_auroc", auroc), ("krnft_fpr95", fpr95)):
        want = recorded[key]
        h.check("scoring", abs(got - want) <= RECORDED_TOL,
                f"{key} {got!r} differs from recorded {want!r}")


def _check_identity(h, images, bank, dim, tau, mode="scale_shift"):
    """krnft with an identity-initialized model equals neglabel."""
    ident = model.init_model(dim, mode=mode, seed=0)
    kr = scoring.score_many(images, "krnft", bank, state=ident, tau_score=tau)
    nl = scoring.score_many(images, "neglabel", bank, tau_score=tau)
    err = float(np.max(np.abs(kr - nl)))
    h.check("scoring", err <= IDENTITY_TOL,
            f"identity krnft differs from neglabel by {err:.3e}")


def _check_report(h, report, id_scores, ood_scores):
    """evaluate's AUROC, FPR95 and threshold equal the references on the same scores."""
    want = (reference.auroc(id_scores, ood_scores),) + reference.fpr_at_tpr(id_scores,
                                                                            ood_scores)
    got = (report["auroc"], report["fpr95"], report["threshold"])
    h.check("scoring", got == want, f"evaluate gave {got!r}, references {want!r}")


def _read(path, mode="r"):
    with open(path, mode) as f:
        return f.read()


def _csv_scores(text):
    return np.array([float(row["score"]) for row in csv.DictReader(io.StringIO(text))])


def equal(a, b):
    """Exact equality of nested dicts of arrays and plain values."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


# --------------------------------------------------------------------------- #


class TrainMid:
    """Training at mid shape, then krnft scoring of a held-out split."""

    name = "train_mid"
    layer = "trainer"
    synth = dict(dim=128, n_classes=100, m_neg=1000, shots=4, crops_per_sample=16,
                 select=4, n_test_per_class=4, n_test_ood=400)
    # Default TrainConfig except one epoch, so an iteration fits a run.
    epochs = 1
    tau_score = 1.0

    def sizes(self):
        return dict(self.synth, mode="scale_shift", kr_variant="feature", kr_scope="both",
                    train_epochs=self.epochs, train_samples=2 * self.synth["n_classes"]
                    * self.synth["shots"] * self.synth["select"],
                    tau_score=self.tau_score)

    def setup(self, h, seed, workdir):
        cfg = data_io.SynthConfig(seed=seed, **self.synth)
        with h.op("data_io.synth_dataset"):
            data = data_io.synth_dataset(cfg)
        tcfg = trainer.TrainConfig(epochs=self.epochs, seed=seed)
        return {"seed": seed, "data": data, "cfg": tcfg}

    def _fresh_state(self, ctx):
        return model.init_model(ctx["data"].bank.dim, mode="scale_shift", seed=ctx["seed"])

    def iteration(self, h, ctx):
        data, cfg = ctx["data"], ctx["cfg"]
        bank, training = data.bank, data.training
        samples = cfg.epochs * (training.n_pos + training.n_neg)
        with h.op("trainer.train", samples=samples):
            ckpt, trace = trainer.train(self._fresh_state(ctx), bank, training, cfg)
        images = np.vstack([data.test_id, data.test_ood])
        with h.op("scoring.score_many.krnft", images=images.shape[0]):
            scores = scoring.score_many(images, "krnft", bank, state=ckpt.model,
                                        tau_score=self.tau_score)
        n_id = data.test_id.shape[0]
        with h.op("scoring.evaluate", scores=images.shape[0]):
            report = scoring.evaluate(scores[:n_id], scores[n_id:])

        # Replay of trainer.train's loop through its public parts, timed per step.
        state = self._fresh_state(ctx)
        opt = trainer.init_optimizer(state)
        params = state.params()
        replay = trainer.LossTrace()
        step = 0
        for epoch in range(cfg.epochs):
            with h.op("trainer.make_batches"):
                batches = trainer.make_batches(training, cfg.batch_size, cfg.seed, epoch)
            for batch in batches:
                with h.op("objectives.backward", samples=batch.n_pos + batch.n_neg):
                    loss, grads = objectives.backward(state, bank, batch, cfg)
                with h.op("trainer.adamw_step"):
                    trainer.adamw_step(params, grads, opt, cfg)
                replay.append(epoch, step, loss)
                step += 1
        return {"digest": trace.digest(), "meta_digest": ckpt.meta["trace_digest"],
                "replay_digest": replay.digest(), "trained": ckpt.model,
                "replayed": state, "scores": scores, "report": report.to_dict(),
                "samples": samples, "images": images.shape[0]}

    def verify(self, h, ctx, first, recorded):
        h.check("trainer", first["digest"] == first["meta_digest"],
                "checkpoint trace_digest differs from the returned trace")
        h.check("trainer", first["replay_digest"] == first["digest"],
                "replayed loop does not reproduce trainer.train's trace digest")
        h.check("trainer", model.states_equal(first["replayed"], first["trained"]),
                "replayed parameters differ from trainer.train's")
        data = ctx["data"]
        bank, images = data.bank, np.vstack([data.test_id, data.test_ood])
        want = reference.krnft_scale_shift(images, bank.pos, bank.neg,
                                           first["trained"].params(), self.tau_score)
        err = float(np.max(np.abs(first["scores"] - want)))
        h.check("scoring", err <= REFERENCE_TOL,
                f"krnft scores differ from the numpy reference by {err:.3e}")
        n_id = data.test_id.shape[0]
        _check_report(h, first["report"], first["scores"][:n_id], first["scores"][n_id:])
        _check_identity(h, data.test_id[:8], data.bank, data.bank.dim, self.tau_score)
        if recorded is not None:
            _check_recorded(h, recorded, first["report"]["auroc"], first["report"]["fpr95"])

    def same(self, out):
        return {k: out[k] for k in ("digest", "replay_digest", "scores", "report")}

    def decompose(self, h, ctx, first):
        pass  # the replay inside every iteration already splits trainer.train

    def metrics(self, h, ctx, walls, first):
        train_s = h.timings["trainer.train"]
        krnft_s = h.timings["scoring.score_many.krnft"]
        # a replayed step is one backward plus one adamw_step
        steps_ms = [1e3 * (b + a) for b, a in zip(h.timings["objectives.backward"],
                                                  h.timings["trainer.adamw_step"])]
        named = {
            "train_samples_per_s": _metric(first["samples"] / median(train_s), "1/s", "higher"),
            "krnft_images_per_s": _metric(first["images"] / median(krnft_s), "1/s", "higher"),
            "krnft_auroc": _metric(first["report"]["auroc"], "1", "higher"),
            "krnft_fpr95": _metric(first["report"]["fpr95"], "1", "lower"),
        }
        named.update(_tail_metrics("train_step", steps_ms))
        return named, named["train_samples_per_s"]["value"]


# --------------------------------------------------------------------------- #


class ScorePaper:
    """Negative mining, bank and checkpoint round trips and scoring at paper shape."""

    name = "score_paper"
    layer = "scoring"
    dim, n_pos, m_neg = 512, 1000, 10000
    n_candidates = 3 * m_neg
    n_images = 16  # per side (ID and OOD)
    # NegLabel's CLIP temperature; at the library default of 1.0 the scores
    # are nearly flat at this bank size.
    tau_score = 0.01
    param_scale = 0.01

    def sizes(self):
        return dict(dim=self.dim, n_pos=self.n_pos, m_neg=self.m_neg,
                    candidates=self.n_candidates, id_images=self.n_images,
                    ood_images=self.n_images, mode="scale_shift",
                    hidden=model.default_hidden(self.dim), tau_score=self.tau_score)

    def setup(self, h, seed, workdir):
        # synth_dataset's negatives serve as the candidate lexicon to mine from.
        cfg = data_io.SynthConfig(dim=self.dim, n_classes=self.n_pos,
                                  m_neg=self.n_candidates, shots=1, crops_per_sample=2,
                                  select=1, n_test_per_class=1, n_test_ood=self.n_images,
                                  seed=seed)
        with h.op("data_io.synth_dataset"):
            data = data_io.synth_dataset(cfg)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
        pick = np.sort(rng.choice(self.n_pos, size=self.n_images, replace=False))
        images = np.vstack([data.test_id[pick], data.test_ood])
        lexicon = mining.CandidateLexicon(
            features=data.bank.neg, names=[f"cand_{i}" for i in range(self.n_candidates)])
        state = model.init_model(self.dim, mode="scale_shift", seed=seed)
        params = state.params()
        for key in sorted(params):
            params[key] += self.param_scale * rng.standard_normal(params[key].shape)
        return {"pos": data.bank.pos, "lexicon": lexicon, "images": images,
                "state": state, "params": {k: v.copy() for k, v in params.items()},
                "bank_path": os.path.join(workdir, "bank.fbnk"),
                "ckpt_path": os.path.join(workdir, "model.nftc")}

    def iteration(self, h, ctx):
        lexicon, pos = ctx["lexicon"], ctx["pos"]
        with h.op("mining.mine_negative_labels", candidates=self.n_candidates):
            idx = mining.mine_negative_labels(lexicon, pos, self.m_neg)
        rows = np.vstack([pos, lexicon.features[idx]])
        path = ctx["bank_path"]
        with h.op("data_io.write_bank") as counts:
            data_io.write_bank(path, rows)
            counts["bytes"] = size = os.path.getsize(path)
        with h.op("data_io.read_bank", bytes=size):
            mat = data_io.read_bank(path, unit_rows=True)
        with h.op("model.FeatureBank.from_rows"):
            bank = model.FeatureBank.from_rows(mat[:self.n_pos], mat[self.n_pos:])
        ckpt_path = ctx["ckpt_path"]
        with h.op("model.save_checkpoint") as counts:
            model.save_checkpoint(model.Checkpoint(model=ctx["state"]), ckpt_path)
            counts["bytes"] = os.path.getsize(ckpt_path)
        with h.op("model.load_checkpoint"):
            loaded = model.load_checkpoint(ckpt_path).model
        images = ctx["images"]
        scores = {}
        for method in ("mcm", "neglabel", "krnft"):
            with h.op(f"scoring.score_many.{method}", images=images.shape[0]):
                scores[method] = scoring.score_many(images, method, bank, state=loaded,
                                                    tau_score=self.tau_score)
        with h.op("scoring.evaluate", scores=images.shape[0]):
            report = scoring.evaluate(scores["krnft"][:self.n_images],
                                      scores["krnft"][self.n_images:])
        return {"idx": idx, "rows": rows, "mat": mat, "bank": bank, "loaded": loaded,
                "scores": scores, "report": report.to_dict()}

    def verify(self, h, ctx, first, recorded):
        lex, pos = ctx["lexicon"].features, ctx["pos"]
        ref_idx = np.argsort(np.max(lex @ pos.T, axis=1), kind="stable")[:self.m_neg]
        h.check("mining", np.array_equal(first["idx"], ref_idx),
                "mined negatives differ from the max-cosine reference")
        h.check("data_io", np.array_equal(first["mat"], first["rows"].astype("<f4")
                                          .astype(np.float64)),
                "bank read back differs from the float32 rows written")
        h.check("model", model.states_equal(first["loaded"], ctx["state"]),
                "loaded checkpoint differs from the saved model")
        bank, images, tau = first["bank"], ctx["images"], self.tau_score
        refs = {
            "mcm": reference.mcm(images, bank.pos, tau),
            "neglabel": reference.neglabel(images, bank.pos, bank.neg, tau),
            "krnft": reference.krnft_scale_shift(images, bank.pos, bank.neg,
                                                 ctx["params"], tau),
        }
        for method, want in refs.items():
            err = float(np.max(np.abs(first["scores"][method] - want)))
            h.check("scoring", err <= REFERENCE_TOL,
                    f"{method} scores differ from the numpy reference by {err:.3e}")
        krnft = first["scores"]["krnft"]
        _check_report(h, first["report"], krnft[:self.n_images], krnft[self.n_images:])
        _check_identity(h, images[:2], bank, self.dim, tau)
        if recorded is not None:
            _check_recorded(h, recorded, first["report"]["auroc"], first["report"]["fpr95"])

    def same(self, out):
        return {k: out[k] for k in ("idx", "mat", "scores", "report")}

    def decompose(self, h, ctx, first):
        """krnft per image as transform_bank followed by score_neglabel."""
        bank, state = first["bank"], first["loaded"]
        split = []
        for v in ctx["images"]:
            with h.op("model.transform_bank"):
                rows = model.transform_bank(state, bank, v)
            with h.op("scoring.score_neglabel"):
                split.append(scoring.score_neglabel(v, rows, bank.n_pos, self.tau_score))
        h.check("scoring", np.array_equal(np.array(split), first["scores"]["krnft"]),
                "transform_bank + score_neglabel differs from score_many krnft")

    def metrics(self, h, ctx, walls, first):
        named = {}
        for m in ("krnft", "neglabel", "mcm"):
            t = h.timings[f"scoring.score_many.{m}"]
            named[f"{m}_images_per_s"] = _metric(2 * self.n_images / median(t), "1/s", "higher")
        named["krnft_auroc"] = _metric(first["report"]["auroc"], "1", "higher")
        named["krnft_fpr95"] = _metric(first["report"]["fpr95"], "1", "lower")
        return named, named["krnft_images_per_s"]["value"]


# --------------------------------------------------------------------------- #


class PipelineFixture:
    """The whole CLI, in process, at fixture shape; one caller in a closed loop."""

    name = "pipeline_fixture"
    layer = "cli"
    mode, kr_variant = "mlp", "prob"

    def sizes(self):
        cfg = data_io.SynthConfig()
        return dict(dim=cfg.dim, n_pos=cfg.n_classes, m_neg=cfg.m_neg,
                    id_images=cfg.n_classes * cfg.n_test_per_class,
                    ood_images=cfg.n_test_ood, mode=self.mode, kr_variant=self.kr_variant,
                    cli_calls_per_iteration=9, clients=1)

    def setup(self, h, seed, workdir):
        # The dataset `synth` should write, built in-library for the checks.
        with h.op("data_io.synth_dataset"):
            expected = data_io.synth_dataset(data_io.SynthConfig(seed=seed))
        d, r = os.path.join(workdir, "data"), os.path.join(workdir, "run")
        ck = os.path.join(r, "checkpoint.nftc")
        f = {k: os.path.join(workdir, k) for k in (
            "id_krnft.csv", "ood_krnft.csv", "id_neglabel.csv", "ood_neglabel.csv",
            "eval_krnft.json", "eval_neglabel.json", "hmean.json")}
        calls = [
            ("synth", ["synth", "--out", d, "--seed", str(seed)]),
            ("train", ["train", "--data", d, "--out", r, "--mode", self.mode,
                       "--kr-variant", self.kr_variant, "--seed", str(seed)]),
        ]
        for method in ("krnft", "neglabel"):
            for split, truth in (("id", "ID"), ("ood", "OOD")):
                argv = ["score", "--bank", d, "--images",
                        os.path.join(d, f"test_{split}.fbnk"), "--method", method,
                        "--truth", truth, "--out", f[f"{split}_{method}.csv"]]
                if method == "krnft":
                    argv += ["--checkpoint", ck]
                calls.append(("score", argv))
        for method in ("krnft", "neglabel"):
            calls.append(("eval", ["eval", "--scores-id", f[f"id_{method}.csv"],
                                   "--scores-ood", f[f"ood_{method}.csv"],
                                   "--out", f[f"eval_{method}.json"]]))
        return {"seed": seed, "expected": expected, "calls": calls, "files": f,
                "data": d, "ckpt": ck}

    def _main(self, h, cmd, argv):
        out, err = io.StringIO(), io.StringIO()
        with h.op(f"cli.main.{cmd}"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        h.require(f"cli.main.{cmd}", rc == 0,
                  f"cli.main {cmd} exited {rc}: {err.getvalue().strip()}")

    def iteration(self, h, ctx):
        for cmd, argv in ctx["calls"]:
            self._main(h, cmd, argv)
        f = ctx["files"]
        fprs = [json.loads(_read(f[f"eval_{m}.json"]))["fpr95"] for m in ("krnft", "neglabel")]
        self._main(h, "eval", ["eval", "--pair", repr(fprs[0]), repr(fprs[1]),
                               "--out", f["hmean.json"]])
        out = {key: _read(path) for key, path in sorted(f.items())}
        out["checkpoint"] = _read(ctx["ckpt"], "rb")
        return out

    def verify(self, h, ctx, first, recorded):
        d, tau = ctx["data"], 1.0
        expected = ctx["expected"]
        labels = data_io.read_bank(os.path.join(d, "labels.fbnk"), unit_rows=True)
        h.check("data_io", np.array_equal(
            labels, expected.bank.rows().astype("<f4").astype(np.float64)),
            "synth labels.fbnk differs from the in-library dataset")
        n = expected.bank.n_pos
        bank = model.FeatureBank.from_rows(labels[:n], labels[n:])
        state = model.load_checkpoint(ctx["ckpt"]).model
        scores = {}
        for split in ("id", "ood"):
            images = data_io.read_bank(os.path.join(d, f"test_{split}.fbnk"), unit_rows=True)
            for method in ("krnft", "neglabel"):
                want = scoring.score_many(images, method, bank, state=state, tau_score=tau)
                got = _csv_scores(first[f"{split}_{method}.csv"])
                h.check("cli", np.array_equal(got, want),
                        f"score CSV {split}/{method} differs from score_many")
                scores[(split, method)] = want
        fprs = []
        for method in ("krnft", "neglabel"):
            rep = scoring.evaluate(scores[("id", method)], scores[("ood", method)])
            want = rep.to_dict()
            for key in ("auroc", "fpr95", "threshold"):
                want[key] = round(want[key], 4)
            h.check("cli", json.loads(first[f"eval_{method}.json"]) == want,
                    f"eval JSON for {method} differs from the rounded evaluate")
            fprs.append(want["fpr95"])
        h.check("cli", json.loads(first["hmean.json"]) ==
                {"hmean": round(scoring.hmean(*fprs), 4)},
                "eval --pair differs from the rounded hmean")
        _check_identity(h, expected.test_id[:8], expected.bank, expected.bank.dim, tau,
                        mode=self.mode)
        if recorded is not None:
            krnft = self._krnft_report(first)
            _check_recorded(h, recorded, krnft.auroc, krnft.fpr95)

    def same(self, out):
        return out

    def decompose(self, h, ctx, first):
        pass  # cli.main is the layer under test; its internals are not split

    @staticmethod
    def _krnft_report(first):
        return scoring.evaluate(_csv_scores(first["id_krnft.csv"]),
                                _csv_scores(first["ood_krnft.csv"]))

    def metrics(self, h, ctx, walls, first):
        named = _tail_metrics("pipeline", [1e3 * w for w in walls])
        krnft = self._krnft_report(first)
        named["krnft_auroc"] = _metric(krnft.auroc, "1", "higher")
        named["krnft_fpr95"] = _metric(krnft.fpr95, "1", "lower")
        return named, len(walls) / sum(walls)


# --------------------------------------------------------------------------- #


class Eval1M:
    """AUROC and FPR95 over 1M ID plus 1M OOD scores, distinct and massively tied."""

    name = "eval_1m"
    layer = "scoring"
    n = 1_000_000
    grid = 0.25  # tied scores are multiples of this, about 40 distinct values

    def sizes(self):
        return dict(id_scores=self.n, ood_scores=self.n, tie_grid=self.grid,
                    distributions="ID N(1,1), OOD N(0,1)")

    def setup(self, h, seed, workdir):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        unique = (rng.normal(1.0, 1.0, self.n), rng.normal(0.0, 1.0, self.n))
        tied = tuple(np.round(x / self.grid) * self.grid for x in unique)
        return {"unique": unique, "tied": tied}

    def iteration(self, h, ctx):
        reports = {}
        for kind in ("unique", "tied"):
            with h.op("scoring.evaluate", scores=2 * self.n):
                reports[kind] = scoring.evaluate(*ctx[kind]).to_dict()
        return reports

    def verify(self, h, ctx, first, recorded):
        for kind in ("unique", "tied"):
            id_s, ood_s = ctx[kind]
            rep = first[kind]
            want = reference.auroc(id_s, ood_s)
            h.check("scoring", rep["auroc"] == want,
                    f"{kind} auroc {rep['auroc']!r} != win+half-tie count {want!r}")
            fpr, thr = reference.fpr_at_tpr(id_s, ood_s)
            h.check("scoring", (rep["fpr95"], rep["threshold"]) == (fpr, thr),
                    f"{kind} fpr_at_tpr ({rep['fpr95']!r}, {rep['threshold']!r}) != "
                    f"sorted-index formula ({fpr!r}, {thr!r})")

    def same(self, out):
        return out

    def decompose(self, h, ctx, first):
        """evaluate split into auroc (distinct and tied) and fpr_at_tpr."""
        for kind in ("unique", "tied"):
            with h.op(f"scoring.auroc.{kind}", scores=2 * self.n):
                a = scoring.auroc(*ctx[kind])
            with h.op("scoring.fpr_at_tpr", scores=2 * self.n):
                fpr, thr = scoring.fpr_at_tpr(*ctx[kind])
            rep = first[kind]
            h.check("scoring", (a, fpr, thr) == (rep["auroc"], rep["fpr95"], rep["threshold"]),
                    f"{kind}: auroc/fpr_at_tpr differ from evaluate")

    def metrics(self, h, ctx, walls, first):
        named = {"eval_scores_per_s": _metric(2 * self.n / median(h.timings["scoring.evaluate"]),
                                              "1/s", "higher")}
        for kind in ("unique", "tied"):
            named[f"{kind}_auroc"] = _metric(first[kind]["auroc"], "1", "higher")
            named[f"{kind}_fpr95"] = _metric(first[kind]["fpr95"], "1", "lower")
        return named, named["eval_scores_per_s"]["value"]


WORKLOADS = {w.name: w for w in (TrainMid(), ScorePaper(), PipelineFixture(), Eval1M())}
