"""Smoke test: the offline benchmark runs and its checks pass."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _smoke(workload, *extra):
    # pyproject.toml's warning filters do not reach a subprocess: a stray numpy
    # RuntimeWarning or library UserWarning fails the run here too
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning,error::UserWarning"),
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_benchmark_pipeline_fixture_smoke():
    _smoke("pipeline_fixture")


def test_benchmark_pipeline_fixture_traced_smoke():
    # the traced run adds the per-layer spans and re-checks every output
    _smoke("pipeline_fixture", "--trace", "1")


def test_benchmark_train_mid_smoke():
    # on the default seed the run checks krnft's AUROC/FPR95 against their
    # recorded values, which hold only if synth's mid-shape bytes do
    _smoke("train_mid")


def test_benchmark_train_mid_traced_smoke():
    # the traced run replays train's loop through backward and adamw_step, which
    # must reproduce its trace digest and parameters
    _smoke("train_mid", "--trace", "1")


def test_benchmark_score_paper_smoke():
    # the one workload the other smokes leave out: paper-shaped krnft and
    # neglabel scoring, checked against their per-image references
    _smoke("score_paper")


def test_benchmark_score_paper_traced_smoke():
    # the traced run's decompose checks transform_bank + score_neglabel against
    # score_many's krnft bit for bit at paper shape: both tune through one kernel
    _smoke("score_paper", "--trace", "1")


def test_benchmark_eval_1m_smoke():
    # evaluate on 1M+1M scores, checked for exact equality with the
    # benchmark's independent AUROC and FPR95 references
    _smoke("eval_1m")


def test_benchmark_eval_1m_traced_smoke():
    # the traced run's decompose checks that auroc (distinct and tied) and
    # fpr_at_tpr each equal evaluate's report
    _smoke("eval_1m", "--trace", "1")
