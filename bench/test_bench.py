"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the repository root with

    PYTHONPATH=src python3 -m pytest -q bench
"""

import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import gate
import run
import workloads
from memsc import crossbar

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "cnn_binomial": dict(batch=8, steps=2, test_images=16, tail_pct=50.0),
    "cnn_float_eval": dict(batch=8, steps=2, test_images=16, tail_pct=50.0),
    "bitexact_momentum": dict(batch=8, steps=2, test_images=8, n_bit=2048, tail_pct=50.0),
    "array_gen": dict(grid=(0.1, 0.5, 0.9), n_bit=1024, tail_pct=50.0),
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def test_catalog_matches_benchmark_json():
    for key, catalog in (("end_to_end", workloads.END_TO_END),
                         ("per_layer", workloads.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[key]]
        assert declared == list(catalog)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_reports_every_metric(name, trace):
    report, line = run.run_workload(tiny(name), seed=3, seconds=0.05, trace=trace)
    assert line["correct"], report["checks"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    expected = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    assert list(line["metrics"]) == expected
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    throughput = "stream_bits_per_s" if name == "array_gen" else "train_images_per_s"
    assert {throughput, "failed_frac"} <= set(report["metrics"])
    assert report["metrics"]["failed_frac"]["value"] == 0.0
    assert report["environment"]["src_loc"] > 0


def test_quality_repeats_for_a_seed():
    def quality():
        report, _ = run.run_workload(tiny("bitexact_momentum"), seed=5, seconds=0.05, trace=0)
        return [report["metrics"][q]["value"]
                for q in ("final_train_loss", "test_accuracy", "sc_update_rmse")]

    assert quality() == quality()


def test_biased_stream_generator_trips_the_gate(monkeypatch):
    honest = crossbar.generate_stream

    def biased(target_p, *args, **kwargs):
        return honest(0.8 * target_p, *args, **kwargs)

    monkeypatch.setattr(crossbar, "generate_stream", biased)
    report, line = run.run_workload(tiny("array_gen"), seed=3, seconds=0.05, trace=0)
    assert not line["correct"] and line["failed"] >= 1
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "ideal_on_fraction_within_binomial" in failed


def test_broken_stream_update_trips_the_gate(monkeypatch):
    honest = workloads.update_tensor

    def off_by_a_step(params, grads, cfg, rng, velocity=None):
        new, v, e = honest(params, grads, cfg, rng, velocity=velocity)
        return (new - 0.5 if cfg.exec_mode == "bitexact" else new), v, e

    monkeypatch.setattr(workloads, "update_tensor", off_by_a_step)
    report, line = run.run_workload(tiny("bitexact_momentum"), seed=3, seconds=0.05, trace=0)
    assert not line["correct"]
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == {"sc_update_rmse_within_law"}


def test_failing_step_counts_as_failed(monkeypatch):
    state = workloads.setup(tiny("cnn_binomial"), seed=3)
    nn_train = importlib.import_module("memsc.nn.train")
    honest = nn_train.update_tensor

    def overshoot(params, *args, **kwargs):
        new, v, e = honest(params, *args, **kwargs)
        return 3.0 * new, v, e  # leaves [-1, 1]; the next SC update raises

    monkeypatch.setattr(nn_train, "update_tensor", overshoot)
    result = workloads.measure(state, seconds=0.05, trace=False)
    assert result.failed >= 1 and result.details["failures"]
    assert "step_ms_p50" not in result.e2e


def test_checks_reject_broken_values():
    assert not gate.finite_losses([0.5, float("nan")]).passed
    assert not gate.params_in_unit_range({"w": [0.2, -1.5]}).passed
    assert not gate.episodes_repeat([(1.0,), (1.0,), (1.5,)]).passed
    assert not gate.update_rmse_within_law(0.5, 0.1).passed
    assert not gate.on_fraction_within_binomial([600], 1000, [0.5]).passed
    doubled = SimpleNamespace(**{k: 2 * v for k, v in gate.PUBLISHED_READ_POWER_W.items()})
    assert not gate.power_at_calibration(doubled).passed


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "array_gen", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
