"""Smoke test of the benchmark itself, at tiny sizes: every metric is
printed with its unit, every output check passes on correct outputs, and a
perturbed score trips the float64 check.

    PYTHONPATH=src python -m pytest -q bench/test_bench_smoke.py
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
import run  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "train_ft": dataclasses.replace(harness.WORKLOADS["train_ft"], n_tracks=4, batch_size=4),
    "train_vivit": dataclasses.replace(
        harness.WORKLOADS["train_vivit"], n_tracks=4, batch_size=4, epochs=1
    ),
    "score_clips": dataclasses.replace(harness.WORKLOADS["score_clips"], n_tracks=8, min_requests=5),
}

# Per-layer figures that must be measured (non-zero) on the given workloads;
# they are 0 where the workload does not reach the layer.
REACHED = {
    "tensor.checkpoint.load_ms": {"score_clips"},
    "data.preprocess.crop_ms_per_frame": {"train_vivit", "score_clips"},
    "data.preprocess.crop_calls": {"train_vivit", "score_clips"},
    "model.embeddings.tubelet_ms": {"train_vivit", "score_clips"},
    "model.embeddings.tokenize_ms": {"train_ft"},
    "model.encoder.encode_ms.local_context.spatial": {"train_vivit"},
    "model.encoder.encode_ms.fusion.enc": {"train_vivit"},
    "model.encoder.encode_ms.local_surround.temporal": {"score_clips"},
    "model.vivit.forward_ms.local_context": {"train_vivit"},
    "model.vivit.forward_ms.global_context": {"train_vivit", "score_clips"},
    "tensor.core.backward_ms": {"train_ft", "train_vivit"},
    "training.step_p50_ms": {"train_ft", "train_vivit"},
    "training.adam_ms": {"train_ft", "train_vivit"},
    "training.snapshot_ms": {"train_ft", "train_vivit"},
    "metrics.evaluate_ms": {"score_clips"},
}


def _run(capsys, tmp_path, workload, trace):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv, workloads=TINY, work_root=tmp_path / "work") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert not (tmp_path / "work").exists()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_printed_with_its_unit(capsys, tmp_path, workload, trace):
    report, result = _run(capsys, tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, report["problems"]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert math.isfinite(printed["value"])
        if m["name"] != "trace.overhead_frac":
            assert printed["value"] > 0, m["name"]
    assert report["machine"]["nproc"] >= 1 and report["machine"]["numpy"]
    if not trace:
        values = report["all_metrics"]
        assert values["pace"] > 0 and values["setup_s_raw"] > 0 and values["windows_per_s_raw"] > 0
    if workload == "score_clips":
        assert report["requests"] >= TINY[workload].min_requests and report["predict_p99_ms"] > 0
    if trace:
        values = report["all_metrics"]
        assert not report["untraced_functions"]
        for name, workloads in REACHED.items():
            assert (values[name] > 0) == (workload in workloads), name
        crops = {"train_ft": 0, "train_vivit": 48, "score_clips": 32}
        assert values["data.preprocess.crop_calls"] == crops[workload]


def test_perturbed_score_trips_the_float64_check(tmp_path):
    checks, _, _ = harness.run(TINY["score_clips"], 1, 0.01, False, tmp_path, perturb=1e-3)
    assert checks.failed >= 1
    assert any("float64" in p for p in checks.problems), checks.problems


def test_no_result_without_the_program_source(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "train_ft", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
