"""BENCHMARK.json, the result line, and the benchmark's refusal to run
outside a checkout."""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import schema
from conftest import BENCH, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert [w["name"] for w in doc["workloads"]] == list(schema.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == list(schema.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(schema.PER_LAYER)
    assert all(m["better"] in ("lower", "higher") for m in doc["per_layer"])
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"] + doc["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert ("setup_s", "s", "lower") in [(m["name"], m["unit"], m["better"])
                                         for m in doc["end_to_end"]]


def _child(units=(1.0, 1.2), ok=True, trace=False, speed=1.0):
    """A child's result document; `speed` 2 means it ran half as fast as
    the reference."""
    ref = schema.CALIBRATION_REF_S
    doc = {"setup_s": 2.0, "import_s": 1.0, "peak_rss_mb": 100.0, "unit_wall_s": list(units),
           "calibration_s": [ref * speed * 0.9, ref * speed, ref * speed * 1.5],
           "checks": [{"name": "x", "ok": True, "detail": ""},
                      {"name": "y", "ok": ok, "detail": "bad" if not ok else ""}],
           "metrics": {"op_ms": 1100.0, "extra_rate": 3.0}}
    if trace:
        doc["layers"] = {n: 0.5 for n, _ in schema.PER_LAYER
                         if n not in schema.RUN_LEVEL_LAYER_METRICS}
        doc["spans"] = 10
    return doc


@pytest.mark.parametrize("trace", [0, 1])
def test_summary_reports_every_metric_with_its_unit(trace):
    setups = [dict(_child(), setup_s=s) for s in (1.0, 3.0)]
    plain = _child(ok=False)
    traced = _child(trace=True, speed=2.0) if trace else None
    out = run.summarize(setups, plain, traced)
    want = [(n, u) for n, u, _b, _c in schema.END_TO_END] if not trace else \
        list(schema.PER_LAYER)
    assert [(n, m["unit"]) for n, m in out["metrics"].items()] == want
    assert out["attempted"] == 2 * (3 + trace) and out["failed"] == 1
    assert out["correct"] is False
    m = {n: v["value"] for n, v in out["metrics"].items()}
    if trace:
        # the traced child ran at half speed: its times are halved, counts kept
        assert m["trace.overhead_ratio"] == pytest.approx(0.5)
        assert m["audio.resample.busy_s"] == pytest.approx(0.25)
        assert m["audio.resample.calls"] == 0.5
        assert m["bench.failed_frac"] == pytest.approx(1 / 8)
    else:
        assert m["setup_s"] == 2.0
        assert m["op_ms"] == 1100.0
        assert out["raw"]["speed_factor"] == 1.0


def test_times_are_scaled_by_each_childs_calibration():
    setups = [_child(speed=2.0), _child(speed=0.5)]
    plain = _child(speed=4.0)
    m = {n: v["value"] for n, v in run.summarize(setups, plain, None)["metrics"].items()}
    assert m["setup_s"] == pytest.approx(1.0)  # median of 1.0, 4.0, 0.5
    assert m["op_ms"] == pytest.approx(1100.0 / 4)
    assert m["peak_rss_mb"] == 100.0


@pytest.mark.parametrize("trace", [0, 1])
def test_ddpm_run_prints_a_valid_result_line(trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ddpm",
                           "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    if trace:
        metrics = doc["metrics"]
        assert list(metrics) == [n for n, _ in schema.PER_LAYER]
        # per operation: 300 training and 1000 fine-tune steps, then two
        # guided reverse chains of 100 steps (two predictions per step)
        assert metrics["diffusion.l2_loss_and_grads.calls"]["value"] == 1300
        assert metrics["diffusion.reverse_step.calls"]["value"] == 200
        assert metrics["diffusion.predict_eps.calls"]["value"] == 400
        assert metrics["contrastive.contrastive_loss.calls"]["value"] == 300
        assert metrics["audio.resample.calls"]["value"] == 0
        assert metrics["trace.overhead_ratio"]["value"] > 0
    else:
        assert list(doc["metrics"]) == [n for n, *_ in schema.END_TO_END]
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ddpm",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
