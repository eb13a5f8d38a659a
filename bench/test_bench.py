"""Smoke tests of the benchmark harness at a tiny configuration.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402
from sgloc.model import ModelConfig, SketchLocalizer  # noqa: E402

TINY = W.Scale(
    n_train=4,
    n_val=3,
    sketches_per_class=2,
    val_sketches_per_class=1,
    setup_reps=2,
    min_passes=2,
    model=(("d", 16), ("heads", 2), ("stages", 2), ("dec_layers", 1), ("num_tokens", 8),
           ("d_hidden", 16), ("sketch_layers", 1)),
)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_names_what_the_harness_reports():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == W.END_TO_END
    want = W.per_layer_units(ModelConfig().stages)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == want


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_workload_runs_and_its_checks_pass(name, trace, tmp_path):
    run, tracer, values = W.run_workload(name, 3, 0.0, trace, str(tmp_path), TINY)
    res = json.loads(json.dumps(W.result_line(run, values)))
    assert res["correct"], run.problems
    assert res["attempted"] >= 1 and res["failed"] == 0
    want = W.per_layer_units(2) if trace else W.END_TO_END
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
        return
    assert (tracer is not None) and tracer.spans
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["model.forward.calls"] > 0 and m["data.generate_dataset.calls"] == 1
    if name == "eval-1q":
        assert m["metrics.detections_scored"] > 0
        assert m["tensor.backward.calls"] == 0 and m["matching.hungarian_assign.calls"] == 0
    else:
        assert m["tensor.tape_nodes"] > 0 and m["matching.gts_per_query"] >= 1
        assert m["metrics.average_precision.calls"] == 0
    five = name == "train-5q"
    assert m["encoder.encode_sketch.calls"] == (5 if five else 1) * m["model.forward.calls"]


def test_counts_repeat_exactly_for_a_seed(tmp_path):
    got = []
    for i in range(2):
        _, _, values = W.run_workload("train-5q", 5, 0.0, True, str(tmp_path / str(i)), TINY)
        got.append({k: v for k, (v, u) in values.items() if u == "count"})
    assert got[0] == got[1]


def test_malformed_detections_are_counted_as_failures(tmp_path, monkeypatch):
    original = SketchLocalizer.localize

    def drop_one(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        out.detections = out.detections[1:]
        return out

    monkeypatch.setattr(SketchLocalizer, "localize", drop_one)
    run, _, values = W.run_workload("eval-1q", 3, 0.0, False, str(tmp_path), TINY)
    res = W.result_line(run, values)
    assert not res["correct"] and res["failed"] == res["attempted"]


def test_self_time_excludes_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 6.0])
    tr = T.Tracer(clock=lambda: next(ticks))
    inner = tr._span_wrapper(lambda: None, "inner", None, None)
    outer = tr._span_wrapper(lambda: inner(), "outer", None, None)
    outer()
    assert tr.summary("setup") == {"outer": (4.0, 1), "inner": (2.0, 1)}
    assert tr.spans[1][T.PARENT] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-5q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
