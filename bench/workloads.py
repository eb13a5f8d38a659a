"""The sgloc benchmark workloads: set-up, measured passes, output checks.

Both workloads share one seeded corpus and the default `ModelConfig`
(d=64, 4 heads, 3 stages, 100 DET tokens). Each is a closed loop driven by
a single caller: the next pass starts when the previous one has returned.
A pass is one call of the public API, repeated until the run's time is
spent, and every pass of a run does identical work, so their outputs must
agree bit for bit.

train-5q
    `train.train` with `protocol_mix = 1`, batch 8, one epoch over the
    training scenes. Five sketches per query, so `encode_sketch` runs five
    times per sample and `encoder_fusion_multi` and `fuse_queries` take
    their multi-sketch paths; the tape is about twice as long as at one
    sketch. Stresses backward (the largest share), the sketch and image
    encoders, fusion, the decoder, Hungarian matching and Adam.
eval-1q
    `metrics.evaluate_queries(protocol="1Q", subset="val")` on a seeded,
    untrained `SketchLocalizer`: one query at a time through
    `SketchLocalizer.localize` with threshold 0, so all tokens are scored
    and `metrics.average_precision` takes most of the wall time. One sketch
    per query (the L=1 paths), no backward, matching or Adam.
The pair separates kinds of gain: bundle batching moves train-5q and not
eval-1q's latency; per-op attention or tape work moves both; AP and box
geometry work moves only eval-1q's throughput.

Left out for now:
    train-1q (training at one sketch per query). Its layers all run in the
    two workloads above, and on the shared 2-core machine this was sized on
    a third workload left too little time per run for steady figures.
    val mAP. At any run length this benchmark can afford, mAP is ~1e-5 to
    1e-2 (0 for the untrained eval model), so a change in floating-point
    rounding flips it by more than any bound. The loss metric is the
    quality guard instead.
    eval-5q. train-5q already covers the 5Q forward pass.
    Ablations (`encoder_fusion` or `refinement` off). They change the
    model, not the cost of the code paths later work will optimise.

End-to-end metrics (every workload reports every one):
    setup_s           median of the run's 9 set-ups (corpus generation, which
                      loads the `Dataset`, plus model construction): one
                      before the first pass, the rest spread over the run.
    throughput_per_s  lower quartile of the run's per-pass throughput.
                      train: scenes trained per second of training-loop
                      time (end of `train`'s prologue to the last Adam
                      step); eval: queries answered and AP-scored per second.
    latency_ms_p75/90 train: one optimizer step (8 scenes forward, match,
                      loss, backward, Adam); eval: one `localize` call.
    loss              train: mean total loss over the last epoch, as
                      `train` logs it; eval: mean total matching loss of
                      the untrained model's detections on the val queries.
                      Both are exact for a seed; they guard the numerics.
    peak_rss_mb       peak resident set size of the process.

Why the lower quartile of pass throughput and p75/p90 of op latency rather
than medians: on the shared 2-core machine these figures were sized on, the
CPU runs mostly in one state and, for seconds to minutes at a time, up to
~1.5x faster (Python loops and BLAS alike, wall and CPU time alike). A
median moves with the share of fast time in a run; over ten runs its
quartiles lay 12-30% apart. The statistics used here sit in the common,
slower state. A quartile, unlike a minimum, does not drift lower as faster
code fits more passes into a run. A probe loop run beside the passes to
rescale them did not track the program's speed, so none is used.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field

import numpy as np

from sgloc import data, matching, metrics, train
from sgloc.model import ModelConfig, SketchLocalizer
from sgloc.tensor import Tensor

from tracer import Tracer, patched, span_names

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p75": "ms",
    "latency_ms_p90": "ms",
    "loss": "1",
    "peak_rss_mb": "MB",
}

# Counters reported per call of the layer they describe, not per pass.
PER_CALL_COUNTS = {
    "tensor.tape_nodes": ("tensor.tape_nodes", "tensor.backward"),
    "matching.gts_per_query": ("matching.gts", "matching.hungarian_assign"),
    "matching.tie_fallbacks": ("matching.tie_fallbacks", "matching.hungarian_assign"),
}
PER_PASS_COUNTS = [
    "data.Dataset.load_scene.misses",
    "data.Dataset.load_sketch.misses",
    "metrics.detections_scored",
]
TRACE_METRICS = {"trace.overhead_pct": "%", "trace.coverage_pct": "%"}

EPOCHS = 1
BATCH_SIZE = 8


@dataclass(frozen=True)
class Scale:
    """Input sizes. `model` holds `ModelConfig` overrides as (name, value)."""

    n_train: int = 128
    n_val: int = 48
    sketches_per_class: int = 8
    val_sketches_per_class: int = 3
    setup_reps: int = 9
    min_passes: int = 3
    model: tuple = ()

    def model_config(self) -> ModelConfig:
        return ModelConfig(**dict(self.model))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "eval"
    protocol_mix: float = 0.0


WORKLOADS = {
    w.name: w
    for w in [
        Workload("train-5q", "train", protocol_mix=1.0),
        Workload("eval-1q", "eval"),
    ]
}


def per_layer_units(stages: int) -> dict:
    """Every per-layer metric name with its unit."""
    out = {}
    for name in span_names(stages):
        out[f"{name}.ms"] = "ms"
        out[f"{name}.calls"] = "count"
    for name in list(PER_CALL_COUNTS) + PER_PASS_COUNTS:
        out[name] = "count"
    out.update(TRACE_METRICS)
    return out


class BenchError(RuntimeError):
    """No pass completed, so there is nothing to report."""


@dataclass
class Run:
    """What one benchmark run measured and checked."""

    workload: str
    seed: int
    trace: bool
    setup_s: list = field(default_factory=list)
    passes: list = field(default_factory=list)  # dicts, one per completed pass
    op_ms: list = field(default_factory=list)  # untraced op latencies
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    loss: float | None = None

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.problems.append(why)


# ---------------------------------------------------------------------------
# environment


def _git_commit(root: str) -> str:
    # git would look for a repository above `root` too; only `root` counts
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------------
# set-up


def data_config(scale: Scale, seed: int) -> data.DataConfig:
    return data.DataConfig(
        n_train=scale.n_train,
        n_val=scale.n_val,
        sketches_per_class=scale.sketches_per_class,
        val_sketches_per_class=scale.val_sketches_per_class,
        seed=seed,
    )


# The eval model's weights are part of the program under test, not an input:
# they stay fixed so that only the seeded corpus varies between runs.
EVAL_MODEL_SEED = 0


def setup(scale: Scale, seed: int, work_dir: str, run: Run, tracer=None):
    """Generate the corpus into a fresh directory and build the model, timed.

    Returns (corpus directory, Dataset, model). A tracer records the spans
    in its "setup" phase and is left in its "measure" phase.
    """
    root = os.path.join(work_dir, f"corpus{len(run.setup_s)}")
    if tracer is not None:
        tracer.phase = "setup"
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        dataset = data.generate_dataset(data_config(scale, seed), root)
        model = SketchLocalizer(scale.model_config(), seed=EVAL_MODEL_SEED)
        run.setup_s.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.phase = "measure"
    return root, dataset, model


# ---------------------------------------------------------------------------
# train passes


def train_config(scale: Scale, workload: Workload, seed: int, root: str) -> train.TrainConfig:
    return train.TrainConfig(
        dataset=root,
        epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        protocol_mix=workload.protocol_mix,
        seed=seed,
        **dict(scale.model),
    )


def _first_val_query(dataset):
    sid = dataset.scene_ids("val")[0]
    cls = sorted(set(dataset.annotation(sid).classes))[0]
    sketch = dataset.load_sketch(dataset.sketch_pool(cls, "val")[0])
    return dataset.load_scene(sid), [sketch]


def train_pass(cfg, out_dir: str) -> dict:
    """One `train.train` call. Times every optimizer step from outside and
    keeps the model `train` builds, so the checkpoint can be checked against
    it. No hook runs inside a step. The loop starts when `train` has built
    its optimizer state, the last step of its prologue (loading the
    `Dataset`, building the model), so no step includes that prologue."""
    loop_start: list = []
    step_ends: list = []
    models: list = []

    def start_clock(original):
        def optim_state(*args, **kwargs):
            out = original(*args, **kwargs)
            loop_start.append(time.perf_counter())
            return out

        return optim_state

    def step_clock(original):
        def adam_step(*args, **kwargs):
            out = original(*args, **kwargs)
            step_ends.append(time.perf_counter())
            return out

        return adam_step

    def keep_model(original):
        def build(*args, **kwargs):
            models.append(original(*args, **kwargs))
            return models[-1]

        return build

    with (
        patched(train, "OptimState", start_clock),
        patched(train, "adam_step", step_clock),
        patched(train, "SketchLocalizer", keep_model),
    ):
        t0 = time.perf_counter()
        ckpt = train.train(cfg, out_dir, log=lambda msg: None)
        wall = time.perf_counter() - t0
    with open(os.path.join(out_dir, "history.json")) as f:
        history = json.load(f)
    with open(ckpt, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    return {
        "wall_s": wall,
        "loop_s": step_ends[-1] - loop_start[0],
        "op_ms": list(1e3 * np.diff(loop_start + step_ends)),  # one per optimizer step
        "history": history,
        "checkpoint": ckpt,
        "sha256": digest,
        "model": models[0],
    }


def check_train_pass(p: dict, cfg, dataset, first: dict | None) -> list:
    """Problems with one train pass's outputs; empty when all checks pass."""
    problems = []
    steps = math.ceil(len(dataset.scene_ids("train")) / cfg.batch_size) * cfg.epochs
    if len(p["op_ms"]) != steps:
        problems.append(f"{len(p['op_ms'])} optimizer steps, expected {steps}")
    totals = [h["total"] for h in p["history"]]
    if len(totals) != cfg.epochs or not all(math.isfinite(t) for t in totals):
        # an epoch mean is finite only if every batch loss in it is
        problems.append(f"epoch losses not finite or missing: {totals}")
    image, sketches = _first_val_query(dataset)
    reloaded, _ = train.load_model(p["checkpoint"])
    want = p["model"].forward(image, sketches)[0].data
    got = reloaded.forward(image, sketches)[0].data
    if want.dtype != got.dtype or not np.array_equal(want, got):
        problems.append("reloaded checkpoint scores differ from the trained model's")
    if first is not None:
        if p["sha256"] != first["sha256"]:
            problems.append("checkpoint bytes differ from the first pass's")
        if totals != [h["total"] for h in first["history"]]:
            problems.append("epoch losses differ from the first pass's")
    return problems


# ---------------------------------------------------------------------------
# eval passes


def eval_pass(model, root: str, seed: int) -> dict:
    """One `evaluate_queries` call on a freshly loaded Dataset. Each
    `localize` call is timed from outside and its result kept for checking."""
    dataset = data.Dataset(root)
    lat_ms: list = []
    results: list = []
    original = model.localize

    def localize(*args, **kwargs):
        t0 = time.perf_counter()
        out = original(*args, **kwargs)
        lat_ms.append(1e3 * (time.perf_counter() - t0))
        results.append(out)
        return out

    model.localize = localize
    try:
        t0 = time.perf_counter()
        report = metrics.evaluate_queries(model, dataset, protocol="1Q", subset="val", seed=seed)
        wall = time.perf_counter() - t0
    finally:
        del model.localize
    return {"wall_s": wall, "op_ms": lat_ms, "results": results, "report": report,
            "dataset": dataset}


def check_eval_pass(p: dict, num_tokens: int, first: dict | None) -> tuple:
    """(number of failed queries, problems) for one eval pass."""
    bad = 0
    for res in p["results"]:
        dets = res.detections
        boxes = np.array([b for b, _ in dets]).reshape(-1, 4)
        scores = np.array([s for _, s in dets])
        ok = (
            len(dets) == num_tokens
            and np.isfinite(boxes).all()
            and ((boxes >= 0.0) & (boxes <= 1.0)).all()
            and np.isfinite(scores).all()
            and ((scores >= 0.0) & (scores <= 1.0)).all()
        )
        bad += not ok
    problems = []
    if bad:
        problems.append(f"{bad} queries returned malformed detections")
    report = p["report"]
    if report.counts.get("queries") != len(p["results"]):
        problems.append(
            f"report counts {report.counts.get('queries')} queries, {len(p['results'])} were asked"
        )
        bad = len(p["results"])
    if first is not None and report.to_json() != first["report"].to_json():
        problems.append("evaluation report differs from the first pass's")
        bad = len(p["results"])
    return bad, problems


def val_loss(p: dict) -> float:
    """Mean total matching loss of the evaluated queries, scored with the
    training loss against the queried class's ground truths."""
    dataset = p["dataset"]
    size = float(dataset.image_size)
    queries = [
        (sid, cls)
        for sid in dataset.scene_ids("val")
        for cls in sorted(set(dataset.annotation(sid).classes))
    ]
    if len(queries) != len(p["results"]):
        raise BenchError("query order does not match evaluate_queries")
    losses = []
    for (sid, cls), res in zip(queries, p["results"]):
        ann = dataset.annotation(sid)
        gt = ann.boxes[[c == cls for c in ann.classes]] / size
        scores = np.array([s for _, s in res.detections])
        boxes = np.array([b for b, _ in res.detections])
        cost = matching.build_cost_matrix(scores, boxes, gt)
        assign = matching.hungarian_assign(cost)
        losses.append(matching.total_loss(Tensor(scores), Tensor(boxes), gt, assign).total)
    return float(np.mean(losses))


# ---------------------------------------------------------------------------
# the measured loop


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: str,
    scale: Scale = Scale(),
):
    """Set up, run passes for `seconds`, check every output.

    Returns (Run, Tracer or None, {metric: (value, unit)}). With `trace`,
    passes alternate untraced and traced, starting untraced, and the metrics
    are the per-layer ones; otherwise they are the end-to-end ones.
    """
    workload = WORKLOADS[name]
    run = Run(name, seed, trace)
    tracer = Tracer() if trace else None
    os.makedirs(work_dir, exist_ok=True)

    root, dataset, model = setup(scale, seed, work_dir, run, tracer)

    def repeat_setup():
        extra, _, _ = setup(scale, seed, work_dir, run, tracer)
        shutil.rmtree(extra)

    cfg = train_config(scale, workload, seed, root)
    min_passes = max(scale.min_passes, 2 if trace else 1)
    first = None
    start = time.perf_counter()
    while True:
        k = len(run.passes)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in run.passes) if run.passes else 0.0
        if k >= min_passes and elapsed + typical > seconds:
            break
        traced = tracer is not None and k % 2 == 1
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                if workload.kind == "train":
                    out_dir = os.path.join(work_dir, f"pass{k}")
                    p = train_pass(cfg, out_dir)
                else:
                    p = eval_pass(model, root, seed)
        except Exception:
            # the same inputs would raise again: count the pass as one failed op
            traceback.print_exc(file=sys.stderr)
            run.attempted += 1
            run.fail(1, f"pass {k} raised")
            break
        p["traced"] = traced
        ops = len(p["op_ms"])
        run.attempted += ops
        if workload.kind == "train":
            problems = check_train_pass(p, cfg, dataset, first)
            if problems:
                run.fail(ops, "; ".join(problems))
            shutil.rmtree(out_dir)
            p["throughput"] = scale.n_train * EPOCHS / p["loop_s"]
            p["loss"] = p["history"][-1]["total"]
            del p["model"], p["checkpoint"]
        else:
            bad, problems = check_eval_pass(p, scale.model_config().num_tokens, first)
            if problems:
                run.fail(bad, "; ".join(problems))
            if first is None:
                p["loss"] = val_loss(p)
            p["throughput"] = len(p["results"]) / p["wall_s"]
            del p["results"], p["dataset"]
        if first is None:
            first = p
            run.loss = p["loss"]
        if not traced:
            run.op_ms.extend(p["op_ms"])
        run.passes.append(p)
        # The other set-ups are spread over the run, so that they meet the
        # machine in the same states as the passes do (see the module notes).
        while len(run.setup_s) < scale.setup_reps and (
            time.perf_counter() - start >= len(run.setup_s) * seconds / scale.setup_reps
        ):
            repeat_setup()

    if not run.passes:
        raise BenchError(f"{name}: no pass completed")
    # every run times the same number of set-ups, however fast its passes
    while len(run.setup_s) < scale.setup_reps:
        repeat_setup()
    if trace:
        values = per_layer_metrics(run, tracer, scale)
    else:
        values = end_to_end_metrics(run)
    return run, tracer, values


def lower_quartile(values: list) -> float:
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def end_to_end_metrics(run: Run) -> dict:
    p75, p90 = np.percentile(run.op_ms, [75, 90])
    return {
        "setup_s": (statistics.median(run.setup_s), END_TO_END["setup_s"]),
        "throughput_per_s": (
            lower_quartile([p["throughput"] for p in run.passes]),
            END_TO_END["throughput_per_s"],
        ),
        "latency_ms_p75": (float(p75), "ms"),
        "latency_ms_p90": (float(p90), "ms"),
        "loss": (run.loss, END_TO_END["loss"]),
        "peak_rss_mb": (peak_rss_mb(), END_TO_END["peak_rss_mb"]),
    }


def per_layer_metrics(run: Run, tracer: Tracer, scale: Scale) -> dict:
    """Self time and calls per pass for every span (per set-up for set-up
    spans), the counters, the tracing overhead (median traced against
    median untraced pass time) and coverage (share of traced pass time
    inside some span)."""
    traced = [p for p in run.passes if p["traced"]]
    plain = [p for p in run.passes if not p["traced"]]
    reps = {"setup": len(run.setup_s), "measure": len(traced)}
    stages = scale.model_config().stages
    units = per_layer_units(stages)
    out = {name: (0.0, unit) for name, unit in units.items()}
    calls_of: dict = {}
    for phase, n in reps.items():
        for name, (self_s, calls) in tracer.summary(phase).items():
            out[f"{name}.ms"] = (out[f"{name}.ms"][0] + 1e3 * self_s / n, "ms")
            out[f"{name}.calls"] = (out[f"{name}.calls"][0] + calls / n, "count")
            calls_of[name] = calls_of.get(name, 0) + calls
    for metric, (counter, per) in PER_CALL_COUNTS.items():
        total = sum(tracer.count(ph, counter) for ph in reps)
        out[metric] = (total / calls_of[per] if calls_of.get(per) else 0.0, "count")
    for metric in PER_PASS_COUNTS:
        out[metric] = (tracer.count("measure", metric) / len(traced), "count")
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    covered = sum(s for s, _ in tracer.summary("measure").values())
    out["trace.overhead_pct"] = (100.0 * (traced_wall / untraced_wall - 1.0), "%")
    # against the traced passes themselves, which machine-speed drift
    # between passes cannot skew
    out["trace.coverage_pct"] = (100.0 * covered / sum(p["wall_s"] for p in traced), "%")
    return out


def result_line(run: Run, values: dict) -> dict:
    return {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def run_record(run: Run, env: dict, scale: Scale, values: dict) -> dict:
    """Everything a run measured, for the results file."""
    passes = [
        {k: v for k, v in p.items() if k not in ("report", "history")} for p in run.passes
    ]
    return {
        "workload": run.workload,
        "seed": run.seed,
        "trace": run.trace,
        "environment": env,
        "scale": asdict(scale),
        "setup_s": run.setup_s,
        "passes": passes,
        "problems": run.problems,
        "result": result_line(run, values),
    }
