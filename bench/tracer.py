"""Span tracing from outside the program, for the traced benchmark run.

`Tracer.installed()` replaces, while it is active, the name each caller
looks up for one layer (e.g. `sgloc.model.decode`, the global that
`SketchLocalizer.forward` calls) with a wrapper that records a span, and
puts every original back when it exits. Nothing under `src/` changes.

Spans are kept in memory as (name, start, end, parent, item, child time,
phase) and written out when the run ends. A span's self time is its
duration minus the time its direct child spans cover; spans nest properly
because the program is single-threaded. `item` is the scene id of the last
`Dataset.load_scene` call, so the spans of one training sample, or of one
scene's queries, share an identifier.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

from sgloc import data, encoder, matching, metrics, model, tensor, train

# Span records are lists indexed by these positions.
NAME, START, END, PARENT, ITEM, CHILD, PHASE = range(7)

# (owner, attribute, span name, stage, count hook or None). The owner is the
# namespace the caller resolves the name in. `stage` "from_input" names the
# span by the input stage index (`<name>.s<index>`) and remembers it;
# "last" reuses the index of the most recent image block, which is the stage
# an encoder fusion belongs to.
SPANS = [
    (model.SketchLocalizer, "forward", "model.forward", None, None),
    (model, "encode_sketch", "encoder.encode_sketch", None, None),
    (encoder, "image_block", "encoder.image_block", "from_input", None),
    (encoder, "encoder_fusion_multi", "multiquery.encoder_fusion_multi", "last", None),
    (model, "fuse_queries", "multiquery.fuse_queries", None, None),
    (model, "decode", "decoder.decode", None, None),
    (model, "refine_object_tokens", "decoder.refine_object_tokens", None, None),
    (model, "refine_query_tokens", "decoder.refine_query_tokens", None, None),
    (model, "score_tokens", "decoder.score_tokens", None, None),
    (model, "predict_boxes", "decoder.predict_boxes", None, None),
    (train, "backward", "tensor.backward", None, None),
    (train, "build_cost_matrix", "matching.build_cost_matrix", None, None),
    (train, "hungarian_assign", "matching.hungarian_assign", None,
     lambda args: ("matching.gts", args[0].shape[1])),
    (train, "total_loss", "matching.total_loss", None, None),
    (train, "adam_step", "train.adam_step", None, None),
    (train, "save_checkpoint", "train.save_checkpoint", None, None),
    (metrics, "average_precision", "metrics.average_precision", None,
     lambda args: ("metrics.detections_scored", len(args[0]))),
    (data, "generate_dataset", "data.generate_dataset", None, None),
    (data.Dataset, "load_scene", "data.Dataset.load_scene", None, None),
    (data.Dataset, "load_sketch", "data.Dataset.load_sketch", None, None),
]

# (owner, attribute, counter, amount(result)): counted where the work
# happens, not timed. `_topo` is the tape walk inside `backward`; the
# readers run only on a raster cache miss.
COUNTERS = [
    (tensor, "_topo", "tensor.tape_nodes", len),
    (matching, "_lexicographic_optimum", "matching.tie_fallbacks", lambda out: 1),
    (data, "read_ppm", "data.Dataset.load_scene.misses", lambda out: 1),
    (data, "read_pgm", "data.Dataset.load_sketch.misses", lambda out: 1),
]


def span_names(stages: int) -> list:
    """Every span name the tracer can record, for a model with `stages` stages."""
    out = []
    for _, _, name, stage, _ in SPANS:
        if stage is None:
            out.append(name)
        else:
            out.extend(f"{name}.s{n}" for n in range(stages))
    return out


@contextlib.contextmanager
def patched(owner, attr: str, make_wrapper):
    """Bind `owner.attr` to `make_wrapper(original)` until the block exits."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder plus counters, grouped by phase."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()  # (phase, counter) -> amount
        self.phase = "setup"
        self.item = None
        self.stage = 0
        self._open: list = []  # indices of the spans now running

    def _span_wrapper(self, original, name, stage, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if stage == "from_input":
                tracer.stage = args[0].index
            full = name if stage is None else f"{name}.s{tracer.stage}"
            if name == "data.Dataset.load_scene":
                tracer.item = args[1]
            if hook is not None:
                key, amount = hook(args)
                tracer.counts[tracer.phase, key] += amount
            rec = [full, 0.0, 0.0, tracer._open[-1] if tracer._open else -1,
                   tracer.item, 0.0, tracer.phase]
            idx = len(tracer.spans)
            tracer.spans.append(rec)
            tracer._open.append(idx)
            rec[START] = tracer.clock()
            try:
                return original(*args, **kwargs)
            finally:
                rec[END] = tracer.clock()
                tracer._open.pop()
                if rec[PARENT] >= 0:
                    tracer.spans[rec[PARENT]][CHILD] += rec[END] - rec[START]

        return wrapper

    def _count_wrapper(self, original, counter, amount):
        tracer = self

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            tracer.counts[tracer.phase, counter] += amount(out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Trace every layer in SPANS and COUNTERS inside the block."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name, stage, hook in SPANS:
                stack.enter_context(patched(
                    owner, attr,
                    lambda orig, n=name, s=stage, h=hook: self._span_wrapper(orig, n, s, h),
                ))
            for owner, attr, counter, amount in COUNTERS:
                stack.enter_context(patched(
                    owner, attr, lambda orig, c=counter, a=amount: self._count_wrapper(orig, c, a)
                ))
            yield self

    def summary(self, phase: str) -> dict:
        """{span name: (total self seconds, calls)} over one phase."""
        out: dict = {}
        for rec in self.spans:
            if rec[PHASE] != phase:
                continue
            self_s = rec[END] - rec[START] - rec[CHILD]
            tot, calls = out.get(rec[NAME], (0.0, 0))
            out[rec[NAME]] = (tot + self_s, calls + 1)
        return out

    def count(self, phase: str, counter: str) -> int:
        return self.counts[phase, counter]

    def write(self, path: str) -> None:
        """One JSON object per span, in start order, times relative to the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as f:
            for i, rec in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i,
                    "name": rec[NAME],
                    "start_s": rec[START] - t0,
                    "end_s": rec[END] - t0,
                    "self_s": rec[END] - rec[START] - rec[CHILD],
                    "parent": rec[PARENT],
                    "item": rec[ITEM],
                    "phase": rec[PHASE],
                }) + "\n")
