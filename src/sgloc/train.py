"""Training loop, Adam optimizer, configuration, and checkpoint serialization.

Checkpoint format, version 2 (all little-endian):
    magic "SGL1" | u32 version | u32 config length | config utf-8 |
    u32 param count | per param: u16 name length, utf-8 name, u8 rank,
    u32 extents..., float32 values.

Version 2 stores each attention projection packed, as one d x d matrix
`*.attn.q`, `*.attn.k`, `*.attn.v` whose column blocks are the heads.
Version 1 stored one d x (d/heads) matrix per head (`*.attn.q0` ...) and is
rejected. A file that ends inside a field, goes on after the last one, or
names a parameter twice raises ValueError naming the path and the offset.
`load_model` is the one loader: it rebuilds the model from the echoed config
and requires exactly its parameter names and shapes.

The config echoed into a checkpoint is flat `key = value` text, one
`TrainConfig` field per line. Key order is not significant: a file written
before the model fields came first still parses to the same config. Keys of
deleted fields (`RETIRED_KEYS`) are skipped, so older checkpoints and config
files parse: `mode` whatever its value; Adam's `beta1`, `beta2` and `eps`,
and the loss weights `lam_cls`, `lam_l1` and `lam_giou`, only at the value
now fixed. Any other value of these raises ValueError.

Training is fully deterministic given the config seed: data order, query
sampling, and parameter init all derive from it. Identical configs therefore
produce byte-identical checkpoints, whatever the number of CPUs. The echoed
config includes `dataset`, the corpus path, so two runs on copies of one
corpus at different paths give the same parameters but different bytes.

A step holds one sample's tape at a time. The parent draws the batch's
queries first, in batch order: each is a class and the paths of its
sketches. Each sample then runs forward, matching, loss and a backward sweep
of `loss / n` before the next sample's forward, and yields one (score, l1,
giou, total) record of floats. An epoch logs the plain mean of its records.

A step's gradient is the sum of two half-batch totals. The first ceil(n/2)
samples sweep into gradient slab A and the rest into slab B, each slab zeroed
before its half; then B is added onto A elementwise, and Adam reads A. A slab
is a shared anonymous mapping laid out like the parameters (`_slab`). When
BLAS is pinned to one thread and two CPUs are usable (`_forks_worker`), a
worker forked at the start of each epoch runs the second half while the
parent runs the first; otherwise the parent runs both, in batch order. The
float additions are the same either way, so logged losses, `history.json`
and every checkpoint byte do not depend on whether the worker runs. Only
ints, strings and floats cross the pipe: a job names its samples' scenes,
classes and sketch paths, and a reply holds their records or is None.

The parameters live in a slab too, so the worker reads the parent's in-place
Adam updates with nothing sent per step. The worker inherits the process's
state as it is at the start of the epoch, and it is terminated and joined
before the epoch's checkpoint is written. Forking per step would cost far
more in copy-on-write faults.

The worker only ever makes a run faster. When a sample raises in it, or it
dies, the parent runs that half itself, and every later half of the epoch,
and logs one line saying so; the next epoch forks a fresh worker. Every half
is deterministic, so a failure that the parent meets too is raised by the
parent, with its own traceback, and one that it does not meet (the worker is
killed, or runs out of memory alone) changes no byte of the checkpoint or
`history.json`. A non-finite forward output or loss thus raises
NonFiniteError naming the epoch, the scene and the class of the first such
sample in batch order, with or without the worker: the parent runs its half
first. Every exception is raised before the step's Adam update, so no
parameter changes, and the worker is terminated and joined before it
propagates, also while it still runs its half: no worker outlives `train`.
If the parent itself is killed, the worker exits when its pipe closes.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import multiprocessing
import numbers
import os
import signal
import struct
import sys
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, derive_seed
from .matching import LOSS_WEIGHTS, build_cost_matrix, hungarian_assign, total_loss
from .model import ModelConfig, SketchLocalizer
from .tensor import NonFiniteError, backward, scale

CHECKPOINT_MAGIC = b"SGL1"
CHECKPOINT_VERSION = 2

# Adam's constants: the defaults its authors recommend (Kingma & Ba, 2014)
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8

# keys of deleted config fields, each with the one value it may hold; None: any
RETIRED_KEYS = {"mode": None, "beta1": ADAM_BETAS[0], "beta2": ADAM_BETAS[1], "eps": ADAM_EPS,
                "lam_cls": LOSS_WEIGHTS[0], "lam_l1": LOSS_WEIGHTS[1], "lam_giou": LOSS_WEIGHTS[2]}


@dataclass
class TrainConfig(ModelConfig):
    """The model's fields (see `ModelConfig`) plus those of the run."""

    lr: float = 1e-3
    batch_size: int = 8
    epochs: int = 40
    seed: int = 0
    dataset: str = ""
    protocol_mix: float = 0.5  # probability that a batch uses 5 query sketches

    def validate(self) -> None:
        super().validate()
        self._require(("batch_size", "epochs", "seed"), (int, np.integer), "an integer")
        self._require(("lr", "protocol_mix"), (numbers.Real,), "a number")
        self._require(("dataset",), (str,), "a string")
        # `from_text` splits lines, cuts them at '#' and strips them: the path must survive that
        ds = self.dataset
        if "#" in ds or ds != ds.strip() or len(ds.splitlines()) > 1:
            raise ValueError(f"config field dataset must hold no '#', no line break and no leading or "
                             f"trailing whitespace, got {ds!r}")
        # written as `not ...` so that a NaN fails each test too
        for name in ("lr", "batch_size", "epochs"):
            if not getattr(self, name) > 0:
                raise ValueError(f"config field {name} must be positive")
        if not math.isfinite(self.lr):
            raise ValueError(f"config field lr must be finite, got {self.lr}")
        if not 0.0 <= self.protocol_mix <= 1.0:
            raise ValueError("protocol_mix must lie in [0, 1]")

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TrainConfig":
        known = {f.name: f.type for f in fields(cls)}
        kwargs, first_line = {}, {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in RETIRED_KEYS:
                fixed = RETIRED_KEYS[key]
                try:
                    kept = fixed is None or float(val) == fixed
                except ValueError:
                    kept = False
                if not kept:
                    raise ValueError(f"config line {lineno}: {key} is fixed at {fixed}, got {val!r}")
                continue
            if key not in known:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            if key in first_line:
                raise ValueError(
                    f"config line {lineno}: key {key!r} repeated (first on line {first_line[key]})"
                )
            first_line[key] = lineno
            try:
                kwargs[key] = parse_value(val, known[key])
            except ValueError as e:
                raise ValueError(f"config line {lineno}: bad value for {key}: {e}") from None
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "TrainConfig":
        """`from_text` of a UTF-8 file; every error names `path`."""
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from None
        try:
            return cls.from_text(text)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


def parse_value(val: str, typ):
    """The value of a config field of type `typ` from its text: config files
    and `sgloc train` flags both parse with this."""
    name = typ if isinstance(typ, str) else typ.__name__
    if name == "int":
        return int(val)
    if name == "float":
        return float(val)
    if name == "bool":
        if val.lower() in ("true", "1", "yes"):
            return True
        if val.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {val!r}")
    return val


# ---------------------------------------------------------------------------
# optimizer


class OptimState:
    """Per-parameter Adam moments, keyed by parameter name, plus the shared
    step counter."""

    def __init__(self, params: dict):
        self.m = {name: np.zeros_like(t.data, dtype=np.float64) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data, dtype=np.float64) for name, t in params.items()}
        self.step = 0


def adam_step(params: dict, grads: dict, state: OptimState, lr: float) -> None:
    """One standard Adam update with bias correction, in place, of the
    {name: leaf} `params` from the {leaf: array} `grads` of `backward`. A leaf
    without a gradient gets a zero one. A non-finite gradient raises
    NonFiniteError before the step counter or any array changes."""
    for name, t in params.items():
        g = grads.get(t)
        if g is not None and not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for parameter {name}")
    b1, b2 = ADAM_BETAS
    state.step += 1
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for name, t in params.items():
        g = grads.get(t)
        if g is None:
            g = np.zeros_like(t.data, dtype=np.float64)
        else:
            g = g.astype(np.float64, copy=False)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        t.data -= update.astype(t.data.dtype)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str, model: SketchLocalizer, config_text: str) -> None:
    blob = config_text.encode()
    out = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(blob)), blob]
    out.append(struct.pack("<I", len(model.params)))
    for name, t in model.params.items():
        raw = name.encode()
        data = np.ascontiguousarray(t.data, dtype="<f4")
        out.append(struct.pack("<H", len(raw)))
        out.append(raw)
        out.append(struct.pack("<B", data.ndim))
        out.append(struct.pack(f"<{data.ndim}I", *data.shape))
        out.append(data.tobytes())
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(b"".join(out))
    os.replace(tmp, path)


class _Reader:
    """Bounds-checked reads from a checkpoint buffer."""

    def __init__(self, path: str, buf: bytes):
        self.path = path
        self.buf = buf
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise ValueError(f"{self.path}: truncated at offset {self.off}")
        out = self.buf[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        off = self.off
        try:
            return self.take(n).decode()
        except UnicodeDecodeError:
            raise ValueError(f"{self.path}: invalid utf-8 text at offset {off}") from None


def read_checkpoint(path: str):
    """Returns (config_text, {name: float32 array}); every value is finite."""
    with open(path, "rb") as f:
        r = _Reader(path, f.read())
    if r.take(4) != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic)")
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: checkpoint version {version} is not supported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    (cfg_len,) = r.unpack("<I")
    config_text = r.text(cfg_len)
    (count,) = r.unpack("<I")
    entries = {}
    for _ in range(count):
        off = r.off
        (nlen,) = r.unpack("<H")
        name = r.text(nlen)
        if name in entries:
            raise ValueError(f"{path}: parameter {name!r} repeated at offset {off}")
        (rank,) = r.unpack("<B")
        shape = r.unpack(f"<{rank}I")
        n = math.prod(shape)
        data = np.frombuffer(r.take(4 * n), dtype="<f4").reshape(shape).copy()
        if not np.isfinite(data).all():
            raise ValueError(f"{path}: parameter {name!r} holds a non-finite value")
        entries[name] = data
    if r.off != len(r.buf):
        raise ValueError(f"{path}: {len(r.buf) - r.off} trailing bytes at offset {r.off}")
    return config_text, entries


def _load_entries(path: str, entries: dict, model: SketchLocalizer) -> None:
    """Set every parameter of `model` from `entries`; an unknown or missing
    name, or a shape that differs, raises ValueError."""
    params = model.params
    for name, data in entries.items():
        t = params.get(name)
        if t is None:
            raise ValueError(f"{path}: unknown parameter {name!r} for this model")
        if data.shape != t.shape:
            raise ValueError(f"{path}: shape {data.shape} for {name!r} does not match model {t.shape}")
        t.data = data.astype(t.data.dtype)
    missing = params.keys() - entries.keys()
    if missing:
        raise ValueError(f"{path}: checkpoint missing parameters {sorted(missing)[:3]}...")


def load_model(path: str) -> tuple:
    """Rebuild the model a checkpoint was trained with and load its weights."""
    config_text, entries = read_checkpoint(path)
    try:
        cfg = TrainConfig.from_text(config_text)
        model = SketchLocalizer(cfg, seed=cfg.seed)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    _load_entries(path, entries, model)
    return model, cfg


# ---------------------------------------------------------------------------
# training


def _sample_query(rng, dataset: Dataset, ann, n_sketch: int):
    """(class, sketch paths) of one training query on a scene of `ann`."""
    present = sorted(set(ann.classes))
    cls = int(present[rng.integers(len(present))])
    return cls, dataset.draw_sketches(rng, cls, "train", n_sketch)


def _sample_step(model, dataset, sid, cls, paths, n, epoch, grads):
    """Forward, matching and loss of one sample of a batch of `n`, then a
    backward sweep of its loss scaled by 1/n onto the totals `grads`.

    Returns the sample's (score, l1, giou, total) loss record, as floats. The
    sample's tape is garbage once this returns."""
    ann = dataset.annotation(sid)
    sketches = [dataset.load_sketch(p) for p in paths]
    scores, boxes = model.forward(dataset.load_scene(sid), sketches)
    where = f"at epoch {epoch} scene {sid} (class {cls})"
    if not (np.isfinite(scores.data).all() and np.isfinite(boxes.data).all()):
        raise NonFiniteError(f"non-finite forward output {where}")
    gt_corners = ann.boxes[[c == cls for c in ann.classes]] / float(dataset.image_size)
    assign = hungarian_assign(build_cost_matrix(scores.data, boxes.data, gt_corners))
    lb = total_loss(scores, boxes, gt_corners, assign)
    if not np.isfinite(lb.total):
        raise NonFiniteError(f"non-finite loss {where}")
    backward(scale(lb.total_tensor, 1.0 / n), grads)
    return lb.score_loss, lb.l1_loss, lb.giou_loss, lb.total


def _run_half(model, dataset, grads, epoch, n, samples) -> list:
    """Zero the gradient slab `grads`, then run `samples`, [(sid, cls,
    sketch paths)] of one step of `n`, into it one after the other. Returns
    one loss record per sample."""
    for g in grads.values():
        g.fill(0)
    return [_sample_step(model, dataset, *s, n, epoch, grads) for s in samples]


# BLAS counts as single-threaded when each of these reads "1", as bench/run.py
# sets them before numpy loads. Otherwise each process may start a BLAS thread
# per CPU: `sgloc train` with two processes then ran 2.5-3x slower than with
# one, while one BLAS thread is as fast as several in one process.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _forks_worker(n: int) -> bool:
    """Whether a forked worker runs the second half of each step of `n`
    samples: when `n` is at least 2, two CPUs are usable and BLAS is pinned to
    one thread (`BLAS_THREAD_VARIABLES`). Never where the `fork` start method
    is unavailable, nor in a daemonic process (such as a
    `multiprocessing.Pool` worker), which may not start children."""
    if (
        n < 2
        or any(os.environ.get(var) != "1" for var in BLAS_THREAD_VARIABLES)
        or multiprocessing.current_process().daemon
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _slab(arrays: list) -> list:
    """Zeroed arrays shaped and typed like `arrays`, as views of one new
    shared anonymous mapping. A process forked afterwards shares their
    memory with this one, so either sees what the other writes there."""
    align = 16  # as numpy aligns the buffers it allocates
    offsets, size = [], 0
    for a in arrays:
        offsets.append(size)
        size += -(-a.nbytes // align) * align
    buf = mmap.mmap(-1, max(size, 1))
    return [np.frombuffer(buf, a.dtype, a.size, off).reshape(a.shape) for a, off in zip(arrays, offsets)]


def _worker(conn, parent_end, model, dataset, grads) -> None:
    """A forked worker's loop for one epoch, until the parent terminates it
    or its end of the pipe closes.

    Each job is (epoch, n, [(sid, cls, sketch paths), ...]), the second half
    of one step. The worker runs it into its gradient slab `grads` and
    replies with one loss record per sample, or with None when a sample
    raises: the parent then runs the half itself. The fork's copy of the
    parent's end, `parent_end`, is closed so that the pipe can read EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles it and stops this process
    parent_end.close()
    with contextlib.suppress(EOFError, BrokenPipeError):  # the parent is gone: exit quietly
        while True:
            job = conn.recv()
            try:
                reply = _run_half(model, dataset, grads, *job)
            except Exception:  # the parent reruns the half, and meets the exception if it recurs
                reply = None
            conn.send(reply)


def _receive(conn):
    """The worker's reply to a job: one loss record per sample, or None when
    a sample raised in the worker or the worker is gone."""
    try:
        return conn.recv()
    except (EOFError, OSError):  # a reset, when the worker died with the job unread
        return None


@contextlib.contextmanager
def _forked_worker(model, dataset, grads):
    """A worker forked for one epoch, as the parent's end of its pipe. On
    every exit it is terminated and joined: it is idle then, unless the
    parent raised while it ran a half."""
    ctx = multiprocessing.get_context("fork")
    conn, child = ctx.Pipe()
    # daemon: stopped at interpreter exit even if this process dies past `finally`
    proc = ctx.Process(target=_worker, args=(child, conn, model, dataset, grads), daemon=True)
    proc.start()
    child.close()
    try:
        yield conn
    finally:
        proc.terminate()
        proc.join()
        conn.close()


def train(config: TrainConfig, out_dir: str, log=None) -> str:
    """Run the full training loop; returns the path of the final checkpoint.

    A train scene without objects, or a `num_tokens` below the most objects
    of one class in a train scene, raises ValueError before `out_dir` is
    made: such a scene has no class to query, and such a query has more
    ground truths than the matching can assign tokens to."""
    config.validate()
    if log is None:
        log = lambda msg: print(msg, file=sys.stderr)
    dataset = Dataset(config.dataset)
    train_ids = dataset.scene_ids("train")
    crowd = {sid: max(Counter(dataset.annotation(sid).classes).values(), default=0) for sid in train_ids}
    bare, worst = min(crowd, key=crowd.get), max(crowd, key=crowd.get)
    if crowd[bare] == 0:
        raise ValueError(f"train scene {bare} holds no object to query")
    if crowd[worst] > config.num_tokens:
        raise ValueError(f"num_tokens {config.num_tokens} is below the {crowd[worst]} objects of one "
                         f"class in train scene {worst}")
    model = SketchLocalizer(config, seed=config.seed)
    # the parameter slab, then gradient slabs A and B laid out like it
    leaves = list(model.params.values())
    for t, shared in zip(leaves, _slab([t.data for t in leaves])):
        shared[...] = t.data
        t.data = shared
    grads_a, grads_b = (dict(zip(leaves, _slab([t.data for t in leaves]))) for _ in range(2))
    state = OptimState(model.params)
    rng = np.random.default_rng(derive_seed(config.seed, "train"))
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "last.sgl")
    config_text = config.to_text()
    history = []
    fork = _forks_worker(config.batch_size)

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_ids))
        records = []
        worker = _forked_worker(model, dataset, grads_b) if fork else contextlib.nullcontext()
        with worker as conn:
            for start in range(0, len(order), config.batch_size):
                batch = [train_ids[i] for i in order[start : start + config.batch_size]]
                n = len(batch)
                n_sketch = 5 if rng.random() < config.protocol_mix else 1
                samples = [(sid, *_sample_query(rng, dataset, dataset.annotation(sid), n_sketch))
                           for sid in batch]
                half = -(-n // 2)  # slab A takes the first ceil(n/2) samples, slab B the rest
                if conn:
                    with contextlib.suppress(OSError):  # a dead worker: `_receive` gives None
                        conn.send((epoch, n, samples[half:]))
                records += _run_half(model, dataset, grads_a, epoch, n, samples[:half])
                reply = _receive(conn) if conn else None
                if reply is None:  # no worker, or it failed: the parent runs this half and the rest
                    if conn:
                        log(f"epoch {epoch + 1}/{config.epochs}: the worker failed; this process runs the rest")
                    conn = None
                    reply = _run_half(model, dataset, grads_b, epoch, n, samples[half:])
                records += reply
                for a, b in zip(grads_a.values(), grads_b.values()):
                    np.add(a, b, out=a)
                adam_step(model.params, grads_a, state, config.lr)
        avg = np.mean(records, axis=0).tolist()
        history.append(
            {"epoch": epoch, "score": avg[0], "l1": avg[1], "giou": avg[2], "total": avg[3]}
        )
        log(
            f"epoch {epoch + 1}/{config.epochs}: total {avg[3]:.4f} "
            f"(score {avg[0]:.4f}, l1 {avg[1]:.4f}, giou {avg[2]:.4f})"
        )
        save_checkpoint(ckpt_path, model, config_text)

    with open(os.path.join(out_dir, "history.json"), "w") as f:
        json.dump(history, f, indent=1)
    return ckpt_path
