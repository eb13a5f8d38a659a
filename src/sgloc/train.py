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
before the model fields came first still parses to the same config. The key
`mode`, a field that nothing read, is skipped on read, so checkpoints and
config files that still carry it parse.

Training is fully deterministic given the config seed: data order, query
sampling, and parameter init all derive from it. Identical configs therefore
produce byte-identical checkpoints, whatever the number of CPUs. The echoed
config includes `dataset`, the corpus path, so two runs on copies of one
corpus at different paths give the same parameters but different bytes.

A step holds one sample's tape at a time. The batch's queries are drawn
first, in batch order, by the parent process; then each sample runs forward,
matching, loss and a backward sweep of `loss / n` before the next sample's
forward. The samples run from the last to the first because one backward
over the batch's summed loss would reach them in that order, so every float
addition into a gradient, and with it every checkpoint byte, is what that one
sweep gives.

Each step is shared between processes, one per usable CPU, at most two and
at most one per sample, when BLAS is pinned to one thread
(`_process_count`); otherwise one process runs it all. The order n-1 ... 0
is cut into consecutive runs. The parent takes the first and runs it as
`backward(loss / n, into=grads)`, one sample after the other. Each forked
worker takes the next run and keeps, per sample, the sweep's unsummed leaf
gradients in sweep order (`tensor.leaf_contributions`). A per-sample sum
would not do: a leaf reached twice in one sweep (the DET embedding, or each
sketch-encoder weight once per sketch) would then get its additions in
another order. After its own samples, the parent receives the workers'
samples one at a time, in run order, and adds each pair onto its totals as
`total + new` (`tensor.accumulate`). These are the float additions, in the
same order, that the one-process loop makes, so logged losses,
`history.json` and every checkpoint byte do not depend on the number of
processes. Adam then runs in the parent alone.

The parameters live in one shared anonymous mapping, so a worker reads the
parent's in-place Adam updates with nothing sent per step. Workers are forked
(the `fork` start method) at the start of each epoch and inherit the
process's state as it then is; they are joined before the epoch's
checkpoint is written. Forking per step would cost far more in copy-on-write
faults. A worker sends nothing until its run is done, so it never waits on
the parent mid-run.

When samples raise, the exception of the first one in run order is raised,
the one the one-process loop would have met first: the parent's own samples
are checked first, then each worker's in fold order. So, when several scenes
of a batch have a non-finite loss, the NonFiniteError names the last of them
in batch order. A worker's exception is raised in the parent with its type
and message, and the worker's traceback as its cause. Every exception is
raised before the step's Adam update, so no parameter changes, and the
workers are terminated and joined before it propagates: no worker outlives
`train`.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import multiprocessing
import numbers
import os
import pickle
import signal
import struct
import sys
import traceback
from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, derive_seed
from .matching import LossWeights, build_cost_matrix, hungarian_assign, total_loss
from .model import ModelConfig, SketchLocalizer
from .tensor import NonFiniteError, accumulate, backward, leaf_contributions, scale

CHECKPOINT_MAGIC = b"SGL1"
CHECKPOINT_VERSION = 2


@dataclass
class TrainConfig(ModelConfig):
    """The model's fields (see `ModelConfig`) plus those of the run."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 8
    epochs: int = 40
    lam_cls: float = LossWeights.lam_cls
    lam_l1: float = LossWeights.lam_l1
    lam_giou: float = LossWeights.lam_giou
    seed: int = 0
    dataset: str = ""
    protocol_mix: float = 0.5  # probability that a batch uses 5 query sketches

    def validate(self) -> None:
        super().validate()
        self._require(("batch_size", "epochs", "seed"), (int, np.integer), "an integer")
        self._require(
            ("lr", "beta1", "beta2", "eps", "lam_cls", "lam_l1", "lam_giou", "protocol_mix"),
            (numbers.Real,),
            "a number",
        )
        self._require(("dataset",), (str,), "a string")
        # written as `not ...` so that a NaN fails each test too
        for name in ("lr", "eps", "batch_size", "epochs"):
            if not getattr(self, name) > 0:
                raise ValueError(f"config field {name} must be positive")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"config field {name} must lie in [0, 1)")
        for name in ("lam_cls", "lam_l1", "lam_giou"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"config field {name} must not be negative")
        for name in ("lr", "eps", "lam_cls", "lam_l1", "lam_giou"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"config field {name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.protocol_mix <= 1.0:
            raise ValueError("protocol_mix must lie in [0, 1]")

    def loss_weights(self) -> LossWeights:
        return LossWeights(self.lam_cls, self.lam_l1, self.lam_giou)

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
            if key == "mode":  # a deleted field that older files still carry
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
        with open(path) as f:
            return cls.from_text(f.read())


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


def adam_step(
    params: dict,
    grads: dict,
    state: OptimState,
    lr: float,
    betas=(0.9, 0.999),
    eps: float = 1e-8,
) -> None:
    """One standard Adam update with bias correction, in place, of the
    {name: leaf} `params` from the {leaf: array} `grads` of `backward`. A leaf
    without a gradient gets a zero one."""
    b1, b2 = betas
    state.step += 1
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for name, t in params.items():
        g = grads.get(t)
        if g is None:
            g = np.zeros_like(t.data, dtype=np.float64)
        elif not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for parameter {name}")
        else:
            g = g.astype(np.float64, copy=False)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = lr * (m / c1) / (np.sqrt(v / c2) + eps)
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
    """Returns (config_text, {name: float32 array})."""
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
        entries[name] = np.frombuffer(r.take(4 * n), dtype="<f4").reshape(shape).copy()
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
    cfg = TrainConfig.from_text(config_text)
    model = SketchLocalizer(cfg, seed=cfg.seed)
    _load_entries(path, entries, model)
    return model, cfg


# ---------------------------------------------------------------------------
# training


def _sample_query(rng, dataset: Dataset, ann, n_sketch: int):
    present = sorted(set(ann.classes))
    cls = int(present[rng.integers(len(present))])
    pool = dataset.sketch_pool(cls, "train")
    pick = rng.choice(len(pool), size=n_sketch, replace=len(pool) < n_sketch)
    sketches = [dataset.load_sketch(pool[i]) for i in pick]
    return cls, sketches


def _sample_step(model, dataset, sid, cls, sketches, weights, n, epoch, sweep):
    """Forward, matching and loss of one sample of a batch of `n`, then
    `sweep` of its loss scaled by 1/n.

    Returns what `sweep` returns, the sample's f32 loss array and its
    (score, l1, giou) components. The sample's tape is garbage once this
    returns."""
    ann = dataset.annotation(sid)
    scores, boxes = model.forward(dataset.load_scene(sid), sketches)
    gt_corners = ann.boxes[[c == cls for c in ann.classes]] / float(dataset.image_size)
    assign = hungarian_assign(build_cost_matrix(scores.data, boxes.data, gt_corners, weights))
    lb = total_loss(scores, boxes, gt_corners, assign, weights)
    if not np.isfinite(lb.total):
        raise NonFiniteError(f"non-finite loss at epoch {epoch} scene {sid} (class {cls})")
    swept = sweep(scale(lb.total_tensor, 1.0 / n))
    return swept, lb.total_tensor.data, (lb.score_loss, lb.l1_loss, lb.giou_loss)


# More processes are untested for speed: the parent folds every worker's
# contributions alone, and CPU quotas are not seen by the affinity mask.
MAX_PROCESSES = 2

# BLAS counts as single-threaded when each of these reads "1", as bench/run.py
# sets them before numpy loads. Otherwise each process may start a BLAS thread
# per CPU: `sgloc train` with two processes then ran 2.5-3x slower than with
# one, while one BLAS thread is as fast as several in one process.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _process_count(n: int) -> int:
    """Processes that share the steps of `n` samples: one per usable CPU, at
    most `MAX_PROCESSES` and at most `n`. 1 unless BLAS is pinned to one
    thread (`BLAS_THREAD_VARIABLES`), where the `fork` start method is
    unavailable, and in a daemonic process (such as a `multiprocessing.Pool`
    worker), which may not start children."""
    if (
        any(os.environ.get(var) != "1" for var in BLAS_THREAD_VARIABLES)
        or multiprocessing.current_process().daemon
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, MAX_PROCESSES, n))


def _share_parameters(params: dict) -> None:
    """Move every parameter's values into one shared anonymous mapping. A
    process forked afterwards sees the parent's in-place Adam updates."""
    align = 16  # as numpy aligns the buffers it allocates
    offsets, size = [], 0
    for t in params.values():
        offsets.append(size)
        size += -(-t.data.nbytes // align) * align
    buf = mmap.mmap(-1, max(size, 1))
    for t, off in zip(params.values(), offsets):
        view = np.frombuffer(buf, t.data.dtype, t.data.size, off).reshape(t.shape)
        view[...] = t.data
        t.data = view


def _worker(conn, model, dataset, weights) -> None:
    """A forked worker's loop for one epoch.

    Each job is (epoch, n, [(sid, cls, sketches), ...]), samples of one step
    in the order to run them; None ends the loop. After the job's last
    sample, or its first exception, the worker sends one message per sample:
    (contributions, f32 loss array, components), with each contribution a
    (position in `model.params`, array) pair in sweep order; an exception is
    sent as (None, exception, traceback text) and ends the job. Nothing is
    sent before the job is done, so the parent never stalls the worker."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles it and stops this process
    position = {t: k for k, t in enumerate(model.params.values())}

    def contributions(loss):
        return [(position[leaf], g) for leaf, g in leaf_contributions(loss)]

    for epoch, n, samples in iter(conn.recv, None):
        results = []
        try:
            for sid, cls, sketches in samples:
                results.append(
                    _sample_step(model, dataset, sid, cls, sketches, weights, n, epoch, contributions)
                )
        except Exception as e:  # reported to the parent, which raises it
            results.append((None, *_portable(e)))
        for msg in results:
            conn.send(msg)


def _portable(exc: Exception) -> tuple:
    """(exception, its traceback text), with the exception replaced by a
    RuntimeError naming it when it does not survive pickling."""
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc, tb


def _receive(conn) -> tuple:
    """A worker's message for its next sample; raises the worker's exception."""
    try:
        msg = conn.recv()
    except EOFError:
        raise RuntimeError("a training worker exited before sending its results") from None
    if msg[0] is None:
        _, exc, tb = msg
        exc.__cause__ = RuntimeError("raised in a training worker:\n" + tb)
        raise exc
    return msg


@contextlib.contextmanager
def _workers(count: int, model, dataset, weights):
    """`count` workers forked for one epoch, as the parent's ends of their
    pipes. On a normal exit each is told to stop and joined; on an exception
    each is terminated and joined before the exception propagates."""
    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []
    try:
        for _ in range(count):
            conn, child = ctx.Pipe()
            # daemon: stopped at interpreter exit even if this process dies past `finally`
            proc = ctx.Process(target=_worker, args=(child, model, dataset, weights), daemon=True)
            proc.start()
            child.close()
            conns.append(conn)
            procs.append(proc)
        yield conns
        for conn in conns:
            conn.send(None)
        for proc in procs:
            proc.join()
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()


def train(config: TrainConfig, out_dir: str, log=None) -> str:
    """Run the full training loop; returns the path of the final checkpoint."""
    config.validate()
    if log is None:
        log = lambda msg: print(msg, file=sys.stderr)
    dataset = Dataset(config.dataset)
    train_ids = dataset.scene_ids("train")
    model = SketchLocalizer(config, seed=config.seed)
    _share_parameters(model.params)
    leaves = list(model.params.values())
    state = OptimState(model.params)
    weights = config.loss_weights()
    rng = np.random.default_rng(derive_seed(config.seed, "train"))
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "last.sgl")
    config_text = config.to_text()
    history = []
    procs = _process_count(config.batch_size)

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_ids))
        sums = np.zeros(4)
        n_batches = 0
        with _workers(procs - 1, model, dataset, weights) as conns:
            for start in range(0, len(order), config.batch_size):
                batch = [train_ids[i] for i in order[start : start + config.batch_size]]
                n = len(batch)
                n_sketch = 5 if rng.random() < config.protocol_mix else 1
                queries = [_sample_query(rng, dataset, dataset.annotation(sid), n_sketch) for sid in batch]
                # last sample first, the order of one sweep over the batch's summed
                # loss; the parent runs the first share of it, each worker the next
                runs = np.array_split(np.arange(n)[::-1], procs)
                for conn, run in zip(conns, runs[1:]):
                    conn.send((epoch, n, [(batch[i], *queries[i]) for i in run]))
                grads, losses, parts = {}, [None] * n, [None] * n
                for i in runs[0]:
                    grads, losses[i], parts[i] = _sample_step(
                        model, dataset, batch[i], *queries[i], weights, n, epoch,
                        lambda loss, into=grads: backward(loss, into),
                    )
                for conn, run in zip(conns, runs[1:]):
                    for i in run:
                        swept, losses[i], parts[i] = _receive(conn)
                        accumulate(grads, [(leaves[k], g) for k, g in swept])
                adam_step(model.params, grads, state, config.lr, (config.beta1, config.beta2), config.eps)
                # logged in batch order: a left-to-right sum, then times 1/n, as one summed loss gives
                batch_loss = losses[0]
                for loss in losses[1:]:
                    batch_loss = batch_loss + loss
                comps = np.zeros(3)
                for part in parts:
                    comps += part
                sums += (*(comps / n), float(batch_loss * (1.0 / n)))
                n_batches += 1
        avg = sums / max(1, n_batches)
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
