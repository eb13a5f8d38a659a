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

Training is single-threaded over batches and fully deterministic given the
config seed: data order, query sampling, and parameter init all derive from
it. Identical configs therefore produce byte-identical checkpoints. The echoed
config includes `dataset`, the corpus path, so two runs on copies of one
corpus at different paths give the same parameters but different bytes.

A step holds one sample's tape at a time. The batch's queries are drawn
first, in batch order; then each sample runs forward, matching, loss and
`backward(loss / n, into=grads)` before the next sample's forward. The
samples run from the last to the first because one backward over the
batch's summed loss would reach them in that order, so every float addition
into a gradient, and with it every checkpoint byte, is what that one sweep
gives. For the same reason, when several scenes of a batch have a
non-finite loss, the NonFiniteError names the last of them in batch order.
It is raised before the step's Adam update, so no parameter changes.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, derive_seed
from .matching import LossWeights, build_cost_matrix, hungarian_assign, total_loss
from .model import ModelConfig, SketchLocalizer
from .tensor import NonFiniteError, backward, scale

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
        self._require_integers(("batch_size", "epochs", "seed"))
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


def _sample_step(model, dataset, sid, cls, sketches, weights, n, grads, epoch):
    """Forward, matching, loss and backward of one sample of a batch of `n`.

    Returns `grads` with this sample's share of the batch gradient added, its
    f32 loss array and its (score, l1, giou) components. The sample's tape is
    garbage once this returns."""
    ann = dataset.annotation(sid)
    scores, boxes = model.forward(dataset.load_scene(sid), sketches)
    gt_corners = ann.boxes[[c == cls for c in ann.classes]] / float(dataset.image_size)
    assign = hungarian_assign(build_cost_matrix(scores.data, boxes.data, gt_corners, weights))
    lb = total_loss(scores, boxes, gt_corners, assign, weights)
    if not np.isfinite(lb.total):
        raise NonFiniteError(f"non-finite loss at epoch {epoch} scene {sid} (class {cls})")
    grads = backward(scale(lb.total_tensor, 1.0 / n), grads)
    return grads, lb.total_tensor.data, (lb.score_loss, lb.l1_loss, lb.giou_loss)


def train(config: TrainConfig, out_dir: str, log=None) -> str:
    """Run the full training loop; returns the path of the final checkpoint."""
    config.validate()
    if log is None:
        log = lambda msg: print(msg, file=sys.stderr)
    dataset = Dataset(config.dataset)
    train_ids = dataset.scene_ids("train")
    model = SketchLocalizer(config, seed=config.seed)
    state = OptimState(model.params)
    weights = config.loss_weights()
    rng = np.random.default_rng(derive_seed(config.seed, "train"))
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "last.sgl")
    config_text = config.to_text()
    history = []

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_ids))
        sums = np.zeros(4)
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            batch = [train_ids[i] for i in order[start : start + config.batch_size]]
            n = len(batch)
            n_sketch = 5 if rng.random() < config.protocol_mix else 1
            queries = [_sample_query(rng, dataset, dataset.annotation(sid), n_sketch) for sid in batch]
            grads, losses, parts = None, [None] * n, [None] * n
            # last sample first: the order in which one sweep over the batch's summed loss runs
            for i in reversed(range(n)):
                grads, losses[i], parts[i] = _sample_step(
                    model, dataset, batch[i], *queries[i], weights, n, grads, epoch
                )
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
