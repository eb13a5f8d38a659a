import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import re
import shutil
import signal
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgloc.data import DataConfig, Dataset, DatasetError, derive_seed, generate_dataset
from sgloc.matching import LossBreakdown, build_cost_matrix, hungarian_assign, total_loss
from sgloc.model import ModelConfig, SketchLocalizer
from sgloc import tensor as T
from sgloc.tensor import NonFiniteError, Tensor, add_n, backward, scale
from sgloc.train import (
    OptimState,
    TrainConfig,
    adam_step,
    load_model,
    read_checkpoint,
    save_checkpoint,
    train,
)
from sgloc import train as train_module
from test_encoder import TINY, tiny_model


def leaf(*values):
    return Tensor(np.array(values), requires_grad=True)


class TestAdam:
    def test_zero_gradient_no_change(self):
        w = leaf(1.0, -2.0)
        state = OptimState({"w": w})
        adam_step({"w": w}, {}, state, lr=0.1)
        assert np.array_equal(w.data, [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        w = leaf(1.0, 1.0)
        state = OptimState({"w": w})
        g = np.array([0.3, -0.8])
        adam_step({"w": w}, {w: g}, state, lr=0.01, eps=1e-8)
        # after bias correction the first update is ~ -lr * sign(g)
        want = 1.0 - 0.01 * np.sign(g)
        assert np.allclose(w.data, want, atol=1e-6)

    def test_quadratic_convergence_oracle(self):
        # 100 steps on f(w) = w^2 from w = 1 at lr 0.1 reaches |w| < 0.1
        w = leaf(1.0)
        state = OptimState({"w": w})
        for _ in range(100):
            adam_step({"w": w}, {w: 2.0 * w.data}, state, lr=0.1)
        assert abs(w.data[0]) < 0.1

    def test_nan_gradient_aborts_with_name(self):
        w = leaf(1.0)
        params = {"encoder.block.weight": w}
        with pytest.raises(NonFiniteError, match="encoder.block.weight"):
            adam_step(params, {w: np.array([np.nan])}, OptimState(params), lr=0.1)

    def test_non_finite_gradient_changes_nothing(self):
        # the NaN is in the last parameter's gradient: a check made while updating would
        # already have moved the others, their moments and the step counter
        params = {"a": leaf(1.0, 2.0), "b": leaf(-1.0), "c": leaf(0.5, 0.25)}
        state = OptimState(params)
        grads = {t: np.full(t.shape, 0.3) for t in params.values()}
        adam_step(params, grads, state, lr=0.1)  # moments and step are not their zeros
        before = ({n: t.data.copy() for n, t in params.items()},
                  {n: m.copy() for n, m in state.m.items()},
                  {n: v.copy() for n, v in state.v.items()})
        grads[params["c"]] = np.array([0.1, np.nan])
        with pytest.raises(NonFiniteError, match="parameter c"):
            adam_step(params, grads, state, lr=0.1)
        assert state.step == 1
        after = ({n: t.data for n, t in params.items()}, state.m, state.v)
        for was, now in zip(before, after):
            assert was.keys() == now.keys()
            assert all(np.array_equal(was[n], now[n]) for n in was)

    def test_deterministic(self):
        outs = []
        for _ in range(2):
            w = leaf(0.5, -0.5)
            state = OptimState({"w": w})
            for t in range(5):
                adam_step({"w": w}, {w: w.data * 0.7}, state, lr=0.05)
            outs.append(w.data.copy())
        assert np.array_equal(outs[0], outs[1])


class TestTrainConfig:
    def test_text_roundtrip(self):
        cfg = TrainConfig(d=32, epochs=3, dataset="/tmp/x", protocol_mix=0.25, refinement=False)
        back = TrainConfig.from_text(cfg.to_text())
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            TrainConfig.from_text("nonsense = 4\n")

    @pytest.mark.parametrize(
        "line, want",
        [
            ("d = 6x4", "config line 2: bad value for d: .*'6x4'"),
            ("lr = fast", "config line 2: bad value for lr: .*'fast'"),
            ("refinement = maybe", "config line 2: bad value for refinement: .*'maybe'"),
        ],
        ids=["int", "float", "bool"],
    )
    def test_bad_value_names_line_and_key(self, line, want):
        with pytest.raises(ValueError, match=want):
            TrainConfig.from_text("# run config\n" + line + "\n")

    def test_comments_and_blanks(self):
        cfg = TrainConfig.from_text("# comment\n\nd = 32  # inline\nheads = 2\n")
        assert cfg.d == 32 and cfg.heads == 2

    def test_text_written_before_the_key_reorder_parses_to_default(self):
        # `TrainConfig().to_text()` as written when the run fields preceded
        # encoder_fusion and refinement; existing checkpoints echo this text.
        old = (
            "d = 64\nheads = 4\nstages = 3\ndec_layers = 2\nnum_tokens = 100\n"
            "d_hidden = 128\nsketch_layers = 2\nlr = 0.001\nbeta1 = 0.9\nbeta2 = 0.999\n"
            "eps = 1e-08\nbatch_size = 8\nepochs = 40\nlam_cls = 2.0\nlam_l1 = 5.0\n"
            "lam_giou = 2.0\nseed = 0\ndataset = \nmode = closed\nprotocol_mix = 0.5\n"
            "encoder_fusion = true\nrefinement = true\n"
        )
        assert TrainConfig.from_text(old) == TrainConfig()

    def test_mode_key_of_older_files_is_skipped(self):
        assert TrainConfig.from_text("mode = open\nd = 32\n") == TrainConfig(d=32)

    @pytest.mark.parametrize(
        "field, value, want",
        [
            ("beta1", 1.0, r"lie in \[0, 1\)"),
            ("beta1", -0.1, r"lie in \[0, 1\)"),
            ("beta2", 1.5, r"lie in \[0, 1\)"),
            ("eps", -1.0, "be positive"),
            ("eps", 0.0, "be positive"),
            ("lr", math.nan, "be positive"),
            ("lam_cls", -2.0, "not be negative"),
            ("lam_l1", -1.0, "not be negative"),
            ("lam_giou", math.nan, "not be negative"),
        ],
    )
    def test_optimizer_and_loss_settings_are_checked(self, field, value, want):
        with pytest.raises(ValueError, match=f"config field {field} must {want}"):
            TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["lr", "eps", "lam_cls", "lam_l1", "lam_giou"])
    def test_infinite_optimizer_and_loss_settings_are_refused(self, field):
        # eps = inf makes every Adam update 0, so a run would learn nothing
        for cfg in (TrainConfig(**{field: math.inf}), TrainConfig.from_text(f"{field} = inf\n")):
            with pytest.raises(ValueError, match=f"config field {field} must be finite, got inf"):
                cfg.validate()

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ValueError, match=r"config line 4: key 'lr' repeated \(first on line 2\)"):
            TrainConfig.from_text("# run\nlr = 0.01\nd = 32\nlr = 0.1\n")

    @pytest.mark.parametrize("field", ["d", "heads", "num_tokens", "dec_layers"])
    def test_non_positive_model_field_is_named(self, field):
        with pytest.raises(ValueError, match=f"config field {field} must be positive"):
            ModelConfig(**{field: 0}).validate()

    @pytest.mark.parametrize(
        "field, value",
        [("d", 64.0), ("heads", 4.0), ("num_tokens", 2.5), ("sketch_layers", True),
         ("batch_size", 2.5), ("batch_size", "8"), ("epochs", 1.0), ("epochs", False),
         ("seed", 0.5), ("seed", None)],
    )
    def test_non_integer_size_is_named(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"config field {field} must be an integer, got {value!r}")):
            TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize(
        "field, value, kind",
        [("encoder_fusion", "false", "a bool"), ("refinement", "false", "a bool"),
         ("refinement", 1, "a bool"), ("encoder_fusion", None, "a bool"),
         ("lr", "0.1", "a number"), ("protocol_mix", "0.5", "a number"), ("beta1", None, "a number"),
         ("beta2", True, "a number"), ("eps", "1e-8", "a number"), ("lam_cls", None, "a number"),
         ("lam_giou", False, "a number"), ("dataset", None, "a string"), ("dataset", 3, "a string")],
    )
    def test_wrongly_typed_field_is_named(self, field, value, kind):
        with pytest.raises(ValueError, match=re.escape(f"config field {field} must be {kind}, got {value!r}")):
            TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize(
        "dataset", ["/tmp/run#1", "/tmp/run ", " /tmp/run", "/tmp/run\t", "/tmp/a\nb", "/tmp/a\rb", "/tmp/a\u2028b"],
        ids=["hash", "trailing-space", "leading-space", "trailing-tab", "newline", "return", "line-separator"],
    )
    def test_dataset_that_would_not_round_trip_is_refused(self, dataset):
        want = f"config field dataset must hold no '#', no line break and no leading or trailing whitespace, got {dataset!r}"
        with pytest.raises(ValueError, match=re.escape(want)):
            TrainConfig(dataset=dataset).validate()

    @pytest.mark.parametrize("dataset", ["", "/tmp/run 1", "/data/a=b", "corpus"],
                             ids=["empty", "inner-space", "equals-sign", "relative"])
    def test_accepted_dataset_round_trips(self, dataset):
        cfg = TrainConfig(dataset=dataset)
        cfg.validate()
        assert TrainConfig.from_text(cfg.to_text()).dataset == dataset

    def test_numpy_floats_and_ints_are_numbers(self):
        TrainConfig(lr=np.float32(1e-3), beta1=np.float64(0.9), eps=1, protocol_mix=np.int64(1)).validate()

    def test_numpy_integers_are_integers(self):
        TrainConfig(d=np.int64(32), heads=np.int32(2), batch_size=np.int64(4), seed=np.uint8(3)).validate()

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(d=30).validate()
        with pytest.raises(ValueError):
            TrainConfig(epochs=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(protocol_mix=1.5).validate()


class TestCheckpoint:
    # The echoed config has seed 1, so `load_model` builds its model from
    # other initial values than the seed-9 model whose weights are saved.
    ECHO = dict(seed=1)

    def test_roundtrip_bytes_identical(self, tmp_path):
        m = tiny_model(seed=9)
        p1 = str(tmp_path / "a.sgl")
        p2 = str(tmp_path / "b.sgl")
        cfg_text = tiny_train_config("", **self.ECHO).to_text()
        save_checkpoint(p1, m, cfg_text)
        m2, _ = load_model(p1)
        save_checkpoint(p2, m2, cfg_text)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_values_restored_exactly(self, tmp_path):
        m = tiny_model(seed=9)
        path = str(tmp_path / "a.sgl")
        save_checkpoint(path, m, tiny_train_config("", **self.ECHO).to_text())
        m2, _ = load_model(path)
        fresh = tiny_model(seed=1)
        assert list(m2.params) == list(m.params)
        assert any(not np.array_equal(t.data, fresh.params[n].data) for n, t in m.params.items())
        for name, t in m.params.items():
            assert np.array_equal(t.data, m2.params[name].data), name

    def test_unknown_name_rejected(self, tmp_path):
        path = str(tmp_path / "a.sgl")
        # entries of a two-layer sketch encoder under a one-layer config
        save_checkpoint(path, tiny_model(sketch_layers=2), tiny_train_config("").to_text())
        with pytest.raises(ValueError, match="unknown parameter 'sketch.block1.") as e:
            load_model(path)
        assert str(e.value).startswith(path + ": ")

    @pytest.mark.parametrize(
        "saved, echoed, match",
        [
            ({}, {"sketch_layers": 2}, "checkpoint missing parameters \\['sketch.block1."),
            ({"d_hidden": 32}, {}, "shape \\(8, 32\\) for 'sketch.block0.adapter.in' does not match"),
        ],
        ids=["missing_name", "wrong_shape"],
    )
    def test_missing_name_or_wrong_shape_rejected(self, tmp_path, saved, echoed, match):
        path = str(tmp_path / "a.sgl")
        save_checkpoint(path, tiny_model(**saved), tiny_train_config("", **echoed).to_text())
        with pytest.raises(ValueError, match=match) as e:
            load_model(path)
        assert str(e.value).startswith(path + ": ")

    @pytest.mark.parametrize(
        "echoed, fault",
        [("heads = 0", "config field heads must be positive"),
         ("heads = two", "config line 2: bad value for heads: invalid literal for int() with base 10: 'two'")],
        ids=["invalid", "unparsable"],
    )
    def test_config_errors_name_the_checkpoint(self, tmp_path, echoed, fault):
        path = str(tmp_path / "a.sgl")
        save_checkpoint(path, tiny_model(), f"seed = 1\n{echoed}\n")
        with pytest.raises(ValueError) as e:
            load_model(path)
        assert str(e.value) == f"{path}: {fault}"

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "junk.sgl")
        with open(path, "wb") as f:
            f.write(b"NOPE1234")
        with pytest.raises(ValueError, match="magic"):
            read_checkpoint(path)

    def test_config_echo_preserved(self, tmp_path):
        m = tiny_model()
        path = str(tmp_path / "a.sgl")
        text = TrainConfig(d=TINY.d, heads=TINY.heads).to_text()
        save_checkpoint(path, m, text)
        got, _ = read_checkpoint(path)
        assert got == text


class TestMalformedCheckpoint:
    """Damaged files raise ValueError naming the path, never a raw
    struct/numpy error."""

    CONFIG = "seed = 1\n"

    def saved(self, tmp_path):
        path = str(tmp_path / "a.sgl")
        m = tiny_model()
        save_checkpoint(path, m, self.CONFIG)
        with open(path, "rb") as f:
            return path, f.read(), m

    def first_param_offsets(self, m):
        """(name, shape, data) offsets of the first parameter record."""
        first, t = next(iter(m.params.items()))
        name = 4 + 4 + 4 + len(self.CONFIG) + 4 + 2
        shape = name + len(first.encode()) + 1
        return name, shape, shape + 4 * t.ndim

    def truncated(self, tmp_path, buf, n):
        path = str(tmp_path / f"cut{n}.sgl")
        with open(path, "wb") as f:
            f.write(buf[:n])
        return path

    def test_truncation_names_path_and_offset(self, tmp_path):
        _, buf, m = self.saved(tmp_path)
        name, shape, data = self.first_param_offsets(m)
        last_data = len(buf) - 4 * list(m.params.values())[-1].size
        # (bytes kept, offset of the field the file ends in)
        cuts = [(0, 0), (4, 4), (12, 12), (name + 2, name), (shape + 2, shape),
                (data + 5, data), (len(buf) - 1, last_data)]
        for n, off in cuts:
            path = self.truncated(tmp_path, buf, n)
            with pytest.raises(ValueError) as e:
                read_checkpoint(path)
            assert str(e.value) == f"{path}: truncated at offset {off}", n

    def test_every_short_prefix_raises_value_error(self, tmp_path):
        _, buf, m = self.saved(tmp_path)
        _, _, data = self.first_param_offsets(m)
        for n in range(data + 8):
            with pytest.raises(ValueError):
                read_checkpoint(self.truncated(tmp_path, buf, n))

    def test_trailing_bytes_rejected(self, tmp_path):
        path, buf, _ = self.saved(tmp_path)
        with open(path, "wb") as f:
            f.write(buf + b"JUNK")
        with pytest.raises(ValueError) as e:
            read_checkpoint(path)
        assert str(e.value) == f"{path}: 4 trailing bytes at offset {len(buf)}"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_checkpoint_loads_or_raises_value_error(self, fuzz_checkpoint, data):
        # A guard: cut anywhere, or flip one bit (mostly in the first 600
        # bytes, which hold the header, the config text and the first
        # parameter records). `ShapeError` is a `ValueError`; a raw struct,
        # index, decode or type error fails the test.
        path, buf = fuzz_checkpoint
        blob = bytearray(buf)
        if data.draw(st.booleans(), label="truncate"):
            del blob[data.draw(st.integers(0, len(blob) - 1), label="cut"):]
        else:
            bits = st.one_of(st.integers(0, 8 * 600 - 1), st.integers(0, 8 * len(blob) - 1))
            bit = data.draw(bits, label="bit")
            blob[bit // 8] ^= 1 << (bit % 8)
        damaged = path + ".damaged"
        with open(damaged, "wb") as f:
            f.write(blob)
        try:
            model, cfg = load_model(damaged)
        except ValueError:
            return
        assert isinstance(model, SketchLocalizer) and model.config == cfg

    def test_repeated_name_rejected(self, tmp_path):
        path, buf, m = self.saved(tmp_path)
        name, _, data = self.first_param_offsets(m)
        first, t = next(iter(m.params.items()))
        count, start, end = name - 6, name - 2, data + 4 * t.size
        # the first record written twice, with the count raised to match
        (n,) = struct.unpack("<I", buf[count:start])
        with open(path, "wb") as f:
            f.write(buf[:count] + struct.pack("<I", n + 1) + buf[start:end] + buf[start:])
        for load in (read_checkpoint, load_model):
            with pytest.raises(ValueError) as e:
                load(path)
            assert str(e.value) == f"{path}: parameter {first!r} repeated at offset {end}"

    def test_version_1_rejected(self, tmp_path):
        path, buf, _ = self.saved(tmp_path)
        with open(path, "wb") as f:
            f.write(buf[:4] + (1).to_bytes(4, "little") + buf[8:])
        with pytest.raises(ValueError) as e:
            read_checkpoint(path)
        assert path in str(e.value) and "version 1" in str(e.value)

    def test_invalid_utf8_name_rejected(self, tmp_path):
        path, buf, m = self.saved(tmp_path)
        name, _, _ = self.first_param_offsets(m)
        with open(path, "wb") as f:
            f.write(buf[:name] + b"\xff" + buf[name + 1 :])
        with pytest.raises(ValueError, match=f"offset {name}"):
            read_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_path_and_parameter(self, tmp_path, value):
        path = str(tmp_path / "a.sgl")
        m = tiny_model()
        m.params["head.box.b3"].data[2] = value
        save_checkpoint(path, m, self.CONFIG)
        with pytest.raises(ValueError) as e:
            read_checkpoint(path)
        assert str(e.value) == f"{path}: parameter 'head.box.b3' holds a non-finite value"


@pytest.fixture(scope="module")
def train_corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("train_corpus"))
    cfg = DataConfig(n_train=12, n_val=4, seed=3, sketches_per_class=6, val_sketches_per_class=2)
    generate_dataset(cfg, out)
    return out


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    """(path, bytes) of a tiny model's checkpoint with its full config text."""
    cfg = tiny_train_config("")
    path = str(tmp_path_factory.mktemp("fuzz") / "a.sgl")
    save_checkpoint(path, SketchLocalizer(cfg, seed=cfg.seed), cfg.to_text())
    with open(path, "rb") as f:
        return path, f.read()


def tiny_train_config(dataset, **kw):
    base = dict(
        d=TINY.d, heads=TINY.heads, stages=TINY.stages, dec_layers=TINY.dec_layers,
        num_tokens=TINY.num_tokens, d_hidden=TINY.d_hidden, sketch_layers=TINY.sketch_layers,
        epochs=1, batch_size=4, dataset=dataset, seed=5,
    )
    base.update(kw)
    return TrainConfig(**base)


def empty_scenes(corpus, sids):
    """Rewrite the annotations of scenes `sids` of `corpus` to hold no object."""
    path = os.path.join(corpus, "annotations.jsonl")
    with open(path) as f:
        lines = f.read().splitlines()
    for sid in sids:
        rec = json.loads(lines[sid])
        rec["boxes"], rec["classes"] = [], []
        lines[sid] = json.dumps(rec)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def training_digests(ckpt):
    """sha256 over a checkpoint's (name, shape, bytes) entries and over the
    run's history.json."""
    params = hashlib.sha256()
    for name, data in read_checkpoint(ckpt)[1].items():
        params.update(f"{name} {data.shape}".encode())
        params.update(data.tobytes())
    with open(os.path.join(os.path.dirname(ckpt), "history.json"), "rb") as f:
        history = hashlib.sha256(f.read()).hexdigest()
    return params.hexdigest(), history


class TestTrainLoop:
    def test_smoke_epoch_logs_finite_losses(self, train_corpus, tmp_path):
        msgs = []
        cfg = tiny_train_config(train_corpus)
        ckpt = train(cfg, str(tmp_path / "run"), log=msgs.append)
        assert os.path.exists(ckpt)
        assert len(msgs) == cfg.epochs
        assert all("total" in m for m in msgs)

    def test_identical_seeds_identical_checkpoints(self, train_corpus, tmp_path):
        cfg = tiny_train_config(train_corpus, epochs=2)
        c1 = train(cfg, str(tmp_path / "r1"), log=lambda m: None)
        c2 = train(cfg, str(tmp_path / "r2"), log=lambda m: None)
        assert open(c1, "rb").read() == open(c2, "rb").read()

    def test_load_model_roundtrip(self, train_corpus, tmp_path):
        cfg = tiny_train_config(train_corpus)
        ckpt = train(cfg, str(tmp_path / "run"), log=lambda m: None)
        model, loaded_cfg = load_model(ckpt)
        assert loaded_cfg == cfg
        assert model.config.d == cfg.d

    def test_load_model_reads_the_checkpoint_once(self, train_corpus, tmp_path, monkeypatch):
        ckpt = train(tiny_train_config(train_corpus), str(tmp_path / "run"), log=lambda m: None)
        calls = []

        def counting(path):
            calls.append(path)
            return read_checkpoint(path)

        monkeypatch.setattr(train_module, "read_checkpoint", counting)
        load_model(ckpt)
        assert calls == [ckpt]

    def test_fewer_tokens_than_objects_of_one_class_are_refused_before_the_run(self, train_corpus,
                                                                               tmp_path):
        # such a query has more ground truths than the matching can give tokens to
        ds = Dataset(train_corpus)
        ids = ds.scene_ids("train")
        crowd = [max(map(ds.annotation(sid).classes.count, ds.annotation(sid).classes)) for sid in ids]
        most = max(crowd)
        assert most >= 2
        with pytest.raises(ValueError) as e:
            train(tiny_train_config(train_corpus, num_tokens=most - 1), str(tmp_path / "run"))
        assert str(e.value) == (f"num_tokens {most - 1} is below the {most} objects of one class "
                                f"in train scene {ids[crowd.index(most)]}")
        assert not os.path.exists(tmp_path / "run")
        assert os.path.exists(train(tiny_train_config(train_corpus, num_tokens=most),
                                    str(tmp_path / "enough"), log=lambda m: None))

    def test_a_train_scene_without_objects_is_refused_before_the_run(self, train_corpus, tmp_path):
        # it has no class to query; the first such scene is named
        corpus = str(tmp_path / "corpus")
        shutil.copytree(train_corpus, corpus)
        ids = Dataset(corpus).scene_ids("train")
        empty_scenes(corpus, [ids[5], ids[2]])
        with pytest.raises(ValueError) as e:
            train(tiny_train_config(corpus), str(tmp_path / "run"))
        assert str(e.value) == f"train scene {ids[2]} holds no object to query"
        assert not os.path.exists(tmp_path / "run")

    def test_fixed_batch_overfit_decreases_loss(self, train_corpus):
        ds = Dataset(train_corpus)
        model = tiny_model(seed=2)
        state = OptimState(model.params)
        sid = ds.scene_ids("train")[0]
        ann = ds.annotation(sid)
        cls = ann.classes[0]
        sketch = ds.load_sketch(ds.sketch_pool(cls, "train")[0])
        image = ds.load_scene(sid)
        gt = ann.boxes[[c == cls for c in ann.classes]] / 64.0

        losses = []
        for _ in range(30):
            scores, boxes = model.forward(image, [sketch])
            assign = hungarian_assign(build_cost_matrix(scores.data, boxes.data, gt))
            lb = total_loss(scores, boxes, gt, assign)
            losses.append(lb.total)
            adam_step(model.params, backward(lb.total_tensor), state, lr=1e-3)
        assert losses[-1] < losses[0] * 0.9
        assert np.isfinite(losses).all()

    def test_training_bytes_are_pinned(self, train_corpus, tmp_path):
        # 12 scenes in batches of 5 (the last holds 2), 1Q and 5Q batches mixed: every
        # parameter byte and the logged history, pinned so that a change to the step's
        # arithmetic changes these digests on purpose
        cfg = tiny_train_config(train_corpus, epochs=2, batch_size=5, protocol_mix=0.5)
        ckpt = train(cfg, str(tmp_path / "run"), log=lambda m: None)
        assert training_digests(ckpt) == PINNED_TRAINING

    def test_step_memory_is_one_sample_tape(self, train_corpus, tmp_path):
        # a batch of 8 must not hold 8 tapes: its traced peak stays near a batch of 1's
        peaks = {}
        for batch_size in (1, 8):
            cfg = tiny_train_config(train_corpus, batch_size=batch_size, protocol_mix=1.0)
            tracemalloc.start()
            try:
                train(cfg, str(tmp_path / f"b{batch_size}"), log=lambda m: None)
                peaks[batch_size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] < 2 * peaks[1], peaks


PINNED_TRAINING = (
    "f4ec26a4365447192576a20b3bdfe46d6bce9387182d7fab40ba2cc61a0f3302",
    "f9068ee1d14c54a766502b2382bd3ce2865d30044313b9bde282fede968d3dbb",
)


class TestNonFiniteLoss:
    """A NaN loss or forward output planted on chosen scenes of a one-batch epoch."""

    def run(self, corpus, tmp_path, monkeypatch, poisoned, epochs=1, from_epoch=0, processes=None,
            output=None):
        """`output` None poisons the loss; 0 or 1 poisons the forward's scores or boxes."""
        cfg = tiny_train_config(corpus, epochs=epochs, batch_size=12)
        if processes is not None:
            monkeypatch.setattr(train_module, "_forks_worker", lambda n: processes == 2)
        models, scene, saved = [], [None], [0]

        class Recorded(SketchLocalizer):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                models.append(self)

            def forward(self, *a, **kw):
                out = list(super().forward(*a, **kw))
                if output is not None and scene[0] in poisoned:
                    out[output] = scale(out[output], math.nan)
                return tuple(out)

        def load_scene(ds, sid):
            scene[0] = sid
            return original_load(ds, sid)

        def poisoned_loss(*args):
            lb = total_loss(*args)
            if output is None and scene[0] in poisoned and saved[0] >= from_epoch:
                return LossBreakdown(lb.score_loss, lb.l1_loss, lb.giou_loss, math.nan,
                                     lb.weights, scale(lb.total_tensor, math.nan))
            return lb

        def counting_save(*args):
            saved[0] += 1
            save_checkpoint(*args)

        original_load = Dataset.load_scene
        monkeypatch.setattr(Dataset, "load_scene", load_scene)
        monkeypatch.setattr(train_module, "SketchLocalizer", Recorded)
        monkeypatch.setattr(train_module, "total_loss", poisoned_loss)
        monkeypatch.setattr(train_module, "save_checkpoint", counting_save)
        out = tmp_path / "run"
        with pytest.raises(NonFiniteError) as e:
            train(cfg, str(out), log=lambda m: None)
        return cfg, models[0], out, e.value

    def test_names_the_first_poisoned_scene_in_batch_order(self, train_corpus, tmp_path, monkeypatch):
        ids = Dataset(train_corpus).scene_ids("train")
        rng = np.random.default_rng(derive_seed(5, "train"))
        order = [ids[i] for i in rng.permutation(len(ids))]  # the epoch's one batch
        a, b = order[3], order[8]
        cfg, model, out, err = self.run(train_corpus, tmp_path, monkeypatch, {a, b})
        assert f"non-finite loss at epoch 0 scene {a} " in str(err)
        fresh = SketchLocalizer(cfg, seed=cfg.seed)
        for name, t in model.params.items():
            assert np.array_equal(t.data, fresh.params[name].data), name
        assert not os.path.exists(out / "last.sgl")

    def test_a_later_epoch_is_named_and_no_parameter_changes(self, train_corpus, tmp_path,
                                                            monkeypatch):
        ids = Dataset(train_corpus).scene_ids("train")
        cfg, model, out, err = self.run(train_corpus, tmp_path, monkeypatch, {ids[2]}, epochs=3,
                                        from_epoch=1)
        assert f"non-finite loss at epoch 1 scene {ids[2]} " in str(err)
        # the checkpoint holds the parameters after epoch 0, and the failed step kept them
        _, entries = read_checkpoint(str(out / "last.sgl"))
        for name, t in model.params.items():
            assert np.array_equal(t.data, entries[name]), name

    def test_worker_scenes_are_named_in_batch_order(self, train_corpus, tmp_path, monkeypatch):
        # with 2 processes the parent runs samples 0..5 of the batch and the worker 6..11;
        # the worker meets order[7] first, the first poisoned scene in batch order
        ids = Dataset(train_corpus).scene_ids("train")
        rng = np.random.default_rng(derive_seed(5, "train"))
        order = [ids[i] for i in rng.permutation(len(ids))]
        a, b = order[7], order[10]
        cfg, model, out, err = self.run(train_corpus, tmp_path, monkeypatch, {a, b}, processes=2)
        assert f"non-finite loss at epoch 0 scene {a} " in str(err)
        assert err.__cause__ is None  # the parent reran the worker's half and raised itself
        fresh = SketchLocalizer(cfg, seed=cfg.seed)
        for name, t in model.params.items():
            assert np.array_equal(t.data, fresh.params[name].data), name
        assert not os.path.exists(out / "last.sgl")

    @pytest.mark.parametrize("output", [0, 1])
    @pytest.mark.parametrize("processes", [1, 2])
    def test_a_non_finite_forward_output_is_named_before_matching(self, train_corpus, tmp_path,
                                                                  monkeypatch, processes, output):
        # the worker, when there is one, runs samples 6..11 and meets order[7] first; the
        # matching would otherwise refuse the cost matrix with a bare ValueError
        ids = Dataset(train_corpus).scene_ids("train")
        rng = np.random.default_rng(derive_seed(5, "train"))
        order = [ids[i] for i in rng.permutation(len(ids))]
        cfg, model, out, err = self.run(train_corpus, tmp_path, monkeypatch, {order[7], order[10]},
                                        processes=processes, output=output)
        assert f"non-finite forward output at epoch 0 scene {order[7]} (class " in str(err)
        assert err.__cause__ is None
        fresh = SketchLocalizer(cfg, seed=cfg.seed)
        for name, t in model.params.items():
            assert np.array_equal(t.data, fresh.params[name].data), name
        assert not os.path.exists(out / "last.sgl")

    def test_a_worker_still_running_its_half_is_stopped_when_the_parent_raises(
        self, train_corpus, tmp_path, monkeypatch
    ):
        # with 2 processes the parent runs samples 0..5 of the batch and the worker 6..11;
        # only order[2], the parent's third sample, is poisoned, and the parent reaches it
        # while the worker is held in its first sample
        ids = Dataset(train_corpus).scene_ids("train")
        rng = np.random.default_rng(derive_seed(5, "train"))
        poisoned = [ids[i] for i in rng.permutation(len(ids))][2]
        parent = os.getpid()
        started = multiprocessing.get_context("fork").Value("i", 0)
        original_load = Dataset.load_scene

        def load_scene(ds, sid):
            if os.getpid() != parent:
                started.value = 1
                time.sleep(120)
            elif sid == poisoned:
                deadline = time.monotonic() + 60
                while not started.value and time.monotonic() < deadline:
                    time.sleep(0.01)
            return original_load(ds, sid)

        monkeypatch.setattr(Dataset, "load_scene", load_scene)
        t0 = time.monotonic()
        cfg, model, out, err = self.run(train_corpus, tmp_path, monkeypatch, {poisoned}, processes=2)
        assert started.value == 1
        assert time.monotonic() - t0 < 60  # the worker was terminated, not waited for
        assert not multiprocessing.active_children()
        assert f"non-finite loss at epoch 0 scene {poisoned} " in str(err)
        assert err.__cause__ is None  # the parent's own exception
        fresh = SketchLocalizer(cfg, seed=cfg.seed)
        for name, t in model.params.items():
            assert np.array_equal(t.data, fresh.params[name].data), name
        assert not os.path.exists(out / "last.sgl")


def leaves(x):
    """The non-sequence values inside nested lists and tuples."""
    if isinstance(x, (list, tuple)):
        for item in x:
            yield from leaves(item)
    else:
        yield x


def single_threaded_blas(monkeypatch):
    for var in train_module.BLAS_THREAD_VARIABLES:
        monkeypatch.setenv(var, "1")


class _FirstStep(Exception):
    """Raised in place of the first Adam update, carrying its gradients."""


class TestParallelStep:
    """Each step's two halves: run one after the other, or the second in a
    forked worker."""

    @pytest.mark.parametrize("fork", [False, True])
    def test_step_gradient_is_one_backward_over_the_summed_loss(self, train_corpus, tmp_path,
                                                                monkeypatch, fork):
        # two half-batch totals summed differ from one sweep over the batch's summed loss
        # by float rounding only: at f64 each element within rtol 1e-12 (1.4e-13 measured),
        # far inside the 1e-5 of the gradcheck
        cfg = tiny_train_config(train_corpus, batch_size=5, protocol_mix=0.5)

        def first_step(params, grads, *args):
            raise _FirstStep({name: grads[t].copy() for name, t in params.items()})

        monkeypatch.setattr(train_module, "_forks_worker", lambda n: fork)
        monkeypatch.setattr(train_module, "adam_step", first_step)
        with T.precision("f64"):
            with pytest.raises(_FirstStep) as e:
                train(cfg, str(tmp_path / "run"), log=lambda m: None)
            got = e.value.args[0]
            # the first batch and its queries, drawn as `train` draws them
            ds = Dataset(train_corpus)
            ids = ds.scene_ids("train")
            rng = np.random.default_rng(derive_seed(cfg.seed, "train"))
            batch = [ids[i] for i in rng.permutation(len(ids))[: cfg.batch_size]]
            n_sketch = 5 if rng.random() < cfg.protocol_mix else 1
            model = SketchLocalizer(cfg, seed=cfg.seed)
            weights = cfg.loss_weights()
            losses = []
            for sid in batch:
                ann = ds.annotation(sid)
                cls, paths = train_module._sample_query(rng, ds, ann, n_sketch)
                scores, boxes = model.forward(ds.load_scene(sid), [ds.load_sketch(p) for p in paths])
                gt = ann.boxes[[c == cls for c in ann.classes]] / float(ds.image_size)
                assign = hungarian_assign(build_cost_matrix(scores.data, boxes.data, gt, weights))
                losses.append(total_loss(scores, boxes, gt, assign, weights).total_tensor)
            want = backward(scale(add_n(losses), 1.0 / len(batch)))
        assert got.keys() == model.params.keys()
        for name, t in model.params.items():
            assert got[name].dtype == np.float64, name
            w = want.get(t, np.zeros_like(t.data))
            np.testing.assert_allclose(got[name], w, rtol=1e-12, atol=0, err_msg=name)

    def test_bytes_do_not_depend_on_the_process_count(self, train_corpus, tmp_path, monkeypatch):
        # batches of 5/5/2: the worker runs the last 2, 2 and 1 samples of them
        cfg = tiny_train_config(train_corpus, epochs=2, batch_size=5, protocol_mix=0.5)
        jobs, replies = [], []

        class Recorded:
            """The parent's end of the pipe, keeping every job and reply."""

            def __init__(self, conn):
                self.conn = conn

            def send(self, job):
                jobs.append(job)
                self.conn.send(job)

            def recv(self):
                replies.append(self.conn.recv())
                return replies[-1]

        @contextlib.contextmanager
        def recorded_worker(*args):
            with original_worker(*args) as conn:
                yield Recorded(conn)

        original_worker = train_module._forked_worker
        monkeypatch.setattr(train_module, "_forked_worker", recorded_worker)
        files, shipped = {}, {}
        for procs in (1, 2):
            monkeypatch.setattr(train_module, "_forks_worker", lambda n, p=procs: p == 2)
            jobs.clear()
            replies.clear()
            ckpt = train(cfg, str(tmp_path / f"p{procs}"), log=lambda m: None)
            with open(ckpt, "rb") as f, open(tmp_path / f"p{procs}" / "history.json", "rb") as h:
                files[procs] = (f.read(), h.read())
            shipped[procs] = sum(len(samples) for _, _, samples in jobs)
            # no array either way: a job names scenes, classes and sketch paths, and a reply
            # holds one (score, l1, giou, total) record of floats per sample
            assert all(type(x) in (int, str) for x in leaves(jobs))
            assert all(len(record) == 4 for reply in replies for record in reply)
            assert all(type(x) is float for x in leaves(replies))
            assert [len(reply) for reply in replies] == [len(samples) for _, _, samples in jobs]
            assert training_digests(ckpt) == PINNED_TRAINING, procs
            assert not multiprocessing.active_children()  # terminated at the end of every epoch
        assert files[1] == files[2]
        # samples that ran in the worker, over 2 epochs of steps of 5, 5 and 2
        assert shipped == {1: 0, 2: 2 * (2 + 2 + 1)}

    def test_dataset_error_in_a_worker_reaches_the_caller(self, train_corpus, tmp_path, monkeypatch):
        ids = Dataset(train_corpus).scene_ids("train")
        rng = np.random.default_rng(derive_seed(5, "train"))
        broken = [ids[i] for i in rng.permutation(len(ids))][8]  # sample 8 of 12: the worker's
        original_load = Dataset.load_scene

        def load_scene(ds, sid):
            if sid == broken:
                raise DatasetError(f"scene {sid}: unreadable")
            return original_load(ds, sid)

        monkeypatch.setattr(Dataset, "load_scene", load_scene)
        monkeypatch.setattr(train_module, "_forks_worker", lambda n: True)
        cfg = tiny_train_config(train_corpus, batch_size=12)
        with pytest.raises(DatasetError) as e:
            train(cfg, str(tmp_path / "run"), log=lambda m: None)
        assert str(e.value) == f"scene {broken}: unreadable"
        assert e.value.__cause__ is None  # the parent reran the worker's half and raised itself

    def run_with_worker(self, corpus, tmp_path, monkeypatch):
        """The digests of a pinned 2-process run: batches of 5/5/2 over 2 epochs."""
        monkeypatch.setattr(train_module, "_forks_worker", lambda n: True)
        cfg = tiny_train_config(corpus, epochs=2, batch_size=5, protocol_mix=0.5)
        ckpt = train(cfg, str(tmp_path / "run"), log=lambda m: None)
        assert not multiprocessing.active_children()
        return training_digests(ckpt)

    def test_a_worker_that_dies_changes_no_byte(self, train_corpus, tmp_path, monkeypatch):
        # each epoch's worker exits in its first sample: the parent runs that half and the rest
        parent, original_load = os.getpid(), Dataset.load_scene

        def load_scene(ds, sid):
            if os.getpid() != parent:
                os._exit(1)
            return original_load(ds, sid)

        monkeypatch.setattr(Dataset, "load_scene", load_scene)
        assert self.run_with_worker(train_corpus, tmp_path, monkeypatch) == PINNED_TRAINING

    def test_an_exception_in_the_worker_alone_changes_no_byte(self, train_corpus, tmp_path,
                                                               monkeypatch):
        parent, original_load = os.getpid(), Dataset.load_scene

        def load_scene(ds, sid):
            if os.getpid() != parent:
                raise MemoryError("only in the worker")
            return original_load(ds, sid)

        monkeypatch.setattr(Dataset, "load_scene", load_scene)
        assert self.run_with_worker(train_corpus, tmp_path, monkeypatch) == PINNED_TRAINING

    @pytest.mark.parametrize("unread_job", [False, True])
    def test_a_killed_worker_changes_no_byte(self, train_corpus, tmp_path, monkeypatch, unread_job):
        # killed while idle, the worker leaves the parent's next job a closed pipe; killed
        # with its job unread, it leaves the parent's receive a reset connection
        killed = []

        def kill_worker():
            for proc in multiprocessing.active_children():
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(10)
                killed.append(proc.exitcode)

        class Killing:
            """The parent's end of the pipe, killing the worker around its epoch's first job."""

            def __init__(self, conn):
                self.conn = conn

            def send(self, job):
                if not unread_job:
                    kill_worker()
                self.conn.send(job)
                if unread_job:
                    kill_worker()

            def recv(self):
                return self.conn.recv()

        @contextlib.contextmanager
        def killing_worker(*args):
            with original_worker(*args) as conn:
                yield Killing(conn)

        original_worker = train_module._forked_worker
        monkeypatch.setattr(train_module, "_forked_worker", killing_worker)
        if unread_job:
            monkeypatch.setattr(train_module, "_worker", lambda *args: time.sleep(60))
        assert self.run_with_worker(train_corpus, tmp_path, monkeypatch) == PINNED_TRAINING
        assert killed == [-signal.SIGKILL] * 2  # one worker an epoch

    def test_a_worker_needs_two_samples_and_two_cpus(self, monkeypatch):
        single_threaded_blas(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert [train_module._forks_worker(n) for n in (1, 2, 8)] == [False, True, True]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert not train_module._forks_worker(8)

    @pytest.mark.parametrize("var", train_module.BLAS_THREAD_VARIABLES)
    @pytest.mark.parametrize("value", [None, "2", ""])
    def test_one_process_unless_blas_runs_one_thread(self, monkeypatch, var, value):
        # each process would start its own BLAS threads, and the CPUs would be oversubscribed
        single_threaded_blas(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert train_module._forks_worker(8)
        if value is None:
            monkeypatch.delenv(var)
        else:
            monkeypatch.setenv(var, value)
        assert not train_module._forks_worker(8)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
    def test_trains_in_a_pool_worker(self, train_corpus, tmp_path, monkeypatch):
        # a Pool worker is daemonic and may not start children: train runs there in one
        # process, with the same bytes, even where two CPUs would give it a worker
        single_threaded_blas(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = tiny_train_config(train_corpus, epochs=2, batch_size=5, protocol_mix=0.5)
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            ckpt = pool.apply(train, (cfg, str(tmp_path / "run")))
        finally:
            pool.terminate()
            pool.join()
        assert training_digests(ckpt) == PINNED_TRAINING
