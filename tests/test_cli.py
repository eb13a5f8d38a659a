import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sgloc
from sgloc.cli import main
from sgloc.data import Dataset, read_pgm, read_ppm, write_pgm, write_ppm
from sgloc.train import BLAS_THREAD_VARIABLES, load_model, read_checkpoint, save_checkpoint
from test_train import empty_scenes


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data_dir = str(root / "corpus")
    code = main(
        [
            "gen-data", "--out", data_dir, "--seed", "7", "--unseen", "10,11",
            "--train", "10", "--val", "4", "--sketches-per-class", "6",
        ]
    )
    assert code == 0
    return root, data_dir


@pytest.fixture(scope="module")
def trained(workspace):
    root, data_dir = workspace
    run_dir = str(root / "run")
    code = main(
        [
            "train", "--dataset", data_dir, "--out", run_dir,
            "--d", "8", "--heads", "2", "--stages", "2", "--dec-layers", "1",
            "--num-tokens", "4", "--d-hidden", "16", "--sketch-layers", "1",
            "--epochs", "1", "--batch-size", "4", "--seed", "3",
        ]
    )
    assert code == 0
    return root, data_dir, os.path.join(run_dir, "last.sgl")


class TestGenData:
    def test_layout(self, workspace):
        _, data_dir = workspace
        ds = Dataset(data_dir)
        assert len(ds.scene_ids("train")) == 10
        assert len(ds.scene_ids("val")) == 4
        assert ds.config.unseen == (10, 11)
        assert len(ds.sketch_pool(0, "val")) == 2  # a third of the 6-sketch pool


class TestTrainEval:
    def test_checkpoint_written(self, trained):
        _, _, ckpt = trained
        assert os.path.exists(ckpt)
        assert Path(ckpt).read_bytes()[:4] == b"SGL1"

    def test_eval_emits_schema_json(self, trained, capsys):
        _, data_dir, ckpt = trained
        code = main(["eval", "--ckpt", ckpt, "--split", "val"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"map", "ap50", "ap_large", "per_class", "counts"}
        assert out["ap50"] >= out["map"]

    def test_eval_reports_its_speed_on_stderr_only(self, trained, capsys):
        _, data_dir, ckpt = trained
        outs = []
        for _ in range(2):
            assert main(["eval", "--ckpt", ckpt, "--split", "val"]) == 0
            captured = capsys.readouterr()
            outs.append(captured.out)
            counts = json.loads(captured.out)["counts"]
            assert re.fullmatch(
                rf"{counts['queries']} queries of {counts['scenes']} scenes in \d+\.\d\d s "
                r"\(\d+\.\d queries/s\)\n",
                captured.err,
            )
        assert outs[0] == outs[1]

    def test_eval_table(self, trained, capsys):
        _, data_dir, ckpt = trained
        code = main(["eval", "--ckpt", ckpt, "--split", "val", "--table", "--protocol", "5q"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("class") and "ALL" in out

    def test_localize_json(self, trained, capsys):
        _, data_dir, ckpt = trained
        scene = os.path.join(data_dir, "scenes/000000.ppm")
        sk = os.path.join(data_dir, "sketches/circle/0000.pgm")
        code = main(
            ["localize", "--ckpt", ckpt, "--scene", scene,
             "--sketch", sk, "--sketch", sk, "--threshold", "0.0"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out) == 4  # tiny model has 4 tokens
        assert set(out[0]) == {"box", "score"}
        assert all(0 <= v <= 1 for v in out[0]["box"])

    def test_localize_json_is_pinned_to_forward(self, trained, capsys):
        _, data_dir, ckpt = trained
        scene = os.path.join(data_dir, "scenes/000001.ppm")
        sketches = [os.path.join(data_dir, f"sketches/square/000{i}.pgm") for i in (0, 1)]
        model, _ = load_model(ckpt)
        s, b = (t.data for t in model.forward(read_ppm(scene), [read_pgm(p) for p in sketches]))
        threshold = float(np.median(s))
        keep = [i for i in sorted(range(len(s)), key=lambda i: (-s[i], i)) if s[i] >= threshold]
        want = [{"box": [round(float(v), 6) for v in b[i]], "score": round(float(s[i]), 6)} for i in keep]
        argv = ["localize", "--ckpt", ckpt, "--scene", scene, "--threshold", repr(threshold)]
        assert main(argv + [x for p in sketches for x in ("--sketch", p)]) == 0
        assert capsys.readouterr().out == json.dumps(want) + "\n"
        assert len(want) == 2  # the median of 4 distinct scores keeps the top two


class TestErrors:
    @pytest.mark.parametrize(
        "scene_side, sketch_side, expected",
        [(32, 64, "(64, 64, 3)"), (128, 64, "(64, 64, 3)"), (64, 32, "(64, 64)")],
    )
    def test_localize_rejects_wrong_size_raster(
        self, trained, tmp_path, capsys, scene_side, sketch_side, expected
    ):
        # the first sketch is well sized; the second is the one under test
        _, _, ckpt = trained
        scene, good, sketch = (str(tmp_path / name) for name in ("scene.ppm", "good.pgm", "sketch.pgm"))
        write_ppm(scene, np.full((scene_side, scene_side, 3), 0.5))
        write_pgm(good, np.zeros((64, 64)))
        write_pgm(sketch, np.zeros((sketch_side, sketch_side)))
        code = main(["localize", "--ckpt", ckpt, "--scene", scene, "--sketch", good, "--sketch", sketch])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        bad, got = (scene, (scene_side, scene_side, 3)) if scene_side != 64 else (sketch, (sketch_side, sketch_side))
        assert err == f"error: {bad}: raster shape {got}, the model needs {expected}\n"

    def test_localize_refuses_a_non_finite_checkpoint(self, trained, tmp_path, capsys):
        _, data_dir, ckpt = trained
        model, _ = load_model(ckpt)
        model.params["head.box.b3"].data[0] = np.nan
        bad = str(tmp_path / "nan.sgl")
        save_checkpoint(bad, model, read_checkpoint(ckpt)[0])
        scene = os.path.join(data_dir, "scenes", "000000.ppm")
        sketch = os.path.join(data_dir, "sketches", "circle", "0000.pgm")
        assert main(["localize", "--ckpt", bad, "--scene", scene, "--sketch", sketch, "--threshold", "0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {bad}: parameter 'head.box.b3' holds a non-finite value\n"

    @pytest.mark.parametrize(
        "blob, fault",
        [
            (b"d = 8\nbogus = 1\n", "config line 2: unknown key 'bogus'"),
            (b"d = 8\n\xff\n", "not UTF-8 text (byte 6: invalid start byte)"),
            (b"d = 8\nbeta1 = 0.5\n", "config line 2: beta1 is fixed at 0.9, got '0.5'"),
            (b"d = 8\nlam_cls = 50\n", "config line 2: lam_cls is fixed at 2.0, got '50'"),
        ],
        ids=["unknown-key", "not-utf8", "retired-key", "retired-loss-weight"],
    )
    def test_config_file_errors_name_the_file(self, tmp_path, capsys, blob, fault):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(blob)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {fault}\n"
        assert not os.path.exists(tmp_path / "o")

    def test_train_refuses_a_dataset_path_the_checkpoint_cannot_echo(self, workspace, tmp_path, capsys):
        _, data_dir = workspace
        dataset = data_dir + "#1"
        assert main(["train", "--dataset", dataset, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: config field dataset must hold no '#', no line break and no leading or "
            f"trailing whitespace, got {dataset!r}\n"
        )
        assert not os.path.exists(tmp_path / "o")

    def test_train_refuses_fewer_tokens_than_objects_of_one_class(self, workspace, tmp_path, capsys):
        _, data_dir = workspace
        ds = Dataset(data_dir)
        ids = ds.scene_ids("train")
        crowd = [max(map(ds.annotation(sid).classes.count, ds.annotation(sid).classes)) for sid in ids]
        assert max(crowd) >= 2
        out = tmp_path / "o"
        assert main(["train", "--dataset", data_dir, "--num-tokens", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: num_tokens 1 is below the {max(crowd)} objects of one class in train scene "
            f"{ids[crowd.index(max(crowd))]}\n"
        )
        assert not os.path.exists(out)

    def test_train_refuses_a_train_scene_without_objects(self, workspace, tmp_path, capsys):
        _, data_dir = workspace
        corpus = str(tmp_path / "corpus")
        shutil.copytree(data_dir, corpus)
        sid = Dataset(corpus).scene_ids("train")[2]
        empty_scenes(corpus, [sid])
        out = tmp_path / "o"
        assert main(["train", "--dataset", corpus, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: train scene {sid} holds no object to query\n"
        assert not os.path.exists(out)

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["train", "--no-such-flag", "x", "--out", "y"]) == 2

    def test_deleted_mode_flag_exits_2(self, tmp_path, capsys):
        assert main(["train", "--mode", "open", "--out", str(tmp_path / "o")]) == 2
        assert main(["gen-data", "--mode", "open", "--out", str(tmp_path / "c")]) == 2
        assert not os.path.exists(tmp_path / "c")

    @pytest.mark.parametrize("flag, value", [("--beta1", "0.9"), ("--beta2", "0.999"), ("--eps", "1e-8")])
    def test_deleted_adam_flag_exits_2(self, tmp_path, capsys, flag, value):
        # Adam's betas and eps are constants of `sgloc.train`, not settings
        assert main(["train", flag, value, "--out", str(tmp_path / "o")]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("flag, value", [("--lam-cls", "2"), ("--lam-l1", "5"), ("--lam-giou", "2")])
    def test_deleted_loss_weight_flag_exits_2(self, tmp_path, capsys, flag, value):
        # the loss weights are the constant `sgloc.matching.LOSS_WEIGHTS`, not settings
        assert main(["train", flag, value, "--out", str(tmp_path / "o")]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o")

    def test_unseen_ids_alone_hold_classes_out(self, tmp_path):
        out = str(tmp_path / "c")
        assert main(["gen-data", "--out", out, "--unseen", "3", "--train", "4", "--val", "2",
                     "--sketches-per-class", "3"]) == 0
        assert Dataset(out).config.unseen == (3,)

    def test_bad_boolean_flag_exits_2(self, tmp_path, capsys):
        assert main(["train", "--refinement", "maybe", "--out", str(tmp_path / "o")]) == 2
        assert "argument --refinement: not a boolean: 'maybe'" in capsys.readouterr().err

    def test_malformed_unseen_ids_exit_2(self, tmp_path, capsys):
        assert main(["gen-data", "--out", str(tmp_path / "c"), "--unseen", "10,x"]) == 2
        assert "not comma-separated class ids: '10,x'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [("--train", "n_train"), ("--val", "n_val")])
    def test_non_positive_scene_count_writes_nothing(self, tmp_path, capsys, flag, field):
        out = str(tmp_path / "c")
        assert main(["gen-data", "--out", out, flag, "-3"]) == 1
        assert capsys.readouterr().err == f"error: config field {field} must be positive, got -3\n"
        assert not os.path.exists(out)

    def test_gen_data_into_a_non_empty_directory_exits_1(self, tmp_path, capsys):
        out = tmp_path / "c"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        assert main(["gen-data", "--out", str(out), "--train", "4", "--val", "2"]) == 1
        assert capsys.readouterr().err == f"error: {out}: exists and is not an empty directory\n"
        assert os.listdir(out) == ["notes.txt"]

    def test_eval_on_malformed_split_is_named(self, trained, tmp_path, capsys):
        _, data_dir, ckpt = trained
        with open(os.path.join(data_dir, "split.json")) as f:
            split = json.load(f)
        del split["n_train"]
        with open(tmp_path / "split.json", "w") as f:
            json.dump(split, f)
        assert main(["eval", "--ckpt", ckpt, "--dataset", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'split.json'}: missing key 'n_train'\n"

    def test_missing_dataset_is_runtime_error(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "o")]) == 1

    def test_bad_checkpoint_path(self, tmp_path):
        assert main(["eval", "--ckpt", str(tmp_path / "none.sgl")]) == 1


def test_train_help_names_the_blas_variables_that_allow_a_worker(capsys):
    assert main(["train", "--help"]) == 0
    out = capsys.readouterr().out
    for var in BLAS_THREAD_VARIABLES:
        assert var in out, var


def test_gradcheck_cli(capsys):
    code = main(["gradcheck"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "end_to_end_loss" in out and "PASS" in out
    assert not [line for line in out.splitlines() if line.endswith("FAIL")], out


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(os.path.abspath(sgloc.__file__)))}
    done = subprocess.run([sys.executable, "-m", "sgloc", "--help"], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: sgloc") and "gen-data" in done.stdout
