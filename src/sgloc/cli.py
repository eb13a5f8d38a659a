"""Command-line surface: gen-data, train, eval, localize, gradcheck."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields

from .data import SCENE_SHAPE, SKETCH_SHAPE, DataConfig, Dataset, generate_dataset
from .data import read_pgm, read_ppm, read_raster
from .metrics import evaluate_queries
from .train import BLAS_THREAD_VARIABLES, TrainConfig, load_model, parse_value, train


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sgloc", description="Sketch-guided object localization")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic corpus")
    g.add_argument("--out", required=True)
    dc = DataConfig()
    g.add_argument("--seed", type=int, default=dc.seed)
    g.add_argument("--train", type=int, default=dc.n_train, dest="n_train")
    g.add_argument("--val", type=int, default=dc.n_val, dest="n_val")
    g.add_argument("--unseen", type=_parse_ids, default=dc.unseen,
                   help="comma-separated class ids held out of training; none: closed world")
    g.add_argument("--sketches-per-class", type=int, default=dc.sketches_per_class)
    g.add_argument("--val-sketches-per-class", type=int, default=dc.val_sketches_per_class,
                   help="defaults to a third of the pool, at least 2")

    t = sub.add_parser(
        "train", help="train a model",
        description="Train a model. Each step runs the second half of its batch in a forked worker on a "
                    "second CPU only when each of " + ", ".join(BLAS_THREAD_VARIABLES) + " is set to 1; "
                    "otherwise one process runs both halves. The checkpoint bytes are the same either way.",
    )
    t.add_argument("--config", help="flat key = value config file")
    t.add_argument("--out", required=True)
    for f in fields(TrainConfig):
        t.add_argument("--" + f.name.replace("_", "-"), type=_config_value(f.type), default=None,
                       metavar=f.type.upper())

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--split", choices=["train", "val"], default="val")
    e.add_argument("--protocol", choices=["1q", "5q", "1Q", "5Q"], default="1q")
    e.add_argument("--dataset", help="override the dataset path stored in the checkpoint")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--table", action="store_true", help="print an aligned text table instead of JSON")

    l = sub.add_parser("localize", help="localize sketched objects in one scene")
    l.add_argument("--ckpt", required=True)
    l.add_argument("--scene", required=True)
    l.add_argument("--sketch", action="append", required=True, help="repeatable for multi-query")
    l.add_argument("--threshold", type=float, default=0.5)

    sub.add_parser("gradcheck", help="finite-difference verification at f64")
    return p


def _config_value(typ: str):
    """A flag parser for a TrainConfig field of type `typ`: the one that
    config files use, with its error message kept."""
    def parse(s: str):
        try:
            return parse_value(s, typ)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return parse


def _parse_ids(s: str) -> tuple:
    try:
        return tuple(int(x) for x in s.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated class ids: {s!r}") from None


def _cmd_gen_data(args) -> int:
    cfg = DataConfig(**{f.name: getattr(args, f.name) for f in fields(DataConfig)})
    generate_dataset(cfg, args.out)
    print(f"wrote {cfg.n_train + cfg.n_val} scenes to {args.out}", file=sys.stderr)
    return 0


def _cmd_train(args) -> int:
    cfg = TrainConfig.from_file(args.config) if args.config else TrainConfig()
    for f in fields(TrainConfig):
        override = getattr(args, f.name, None)
        if override is not None:
            setattr(cfg, f.name, override)
    if not cfg.dataset:
        raise ValueError("no dataset given (use --dataset or a config file)")
    ckpt = train(cfg, args.out)
    print(ckpt)
    return 0


def _cmd_eval(args) -> int:
    model, cfg = load_model(args.ckpt)
    dataset = Dataset(args.dataset or cfg.dataset)
    t0 = time.perf_counter()
    report = evaluate_queries(model, dataset, protocol=args.protocol.upper(), subset=args.split, seed=args.seed)
    wall = time.perf_counter() - t0
    if args.table:
        print(report.to_table())
    else:
        print(report.to_json())
    n = report.counts["queries"]
    print(f"{n} queries of {report.counts['scenes']} scenes in {wall:.2f} s ({n / wall:.1f} queries/s)",
          file=sys.stderr)
    return 0


def _cmd_localize(args) -> int:
    model, _ = load_model(args.ckpt)
    scene = read_raster(read_ppm, args.scene, SCENE_SHAPE, "the model")
    sketches = [read_raster(read_pgm, s, SKETCH_SHAPE, "the model") for s in args.sketch]
    dets = model.localize(scene, sketches, threshold=args.threshold).detections
    out = [{"box": [round(float(v), 6) for v in box], "score": round(float(score), 6)}
           for box, score in zip(dets["box"], dets["score"])]
    print(json.dumps(out))
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradcheck import TOLERANCE, run_all

    ok, rows = run_all()
    for name, err, good in rows:
        print(f"{name:28s} {err:.3e}  {'ok' if good else 'FAIL'}")
    print(f"{'PASS' if ok else 'FAIL'} (tolerance {TOLERANCE:g})")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    handlers = {
        "gen-data": _cmd_gen_data,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "localize": _cmd_localize,
        "gradcheck": _cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
