"""Run one sgloc benchmark workload and print its result as JSON.

    python3 bench/run.py --workload train-5q --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer ones with `--trace 1`. The lines before it
describe the environment and the metrics in readable form. The full record
of the run goes to `.bench_work/results/`, and with `--trace 1` the spans go
to `.bench_work/traces/`. `--workload all` runs each workload in a process
of its own, one after another, and prints one table.

Workloads and metrics are described in `workloads.py`. Exit status is 0
when a result was printed (its `correct` says whether the checks passed)
and non-zero when there was nothing to measure.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported: the load comes from a
# single caller, so the numbers measure the program, not the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


def _import_program():
    """Import sgloc from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import sgloc
    except ImportError as e:
        sys.exit(f"bench: cannot import sgloc from {SRC}: {e}")
    where = os.path.dirname(os.path.abspath(sgloc.__file__))
    if where != os.path.join(SRC, "sgloc"):
        sys.exit(f"bench: sgloc was imported from {where}, not from {SRC}")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _print_table(rows, attempted, failed, correct):
    """rows: (workload, metric, value, unit)."""
    widths = [max(len(str(r[i])) for r in rows) for i in range(2)]
    for wl, name, value, unit in rows:
        print(f"{wl:<{widths[0]}}  {name:<{widths[1]}}  {value:>14.6g} {unit}")
    print(f"ops attempted {attempted}, failed {failed}, outputs correct: {correct}")


def run_one(args) -> int:
    import workloads as W

    if args.workload not in W.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)} or all")
    env = W.environment(ROOT)
    scratch = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        run, tracer, values = W.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    except W.BenchError as e:
        sys.exit(f"bench: {e}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", tag + ".json"), "w") as f:
        json.dump(W.run_record(run, env, W.Scale(), values), f, indent=1)
    if tracer is not None:
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        tracer.write(os.path.join(WORK, "traces", tag + ".jsonl"))

    result = W.result_line(run, values)
    for why in run.problems:
        print(f"check failed: {why}")
    rows = [(args.workload, k, v, u) for k, (v, u) in values.items()]
    _print_table(rows, result["attempted"], result["failed"], result["correct"])
    print(json.dumps({"environment": env, "seed": args.seed, "passes": len(run.passes)}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's."""
    import workloads as W

    rows, metrics, summary = [], {}, []
    attempted = failed = 0
    correct = True
    for name in W.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with status {proc.returncode}")
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["correct"]
        summary.append(f"{name}: ops attempted {res['attempted']}, failed {res['failed']}, "
                       f"outputs correct: {res['correct']}")
        for k, m in res["metrics"].items():
            rows.append((name, k, m["value"], m["unit"]))
            metrics[f"{name}.{k}"] = m
    print(lines[-2])  # the environment, the same for every workload
    print("\n".join(summary))
    _print_table(rows, attempted, failed, correct)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
