#!/usr/bin/env python3
"""rwj benchmark: scan throughput, analyze latency and memory, plus a traced per-layer run.

One workload, one fresh process (what BENCHMARK.json's command runs):

    python3 perfbench/run.py --workload catalog8 --seed 1 --seconds 20 --trace 0

prints every metric by name with its unit and sample count, writes the full
result with its environment manifest under perfbench/.work/, and ends with one
JSON line {"correct", "attempted", "failed", "metrics"}. ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones. The exit code is
nonzero when a correctness gate fails or an input is missing or corrupt.

Every workload, untraced and then traced, each in its own process:

    python3 perfbench/run.py --seed 0 --out perfbench/results/<label>.json

The library under test is imported from src/ of the same checkout. BLAS runs
on one thread (set here, before numpy loads) and scans on one process.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOAD_NAMES = ("catalog8", "er-scan", "analyze-large", "two-node-grid")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0, help="length of the measured window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run giving the per-layer metrics (ignored with --workload all)")
    ap.add_argument("--out", type=Path, default=None, help="combined results file for --workload all")
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="rewrite BENCHMARK.json at the checkout root from the benchmark's tables and exit")
    return ap.parse_args(argv)


def result_path(workload: str, seed: int, trace: int) -> Path:
    return WORK / f"result-{workload}-seed{seed}-trace{trace}.json"


def run_one(args) -> int:
    if not (ROOT / "src" / "rwj" / "__init__.py").is_file():
        print(f"error: no rwj package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench  # imports numpy and rwj

    if not Path(bench.rwj.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: rwj was imported from {bench.rwj.__file__}, not from this checkout", file=sys.stderr)
        return 2

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(bench.benchmark_json(), indent=2) + "\n")
        return 0
    workload = bench.WORKLOADS[args.workload]()
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        result = bench.run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                    spans_path=WORK / f"spans-{args.workload}.npz")
    except bench.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result["environment"] = bench.environment(args.workload, args.seed, bool(args.trace), BLAS_THREADS)
    result_path(args.workload, args.seed, args.trace).write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {'on' if args.trace else 'off'}")
    for line in describe(result):
        print("  " + line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


def describe(result: dict) -> list[str]:
    """Human-readable lines: every metric by name, unit and sample count, then the gate."""
    lines = []
    for name, m in result["metrics"].items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        lines.append(f"{name:48s} {m['value']:.6g} {m['unit']}{samples}")
    extra = result["extra"]
    ff = extra["failed_frac"]
    lines.append(f"{'failed_frac':48s} {ff['value']:.6g} {ff['unit']}  (n={ff['samples']})")
    high = extra.get("analyze_s_high")
    if high:
        lines.append(f"{'analyze_s_p' + str(high['percentile']):48s} {high['value']:.6g} s  "
                     f"(n={high['samples']}, {high['beyond']} beyond, no bound)")
    for key, value in result["gate"]["info"].items():
        lines.append(f"{key:48s} {value}")
    for message in result["gate"]["messages"]:
        lines.append(f"GATE FAILED: {message}")
    return lines


def run_all(args) -> int:
    """Every workload in its own fresh process, untraced then traced; one combined file."""
    runs, ok = [], True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                ok = False
                print(f"  exit code {proc.returncode}")
            path = result_path(workload, args.seed, trace)
            if path.exists() and proc.returncode in (0, 1):
                runs.append(json.loads(path.read_text()))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds, "runs": runs}, indent=1) + "\n")
        print(f"results written to {args.out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" and not args.write_benchmark_json else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
