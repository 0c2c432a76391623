#!/usr/bin/env python3
"""Builds and runs the stack benchmark (see README.md).

One run:
    python3 perfbench/run.py --workload fig5_sparse --seed 1 --seconds 10 --trace 0

prints the benchmark's diagnostics on stderr and, as the last line of stdout,
one JSON object with "correct", "attempted", "failed" and "metrics".

Repeat mode runs one workload on several consecutive seeds and prints each
metric's median, quartiles and spread next to its bound in BENCHMARK.json:
    python3 perfbench/run.py --workload fig5_dense --seed 1 --seconds 10 --repeat 10

Run from the repository root. The executable is built from source with CMake
into .bench_build/perfbench the first time (Release, against the libraries
under src/); later runs rebuild only what changed.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
EXE = BUILD / "nsc_perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "nsc_perfbench", "--parallel", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_once(workload, seed, seconds, trace):
    """Runs the executable once; returns (exit code, its stdout)."""
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return p.returncode, p.stdout


def repeat(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values, shares = {}, []
    for i in range(args.repeat):
        seed = args.seed + i
        code, out = run_once(args.workload, seed, args.seconds, args.trace)
        if code != 0 or not out.strip():
            fail(f"seed {seed}: exit code {code}")
        res = json.loads(out.strip().splitlines()[-1])
        shares.append((res["failed"], res["attempted"], res["correct"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " +
              " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
              file=sys.stderr)

    print(f"{args.workload}: {args.repeat} runs of {args.seconds} s, seeds "
          f"{args.seed}..{args.seed + args.repeat - 1}, trace={args.trace}")
    print(f"{'metric':42s} {'unit':>16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, (unit, vals) in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name) if args.trace == 0 else None
        mark = ""
        if bound is not None:
            mark = "  ok" if spread <= bound / 3 else ("  WIDE" if spread <= bound else "  OVER")
        print(f"{name:42s} {unit:>16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}{mark}")
    fractions = {f / a for f, a, _ in shares}
    print(f"failed share: {sorted(fractions)} ({'same' if len(fractions) == 1 else 'DIFFERS'} "
          f"across runs); correct: {all(c for _, _, c in shares)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run this many consecutive seeds and print the spread per metric")
    args = ap.parse_args()
    build()
    if args.repeat > 0:
        repeat(args)
        return 0
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
