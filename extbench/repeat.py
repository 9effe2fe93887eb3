"""Run workloads several times, one seed per run, and summarise.

    python3 extbench/repeat.py --workload fall-to-center --runs 5
    python3 extbench/repeat.py --workload all --runs 10 --first-seed 101
    python3 extbench/repeat.py --workload flow-sweep --runs 3 --trace

For each end-to-end metric it prints the median, the quartiles and the
spread (q3 - q1)/median next to the metric's bound from BENCHMARK.json, as
well as the raw wall-clock medians and the failed share of every run. With
``--trace`` each seed is run untraced and traced; it prints the per-layer
medians and the tracing overhead, traced round_s.p50 over untraced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"run failed with exit {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail


def summarise(workload, runs, bench, raw):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"\n== {workload}: {len(runs)} runs ==")
    print(f"{'metric':<16}{'unit':<8}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}{'spread/bound':>14}")
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med
        print(f"{name:<16}{unit:<8}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{spread:>9.2%}{bounds[name]:>8.2f}{spread / bounds[name]:>14.2f}")
    for key in ("round_raw_s.p50", "setup_raw_s"):
        q1, med, q3 = quartiles([d[key] for d in raw])
        print(f"{key:<24} median {med:.5g} s, spread {(q3 - q1) / med:.2%}")
    print("rounds per run:", [d["rounds"] for d in raw])
    shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
    print("failed share:", ", ".join(str(s) for s in sorted(shares)),
          "(identical in every run)" if len(shares) == 1 else "(DIFFERS between runs)")
    if not all(r["correct"] for r in runs):
        print("INCORRECT output in at least one run")


def summarise_trace(workload, plain, traced):
    print(f"\n== {workload}: per-layer medians over {len(traced)} traced runs ==")
    for name, entry in traced[0][0]["metrics"].items():
        value = statistics.median(r[0]["metrics"][name]["value"] for r in traced)
        print(f"{name:<40}{value:>14.6g} {entry['unit']}")
    untraced = statistics.median(d["round_s.p50"] for _, d in plain)
    with_trace = statistics.median(d["round_s.p50"] for _, d in traced)
    print(f"tracing overhead: traced round_s.p50 / untraced = "
          f"{with_trace:.4g} / {untraced:.4g} = {with_trace / untraced:.3f}")


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True,
                        help=f"'all' or some of {names}")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    chosen = names if args.workload == ["all"] else args.workload
    for workload in chosen:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        plain = [run_once(workload, s, args.seconds, 0) for s in seeds]
        summarise(workload, [r for r, _ in plain], bench, [d for _, d in plain])
        if args.trace:
            traced = [run_once(workload, s, args.seconds, 1) for s in seeds]
            summarise_trace(workload, plain, traced)


if __name__ == "__main__":
    main()
