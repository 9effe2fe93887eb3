"""Benchmark of extflow: one workload, one seed, one run.

    python3 extbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``. The process pins BLAS to one thread, times the set-up in a few
fresh probe processes, then runs whole rounds of the workload's jobs
through ``extflow.cli.main`` in a closed loop (one client, the next job
starts when the last one ends) until S seconds have passed, and checks
every job's output against ``oracles``. Times are in reference seconds
(see ``calibrate``). The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Full results go to ``extbench/results/``.
"""

import os

# one BLAS thread: set before numpy is imported, inherited by the probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
PROBES = 5
PROBE_TIMEOUT_S = 120
P90_MIN_ROUNDS = 40

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


class BenchError(Exception):
    pass


def load_program(workload: str):
    """Import extflow from this checkout's src/ and do the workload's set-up."""
    if not (SRC / "extflow" / "cli.py").is_file():
        raise BenchError(f"no extflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = workloads.warm(workload)
    if Path(cli.__file__).resolve().parent != (SRC / "extflow").resolve():
        raise BenchError(f"extflow was imported from {cli.__file__}, not {SRC}")
    return cli


def probe_setup(workload: str) -> list:
    probes = []
    for _ in range(PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload], cwd=ROOT,
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


def call_cli(cli, argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("cli.main") if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        if tracer:
            tracer.close(span)
    return code, out.getvalue(), err.getvalue()


def check_job(job, code, stdout, stderr):
    verdict = workloads.Verdict()
    if code != 0:
        verdict.problems.append(f"exit {code}: {stderr.strip()[-300:]}")
        return verdict
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        verdict.problems.append(f"unreadable output: {exc}")
        return verdict
    verdict.require(payload.get("pass") is True, "the program's own checks failed")
    try:
        job.check(payload, verdict)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        verdict.problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return verdict


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(args) -> dict:
    workload_cls = workloads.WORKLOADS[args.workload]
    cli = load_program(args.workload)
    probes = probe_setup(args.workload)
    workload = workload_cls(args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    cal = calibrate.Calibrator()
    rounds = []
    attempted = failed = 0
    unexpected = []
    cal.start_ticking()
    try:
        deadline = time.perf_counter() + args.seconds
        while True:
            r = len(rounds)
            jobs = workload.round_jobs(r)
            if tracer:
                tracer.round_id = r

            works = [lambda job=job: call_cli(cli, job.argv, tracer) for job in jobs]
            outputs, raw, net, ref, parts = cal.measure(works, workload.kernel_shares)
            if tracer:
                tracer.round_id = -1
            errors = []
            for job, output in zip(jobs, outputs):
                verdict = check_job(job, *output)
                errors += verdict.errors
                attempted += 1
                if verdict.problems:
                    failed += 1
                    if not job.known_fault:
                        unexpected.append({"round": r, "argv": job.argv,
                                           "problems": verdict.problems[:5]})
            rounds.append({"raw_s": raw, "net_s": net, "parts": parts, "ref_s": ref,
                           "digits": statistics.fmean(map(oracles.digits, errors))})
            if time.perf_counter() >= deadline:
                break
    finally:
        cal.stop_ticking()
        if tracer:
            tracer.uninstall()

    ref = [r["ref_s"] for r in rounds]
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "attempted": attempted, "failed": failed,
        "unexpected_failures": unexpected,
        "setup_s": statistics.median(p["ref_s"] for p in probes),
        "setup_raw_s": statistics.median(p["raw_s"] for p in probes),
        "round_s.p50": statistics.median(ref),
        "round_raw_s.p50": statistics.median(r["raw_s"] for r in rounds),
        "round_s.p90": percentile(ref, 90) if len(ref) >= P90_MIN_ROUNDS else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_digits": statistics.median(r["digits"] for r in rounds),
        "probes": probes, "round_log": rounds,
    }
    if tracer:
        factors = [r["ref_s"] / r["net_s"] for r in rounds]
        summary["per_layer"] = tracer.per_layer(len(rounds), factors,
                                                cal.kernel_time_inside)
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"{args.workload}-spans.jsonl")
    return summary


END_TO_END = (("setup_s", "s"), ("round_s.p50", "s"), ("peak_rss_mb", "MiB"),
              ("oracle_digits", "digits"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        summary = run(args)
    except (BenchError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")

    p90 = summary["round_s.p90"]
    print(f"{args.workload} seed {args.seed}: {summary['rounds']} rounds, "
          f"round_s.p50 {summary['round_s.p50']:.4f} ref s "
          f"(raw {summary['round_raw_s.p50']:.4f} s)"
          + (f", p90 {p90:.4f}" if p90 is not None else "")
          + f", setup {summary['setup_s']:.4f} ref s (raw {summary['setup_raw_s']:.4f} s), "
          f"{summary['failed']}/{summary['attempted']} failed", file=sys.stderr)
    for item in summary["unexpected_failures"][:5]:
        print(f"  unexpected failure: {item}", file=sys.stderr)

    if args.trace:
        metrics = summary["per_layer"]
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": not summary["unexpected_failures"],
                      "attempted": summary["attempted"], "failed": summary["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
