#!/usr/bin/env python3
"""The repository benchmark: three workloads, timed end to end and per layer.

Run from the repository root:

    python3 rtdcbench/run.py --workload paper-sim --seed 0 --seconds 20 --trace 0
    python3 rtdcbench/run.py --self-check     # tiny scale, all workloads, seconds
    python3 rtdcbench/run.py --pin            # re-pin rtdcbench/digests.json

The first run configures and builds rtdcbench/ (the simulator library
from src/ plus the rtdc_bench program) under .bench_build/. Each run then
starts rtdc_bench, which measures one workload for --seconds and reports
what it saw; this script checks the rows and prints the result as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones, and writes a Chrome trace (one track per worker
thread) to .bench_build/traces/.

Correctness: every row is hashed from its canonical encoding (no wall
times). All passes of a run must agree row for row. For the pinned
default seed the rows must also equal rtdcbench/digests.json, which
--pin records from a one-thread run; a mismatch names the first
diverging job. Any other seed is held out: it has no pin, so two passes
must agree instead.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cmake", "rtdc_bench")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = {"paper-sim": 1.0, "selective-build": 0.05, "serve-matrix": 0.05}
DEFAULT_SEED = 0
THREADS = 2
SELF_CHECK_SCALE = 0.02
RUN_LIMIT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then build (a no-op when nothing changed)."""
    makefile = os.path.join(BUILD, "cmake", "Makefile")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(makefile):
        steps.append(["cmake", "-S", HERE, "-B", os.path.join(BUILD, "cmake"),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", os.path.join(BUILD, "cmake"), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("benchmark build failed: " + " ".join(step))


def measure(workload, seed, seconds, traced, scale=None, passes=None,
            threads=THREADS, extra=(), deadline=None):
    """Run rtdc_bench once and return its parsed report."""
    # Relative to ROOT: the daemon's unix socket lives under it, and an
    # absolute checkout path could exceed the socket path limit.
    work = os.path.join(os.path.relpath(BUILD, ROOT), f"work-{os.getpid()}")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--threads", str(threads),
           "--work-dir", work]
    if traced:
        cmd += ["--traced", "--trace-out",
                os.path.join(BUILD, "traces", f"{workload}-seed{seed}.json")]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    if passes is not None:
        cmd += ["--passes", str(passes)]
    cmd += list(extra)
    timeout = None if deadline is None else max(1.0, deadline - time.time())
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"rtdc_bench failed on {workload} "
                         f"(exit {done.returncode})")
    return json.loads(lines[-1])


def row_digest(rows):
    text = "\n".join(f"{tag} {value}" for tag, value in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pin_key(workload, scale, seed):
    return f"{workload} scale={scale:g} seed={seed}"


def load_pins():
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as f:
        return json.load(f)


def check_rows(report, workload, scale, seed):
    """Return a list of correctness failures (empty when correct)."""
    problems = []
    if report["failed"]:
        problems.append(f"{report['failed']} of {report['attempted']} "
                        "rows failed")
    if not report["consistent"]:
        problems.append("passes disagree; first diverging job: "
                        + report["first_divergence"])
    pin = load_pins().get(pin_key(workload, scale, seed))
    if pin is not None:
        if row_digest(report["rows"]) != pin["digest"]:
            diverging = next((tag for (tag, value), pinned
                              in zip(report["rows"], pin["hashes"])
                              if value != pinned),
                             "(row count or order)")
            problems.append("digest mismatch against the pinned one-thread "
                            "run; first diverging job: " + diverging)
    elif report["passes_compared"] < 1:
        problems.append("held-out seed but fewer than two passes to compare")
    return problems


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    entries = spec["per_layer" if traced else "end_to_end"]
    return {e["name"]: e["unit"] for e in entries}


def schema_problems(report, traced):
    """The report's metrics must be exactly BENCHMARK.json's, units too."""
    expected = expected_metrics(traced)
    got = {k: v["unit"] for k, v in report["metrics"].items()}
    if got == expected:
        return []
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    units = sorted(k for k in set(got) & set(expected)
                   if got[k] != expected[k])
    return [f"metric schema differs: missing {missing}, extra {extra}, "
            f"unit mismatch {units}"]


def describe(report):
    """Host fingerprint, sample counts and per-metric lines on stderr."""
    log("host: " + json.dumps(report["host"]))
    for name, m in report["metrics"].items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        log(f"  {name:26s} {m['value']:.6g} {m['unit']}{samples}")
    if "reconcile" in report:
        log("reconcile: " + json.dumps(report["reconcile"]))


def run(args):
    build()
    start = time.time()
    scale = WORKLOADS[args.workload]
    traced = args.trace == 1
    report = measure(args.workload, args.seed, args.seconds, traced,
                     deadline=start + RUN_LIMIT_S)
    describe(report)
    problems = check_rows(report, args.workload, scale, args.seed)
    problems += schema_problems(report, traced)
    for problem in problems:
        log("INCORRECT: " + problem)
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in report["metrics"].items()}
    print(json.dumps({"host": report["host"],
                      "samples": {k: m["samples"]
                                  for k, m in report["metrics"].items()
                                  if "samples" in m}}))
    print(json.dumps({"correct": not problems,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 1 if problems else 0


def self_check():
    """One tiny-scale pass of each kind per workload, checked in full."""
    build()
    start = time.time()
    failures = 0
    quick = ["--setup-reps", "1", "--resubmits", "2", "--restarts", "1"]
    for workload in WORKLOADS:
        plain = measure(workload, DEFAULT_SEED, 0, False,
                        scale=SELF_CHECK_SCALE, passes=1, extra=quick)
        traced = measure(workload, DEFAULT_SEED, 0, True,
                         scale=SELF_CHECK_SCALE, passes=2, extra=quick)
        problems = schema_problems(plain, False) + schema_problems(traced, True)
        for report in (plain, traced):
            problems += check_rows(report, workload, SELF_CHECK_SCALE,
                                   DEFAULT_SEED)
        if pin_key(workload, SELF_CHECK_SCALE, DEFAULT_SEED) not in load_pins():
            problems.append("no pinned digest for the self-check scale")
        if traced["reconcile"]["unreconciled"]:
            problems.append("job spans do not reconcile: "
                            + json.dumps(traced["reconcile"]))
        status = "ok" if not problems else "FAILED"
        log(f"self-check {workload}: {status}")
        for problem in problems:
            log("  " + problem)
        failures += bool(problems)
    log(f"self-check finished in {time.time() - start:.1f}s")
    return 1 if failures else 0


def pin():
    """Record row digests from one-thread runs of the default seed."""
    build()
    pins = {}
    for workload, scale in WORKLOADS.items():
        for s in (scale, SELF_CHECK_SCALE):
            report = measure(workload, DEFAULT_SEED, 0, False, scale=s,
                             passes=1, threads=1,
                             extra=["--setup-reps", "1", "--resubmits", "1",
                                    "--restarts", "1"])
            if report["failed"] or not report["consistent"]:
                raise SystemExit(f"cannot pin {workload} at scale {s}: "
                                 "rows failed or disagree")
            pins[pin_key(workload, s, DEFAULT_SEED)] = {
                "digest": row_digest(report["rows"]),
                "threads": 1,
                "hashes": [value for _, value in report["rows"]],
            }
            log(f"pinned {pin_key(workload, s, DEFAULT_SEED)}")
    with open(DIGESTS, "w") as f:
        json.dump(pins, f, separators=(",", ":"))
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if args.pin:
        return pin()
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
