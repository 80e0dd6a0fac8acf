#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perfbench` crate next to
this file (into $CARGO_TARGET_DIR, default `.bench_build`), then starts
one process per repetition of the workload with the given seed:

1. a warm-up repetition, which is not timed;
2. more repetitions until `--seconds` have passed (at least three);
3. one traced repetition.

It checks that every repetition gives the same sim-time numbers (the
simulator is deterministic, and tracing must not perturb it), that no
read-back check failed and that the trace checker found no violation.
Host-time numbers are the medians over the timed repetitions.

The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the `end_to_end` metrics of BENCHMARK.json, with `--trace 1`
the `per_layer` ones. A run whose checks fail prints `"correct": false`,
no metrics, and exits with code 1; a run that cannot build or run the
workload prints no result and exits with code 2.
"""

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("andrew", "shards_8x512", "sharing")
MIN_REPS = 3
# One repetition of the largest workload takes about a second, a traced
# one a few; anything near this limit is a hang.
REP_TIMEOUT_S = 120
# Host timings that appear in a repetition's `layer` group; they are
# medians like the other host numbers, not determinism-checked.
HOST_LAYER_PREFIX = "trace.host_ms_"
# Repetitions repeat their diagnostics; each line is shown once.
SEEN_STDERR = set()


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the benchmark binary and returns its path."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"cannot build the benchmark: {e}")
    if done.returncode != 0:
        fail("cannot build the benchmark")
    return ROOT / env["CARGO_TARGET_DIR"] / "release" / "perfbench"


def rep(binary, workload, seed, traced):
    """Runs one repetition in its own process; returns its JSON record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} ran longer than {REP_TIMEOUT_S} s")
    for line in done.stderr.splitlines():
        if line not in SEEN_STDERR:
            SEEN_STDERR.add(line)
            print(line, file=sys.stderr)
    if done.returncode != 0:
        fail(f"{workload} seed {seed} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def deterministic(record):
    """The numbers of a repetition that must not vary between runs."""
    out = dict(record["sim"])
    out.update((k, v) for k, v in record["layer"].items()
               if not k.startswith(HOST_LAYER_PREFIX))
    return out


def mismatches(reference, other, label):
    """Keys both records have whose values differ."""
    return [f"{label}: {k} is {other[k]!r}, not {reference[k]!r}"
            for k in sorted(reference.keys() & other.keys())
            if reference[k] != other[k]]


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "src",
             ROOT / "crates", ROOT / "vendor", HERE / "src",
             HERE / "Cargo.toml"]
    files = []
    for r in roots:
        if r.is_file():
            files.append(r)
        elif r.is_dir():
            files.extend(p for p in r.rglob("*")
                         if p.is_file() and "target" not in p.parts)
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, reps):
    """Where and how these numbers were measured."""
    commit = "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_reps": reps,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    binary = build()

    warm = rep(binary, args.workload, args.seed, False)
    timed = []
    deadline = time.monotonic() + args.seconds
    while len(timed) < MIN_REPS or time.monotonic() < deadline:
        timed.append(rep(binary, args.workload, args.seed, False))
    traced = rep(binary, args.workload, args.seed, True)

    errors = []
    for r in [warm, *timed, traced]:
        errors.extend(r["errors"])
    reference = deterministic(traced)
    for i, r in enumerate([warm, *timed]):
        errors.extend(mismatches(reference, deterministic(r),
                                 f"repetition {i} vs the traced one"))

    # Sim-time numbers: identical in every repetition. Andrew's op
    # latencies exist only in the traced one (from its profile).
    metrics = dict(reference)
    for key in timed[0]["host"]:
        metrics[key] = statistics.median(r["host"][key] for r in timed)
    for key in traced["layer"]:
        if key.startswith(HOST_LAYER_PREFIX):
            metrics[key] = traced["layer"][key]
    metrics["trace.overhead_pct"] = (
        traced["host"]["wall_s"] * 100.0 / metrics["wall_s"])

    attempted = traced["attempted"] * (len(timed) + 2)
    failed = traced["failed"] * (len(timed) + 2)
    print(json.dumps({"provenance": provenance(args, len(timed))}))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        errors.append(f"metrics not measured: {', '.join(missing)}")
    if errors:
        for e in errors[:20]:
            print(f"check failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": {}}))
        sys.exit(1)
    for m in wanted:
        print(f"{args.workload:>13} {m['name']:<28} {metrics[m['name']]:>16.6f}"
              f" {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
