#!/usr/bin/env python3
"""Benchmark of record for fcds-server.

Builds the release `fcds-server` binary and the `perfbench` load
generator from the checkout's sources, then runs one workload once:

    python3 perfbench/run.py --workload theta_ingest --seed 1 --seconds 20 --trace 0

The last line printed is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with `--trace 0`,
the per-layer ledger with `--trace 1`).

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --runs 5

runs every workload `--runs` times untraced (seeds seed, seed+1, ...),
prints each end-to-end metric with its unit, median, quartiles, spread
and sample count, then runs each workload once traced and prints its
per-layer ledger.

Run from the root of a checkout. Builds go to $CARGO_TARGET_DIR
(default `.bench_build`); scratch files go to `.perfbench_run/` and are
removed on exit.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading

WORKLOADS = ["theta_ingest", "fanin_query", "durable_mix"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def kill_group(proc):
    """Stops a child's whole process group and reaps the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "fcds-server"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build failed: {' '.join(cmd)}: {e}", 1)
        if r.returncode != 0:
            die(f"build failed: {' '.join(cmd)} exited {r.returncode}", 1)


def fingerprint(root):
    """rustc version and the commit (or, outside git, a source digest)."""
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True,
                               timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    if commit is None:
        h = hashlib.sha256()
        for top in ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"]:
            path = os.path.join(root, top)
            files = [path] if os.path.isfile(path) else sorted(
                os.path.join(d, f) for d, dirs, fs in os.walk(path)
                if "target" not in os.path.relpath(d, root).split(os.sep)
                for f in fs if f.endswith((".rs", ".toml", ".lock", ".py")))
            for f in files:
                h.update(os.path.relpath(f, root).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
        commit = "tree-sha256:" + h.hexdigest()[:16]
    return rustc, commit


def run_once(root, target, workload, seed, seconds, trace, meta, echo):
    """Runs the generator once; returns its final JSON object (or None)."""
    work = os.path.join(root, ".perfbench_run", f"{os.getpid()}-{workload}-{seed}-{trace}")
    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--server-bin", os.path.join(target, "release", "fcds-server"),
           "--work-dir", work, "--rustc", meta[0], "--commit", meta[1]]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = threading.Event()

    def expire():
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    timer = threading.Timer(RUN_TIMEOUT_S, expire)
    timer.start()
    last = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if echo or line.startswith(("  CHECK FAILED", "  error ")):
                print(line, flush=True)
            if line.strip():
                last = line
        proc.wait()
    finally:
        timer.cancel()
        kill_group(proc)
        shutil.rmtree(work, ignore_errors=True)
    if timed_out.is_set():
        print(f"perfbench: {workload} seed {seed} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or last is None:
        return None
    try:
        return json.loads(last)
    except json.JSONDecodeError:
        return None


def spread(values):
    """Interquartile range over median, as the acceptance rule takes it."""
    if len(values) < 2:
        return 0.0, values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf"), q1, q3


def run_all(root, target, args, meta, workloads):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    summary = {}
    ok = True
    for w in workloads:
        results = []
        for i in range(args.runs):
            r = run_once(root, target, w, args.seed + i, args.seconds, 0, meta, echo=False)
            if r is None or not r["correct"]:
                ok = False
                print(f"{w} seed {args.seed + i}: run failed or incorrect: {r}", flush=True)
                continue
            results.append(r)
        print(f"== {w}: {len(results)} untraced runs, seeds {args.seed}..{args.seed + args.runs - 1}")
        print(f"  {'metric':<20} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  runs")
        summary[w] = {}
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if not vals:
                continue
            s, q1, q3 = spread(vals)
            med = statistics.median(vals)
            flag = "" if name == "setup_s" or s <= m["bound"] else "  SPREAD > BOUND"
            print(f"  {name:<20} {m['unit']:<9} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{s:>8.4f} {m['bound']:>6}  {len(vals)}{flag}")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": s,
                                "runs": len(vals)}
        print(flush=True)
    traced = workloads if args.workload == "all" else []
    for w in traced:
        r = run_once(root, target, w, args.seed, args.seconds, 1, meta, echo=True)
        if r is None or not r["correct"]:
            ok = False
    attempted = len(workloads) * args.runs + len(traced)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": 0 if ok else 1,
                      "summary": summary}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--runs", type=int, default=None,
                   help="untraced runs per workload, summarised (default 5 with --workload all)")
    args = p.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    root = os.getcwd()
    for need in ["Cargo.toml", os.path.join("crates", "server", "Cargo.toml"),
                 os.path.join("perfbench", "Cargo.toml")]:
        if not os.path.isfile(os.path.join(root, need)):
            die(f"run from the root of a checkout: {need} not found")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(root, target)
    meta = fingerprint(root)
    try:
        if args.workload == "all" or (args.runs or 1) > 1:
            args.runs = args.runs or 5
            workloads = WORKLOADS if args.workload == "all" else [args.workload]
            sys.exit(run_all(root, target, args, meta, workloads))
        r = run_once(root, target, args.workload, args.seed, args.seconds, args.trace, meta,
                     echo=True)
        sys.exit(0 if r is not None else 1)
    finally:
        shutil.rmtree(os.path.join(root, ".perfbench_run"), ignore_errors=True)


if __name__ == "__main__":
    main()
