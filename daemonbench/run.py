#!/usr/bin/env python3
"""Daemon benchmark: builds yaspmv-serve and the load generator from the
checkout's sources, runs one workload, prints its metrics.

    python3 daemonbench/run.py --workload serve-spmv --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout.  The build lives in .bench_build/ (the
first run configures and compiles; later runs only check it is current).
Every metric is printed by name and unit, then the last line of stdout is
the JSON result {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 only when every reply was correct; a failed build or run exits
nonzero without a result.  See daemonbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "daemonbench")
LOADGEN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once (until a configure succeeds), then brings loadgen and
    yaspmv-serve up to date."""
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(
            [
                "cmake",
                "-S",
                HERE,
                "-B",
                BUILD_DIR,
                "-G",
                "Unix Makefiles",
            ],
            check=True,
            stdout=sys.stderr,
        )
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "loadgen", "yaspmv-serve"],
        check=True,
        stdout=sys.stderr,
    )
    return (
        os.path.join(BUILD_DIR, "loadgen"),
        os.path.join(BUILD_DIR, "yaspmv", "tools", "yaspmv-serve"),
    )


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_loadgen(cmd):
    """Runs the load generator in its own process group, so that on a
    timeout SIGTERM lets it stop its daemon, and a last SIGKILL reaches the
    daemon too.  Returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=LOADGEN_TIMEOUT_S)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        log("run.py: load generator timed out; stopping it")
        proc.send_signal(signal.SIGTERM)
        try:
            out, _ = proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
        return 124, out


def report(rec, res):
    """Human-readable lines before the result line."""
    host = dict(rec["host"], commit=commit())
    log("host: " + json.dumps(host))
    print("workload %s seed %d trace %d" % (rec["workload"], rec["seed"], rec["trace"]))
    print("host: %s" % json.dumps(host))
    print("drift marker loop: %.4f s (host speed just before the window)" % rec["drift_loop_s"])
    print("hypervisor steal during the window: %.4f of CPU time" % rec["steal_share"])
    print(
        "daemon page faults during the window: %d minor, %d major"
        % (rec["daemon_minor_faults"], rec["daemon_major_faults"])
    )
    print(
        "measured operations: %d attempted, %d ok, %d wrong, %d refused, %d typed errors"
        % (rec["attempted"], rec["ok"], rec["wrong"], rec["refused"], rec["typed_errors"])
    )
    print(
        "with the warm-up: %d attempted, %d failed (failed also counts re-enacted "
        "outputs the oracle rejected); "
        "failure share %.6f" % (res["attempted"], res["failed"], res["failed"] / res["attempted"])
    )
    print("daemon stats delta: %s" % json.dumps(rec["stats_delta"]))
    if rec["first_error"]:
        print("first error: %s" % rec["first_error"])
    if not rec["trace"]:
        pct = metrics.TAIL_PERCENTILE[rec["workload"]]
        _, n, beyond = metrics.tail(rec["latency_ms"], pct)
        print("req_tail_ms is p%g of %d samples, %d beyond it" % (pct, n, beyond))
        print("setup_s runs: %s" % ", ".join("%.4f" % s for s in rec["setup_s"]))
    else:
        c = rec["counts"]
        print("tuner plan matches the daemon's cached plan: %s" % c["plan_matches_cache"])
        m = res["metrics"]
        print(
            "re-enacted layers cover %.3f of serve.request_ms; serve.wait_ms %+.4f ms"
            % (m["serve.covered_share"]["value"], m["serve.wait_ms"]["value"])
        )
        if rec["daemon_iterations"]:
            print(
                "daemon iterations %s; in-process %s"
                % (sorted(set(rec["daemon_iterations"])), sorted(set(c["solver_iterations"])))
            )
    for name, m in res["metrics"].items():
        print("%-26s %14.6f %s" % (name, m["value"], m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(metrics.TAIL_PERCENTILE))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        loadgen, serve = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("run.py: build failed: %s" % e)
        return 2

    run_dir = os.path.join(
        ".bench_build", "runs", "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    )
    if os.path.exists(run_dir):
        log("run.py: leftover run directory %s; refusing to reuse it" % run_dir)
        return 2
    cmd = [
        loadgen,
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--serve-bin=" + serve,
        "--run-dir=" + run_dir,
    ]
    try:
        code, out = run_loadgen(cmd)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if not lines:
        log("run.py: load generator exited %d without a record" % code)
        return 1
    rec = json.loads(lines[-1])
    try:
        res = metrics.result(rec, code == 0)
        metrics.check_result(res, args.trace == 1)
    except ValueError as e:  # e.g. a run too short for its tail percentile
        log("run.py: no valid result: %s" % e)
        return 1
    report(rec, res)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
