"""Turns the load generator's raw record into the benchmark's metrics.

Pure functions only, so test_metrics.py can cover them without a daemon.
The metric tables below are the single source of the names and units that
BENCHMARK.json lists; test_metrics.py checks the two agree.
"""

import math
import statistics
from collections import defaultdict

# End-to-end metrics (the untraced run): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics (the traced run): name -> unit.  Times are medians of
# span self times; see README.md for what each one times.
PER_LAYER = {
    "serve.request_ms": "ms",
    "serve.frame_ms": "ms",
    "serve.frame_kb": "KiB",
    "serve.wait_ms": "ms",
    "serve.covered_share": "ratio",
    "serve.retries_per_req": "count",
    "serve.faulted": "count",
    "serve.recovered": "count",
    "core.resilient_ms": "ms",
    "sim.launch_ms": "ms",
    "core.verify_ms": "ms",
    "core.attempts_per_req": "count",
    "core.build_ms": "ms",
    "core.format_mb": "MB",
    "tune.sweep_s": "s",
    "tune.evaluated": "count",
    "tune.skipped": "count",
    "cpu.spmv_ms": "ms",
    "cpu.apply_mb": "MB",
    "cpu.spmv_gbps": "GB/s",
    "solvers.iterations": "count",
    "solvers.solve_ms": "ms",
    "solvers.apply_share": "ratio",
    "solvers.vec_us_per_iter": "us",
    "cpu.stream_ms": "ms",
    "cpu.stream_gbps": "GB/s",
    "cpu.stream_vs_inmem": "ratio",
    "io.map_open_ms": "ms",
    "io.container_mb": "MB",
    "trace.overhead_frac": "ratio",
}

# The tail percentile of each workload, fixed: high, yet with at least
# MIN_BEYOND samples beyond it in every 40-s run even on a host running at
# half speed.  The higher the percentile, the more it moves with hypervisor
# steal: over ten serve-spmv runs with 0.7-4.7 % steal, p90 spread 0.08,
# p95 0.15 and p99 0.29 (quartile distance over the median).
TAIL_PERCENTILE = {"serve-spmv": 90.0, "solve-cg": 90.0}
MIN_BEYOND = 10

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def tail(values, pct):
    """Nearest-rank percentile `pct` of `values`.

    Returns (value, sample count, samples strictly beyond the rank) and
    raises ValueError when fewer than MIN_BEYOND samples lie beyond it: the
    percentile would then rest on too few observations to mean anything.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            "p%g of %d samples has %d beyond it (< %d)" % (pct, n, beyond, MIN_BEYOND)
        )
    return sorted(values)[rank - 1], n, beyond


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover.  Children may overlap each other (two clients'
    requests inside one batch) or stick out of the parent; the covered part
    is the union of the children's intervals clipped to the parent's.

    `spans` is a list of [name, start, end, parent_index, request_id];
    returns a list of self times in the spans' time unit.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        pieces = sorted(
            (max(start, spans[c][1]), min(end, spans[c][2])) for c in children[i]
        )
        covered, reach = 0, start
        for lo, hi in pieces:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def end_to_end(rec):
    """The end-to-end metrics of an untraced run's record."""
    lat = rec["latency_ms"]
    pct = TAIL_PERCENTILE[rec["workload"]]
    tail_ms, _, _ = tail(lat, pct)
    return {
        "setup_s": statistics.median(rec["setup_s"]),
        "req_per_s": rec["ok"] / rec["window_s"],
        "req_p50_ms": statistics.median(lat),
        "req_tail_ms": tail_ms,
        "peak_rss_mb": rec["peak_rss_kb"] / 1024.0,
    }


def per_layer(rec):
    """The per-layer metrics of a traced run's record."""
    spans = rec["spans"]
    selfs = self_times(spans)
    by_name = defaultdict(list)
    covered = []
    solves = []
    for span, own in zip(spans, selfs):
        name, start, end = span[0], span[1], span[2]
        by_name[name].append(own / 1e6)
        if name == "reenact.request":
            covered.append((end - start - own) / 1e6)
        elif name == "solvers.solve":
            solves.append(((end - start) / 1e6, own / 1e6))

    def med(name):
        return statistics.median(by_name[name])

    c = rec["counts"]
    request = med("serve.request")
    cover = statistics.median(covered)
    spmv = med("cpu.spmv")
    stream = med("cpu.stream")
    iters = c["solver_iterations"]
    if rec["engine_replies"]:
        attempts = rec["engine_attempts"] / rec["engine_replies"]
    else:
        attempts = statistics.mean(c["engine_attempts"])
    return {
        "serve.request_ms": request,
        "serve.frame_ms": med("serve.frame"),
        "serve.frame_kb": c["frame_bytes"] / 1024.0,
        "serve.wait_ms": request - cover,
        "serve.covered_share": cover / request,
        "serve.retries_per_req": rec["admission_retries"] / rec["attempted"],
        "serve.faulted": rec["stats_delta"]["faulted"],
        "serve.recovered": rec["stats_delta"]["recovered"],
        "core.resilient_ms": med("core.resilient"),
        "sim.launch_ms": med("sim.launch"),
        "core.verify_ms": med("core.verify"),
        "core.attempts_per_req": attempts,
        "core.build_ms": med("core.build"),
        "core.format_mb": c["format_bytes"] / 1e6,
        "tune.sweep_s": med("tune.sweep") / 1e3,
        "tune.evaluated": c["tune_evaluated"],
        "tune.skipped": c["tune_skipped"],
        "cpu.spmv_ms": spmv,
        "cpu.apply_mb": c["apply_bytes"] / 1e6,
        "cpu.spmv_gbps": c["apply_bytes"] / (spmv * 1e-3) / 1e9,
        "solvers.iterations": statistics.median(c["iterations"]),
        "solvers.solve_ms": statistics.median(own for _, own in solves),
        "solvers.apply_share": statistics.median((d - own) / d for d, own in solves),
        "solvers.vec_us_per_iter": statistics.median(
            own * 1e3 / max(1, n) for (_, own), n in zip(solves, iters)
        ),
        "cpu.stream_ms": stream,
        "cpu.stream_gbps": c["stream_bytes"] / (stream * 1e-3) / 1e9,
        "cpu.stream_vs_inmem": stream / spmv,
        "io.map_open_ms": med("io.map_open"),
        "io.container_mb": c["container_bytes"] / 1e6,
        # What the re-enactment pauses cost the requests that follow them.
        "trace.overhead_frac": statistics.median(rec["after_pause_ms"])
        / statistics.median(rec["latency_ms"])
        - 1.0,
    }


def failures(rec):
    """Operations that failed: wrong replies, refusals and typed errors in
    the measured window and the warm-up, and re-enacted outputs the oracle
    rejected."""
    return (
        rec["wrong"]
        + rec["refused"]
        + rec["typed_errors"]
        + rec["warmup_failed"]
        + rec.get("counts", {}).get("reenact_wrong", 0)
    )


def result(rec, ok):
    """The benchmark's result object for one run."""
    values = per_layer(rec) if rec["trace"] else end_to_end(rec)
    units = PER_LAYER if rec["trace"] else END_TO_END
    failed = failures(rec)
    return {
        "correct": bool(ok and failed == 0 and rec["daemon_clean_exits"]),
        "attempted": rec["attempted"] + rec["warmup_attempted"],
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def check_result(res, trace):
    """Raises ValueError unless `res` has exactly the contract's shape."""
    if tuple(sorted(res)) != tuple(sorted(RESULT_KEYS)):
        raise ValueError("result keys %s" % sorted(res))
    if not isinstance(res["correct"], bool):
        raise ValueError("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool):
            raise ValueError("%s must be an int" % key)
    if res["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    units = PER_LAYER if trace else END_TO_END
    if set(res["metrics"]) != set(units):
        raise ValueError("metric names %s" % sorted(res["metrics"]))
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != units[name]:
            raise ValueError("metric %s is %s" % (name, m))
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError("metric %s has value %r" % (name, v))
