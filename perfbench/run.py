#!/usr/bin/env python3
"""The metro-day benchmark.

Runs one workload for about --seconds of wall time and prints, as the last
line of stdout, one JSON object:

    {"correct": true, "attempted": <days>, "failed": 0,
     "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

With --trace 0 the metrics are the end-to-end ones, from the timed binary.
With --trace 1 they are the per-layer ones, from one day of the traced
binary (plus untraced days of the same seed, for the tracing overhead).

Each day is a fresh process of perfbench's own C++ driver (metro_day.cpp),
built here from the simulator sources under src/. Days take their seeds
from --seed, so the same seed gives the same days. Any failed output check
fails the run: it exits non-zero and prints no result.

    python3 perfbench/run.py --workload udp_day --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Sizes are fixed per workload so every commit simulates the same days.
WORKLOADS = {
    "udp_day": {
        "why": "psim::run_day, 5k homes, 140 s day, 1 worker, chaos on, seed "
               "from --seed: link service, delivery, scheduler and packet "
               "pool; no TCP, no barrier handoff",
        "homes": 5_000, "day_s": 140, "workers": 1, "rate": 0.05,
    },
    "tcp_day": {
        "why": "psim::run_tcp_day, 5k homes, 60 s day, 0.1 req/s/home, 2 "
               "workers, chaos and MPTCP slice on, seed from --seed: barrier, "
               "epochs, TCP/MPTCP endpoints",
        "homes": 5_000, "day_s": 60, "workers": 2, "rate": 0.1,
    },
    "nocdn_day": {
        "why": "serial MetroDriver, 1k homes, 60 s day, NoCDN peers, attic, "
               "sharded directory, crowds, outages, seed from --seed: "
               "HTTP/NoCDN/directory/WAL; no psim engine",
        "homes": 1_000, "day_s": 60, "workers": 1, "rate": 0.05,
    },
}

# Tiny sizes for --self-test: enough PoPs for the psim chaos (3), enough
# traffic (rate x day >= 6) that the cut DSLAM always sends some, enough
# browsing DSLAMs for the NoCDN outages.
SMOKE_SIZES = {
    "udp_day": {"homes": 1_100, "day_s": 10, "rate": 0.6},
    "tcp_day": {"homes": 1_100, "day_s": 10, "rate": 0.6},
    "nocdn_day": {"homes": 600, "day_s": 20},
}

# name, unit, better, bound (share of the parent's median).
END_TO_END = [
    ("sim_s_per_wall_s", "s/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("cpu_s_per_sim_s", "s/s", "lower", 0.25),
    ("peak_bytes_per_home", "B", "lower", 0.1),
    ("fail_share", "ratio", "lower", 0.25),
]

# The layer -> metric -> workload map: each layer's per-layer metrics
# (name, unit, better) and the end-to-end metric they should move.
LAYERS = [
    ("psim engine",
     "sim_s_per_wall_s and cpu_s_per_sim_s on tcp_day; no change on nocdn_day",
     [("psim.epochs", "count", "lower"),
      ("psim.crossings", "count", "lower"),
      ("psim.spilled", "count", "lower"),
      ("psim.wall_per_epoch_us", "us", "lower"),
      ("psim.cpu_util", "ratio", "lower"),
      ("psim.speedup_vs_1w", "x", "higher")]),
    ("psim barrier probe",
     "sim_s_per_wall_s on tcp_day; no change on udp_day at 1 worker",
     [("psim.epoch_overhead_us.w1", "us", "lower"),
      ("psim.epoch_overhead_us.w1.samples", "count", "higher"),
      ("psim.epoch_overhead_us.w2", "us", "lower"),
      ("psim.epoch_overhead_us.w2.samples", "count", "higher"),
      ("psim.epoch_overhead_us.w4", "us", "lower"),
      ("psim.epoch_overhead_us.w4.samples", "count", "higher"),
      ("psim.barrier_est_share", "ratio", "lower")]),
    ("sim scheduler",
     "sim_s_per_wall_s on udp_day first, then the others",
     [("sim.events", "count", "lower"),
      ("sim.events_per_wall_s", "1/s", "higher"),
      ("sim.allocs_per_event", "count", "lower")]),
    ("net links",
     "sim_s_per_wall_s on udp_day",
     [("net.link.tx_pkts", "count", "lower"),
      ("net.link.tx_bytes", "B", "lower"),
      ("net.link.queue_drops", "count", "lower"),
      ("net.link.loss_drops", "count", "lower"),
      ("net.link.admin_drops", "count", "lower"),
      ("net.bytes_per_pkt", "B", "higher")]),
    ("transport",
     "sim_s_per_wall_s on tcp_day and nocdn_day, peak_bytes_per_home on "
     "tcp_day; no change on udp_day",
     [("tcp.connections", "count", "lower"),
      ("tcp.retransmits", "count", "lower"),
      ("tcp.timeouts", "count", "lower"),
      ("tcp.rtt_samples", "count", "lower"),
      ("mptcp.sched_bytes", "B", "lower"),
      ("mptcp.subflow_switches", "count", "lower")]),
    ("http / nocdn",
     "sim_s_per_wall_s on nocdn_day; no change on the psim days",
     [("cache.hits", "count", "higher"),
      ("cache.misses", "count", "lower"),
      ("nocdn.peer.requests", "count", "higher"),
      ("nocdn.origin.bytes_served", "B", "lower"),
      ("nocdn.ledger.records_accepted", "count", "higher"),
      ("nocdn.ledger.records_rejected", "count", "lower"),
      ("nocdn.offload", "ratio", "higher"),
      ("nocdn.peer_hit_rate", "ratio", "higher")]),
    ("hpop directory, overload, durable",
     "sim_s_per_wall_s and fail_share on nocdn_day",
     [("dir.lookups", "count", "higher"),
      ("dir.failed", "count", "lower"),
      ("dir.busy", "count", "lower"),
      ("dir.lookup_p99_s", "s", "lower"),
      ("dir.sync_rounds", "count", "lower"),
      ("overload.admitted", "count", "higher"),
      ("overload.shed", "count", "lower"),
      ("durable.wal.appends", "count", "lower"),
      ("durable.wal.syncs", "count", "lower"),
      ("durable.device.fsyncs", "count", "lower")]),
    ("fault",
     "fail_share on every workload",
     [("fault.node_crashes", "count", "lower"),
      ("fault.partitions", "count", "lower"),
      ("chaos.partition_drops", "count", "lower")]),
    ("metro set-up",
     "setup_s on every workload",
     [("metro.build_s", "s", "lower"),
      ("metro.plan_s", "s", "lower"),
      ("metro.setup_samples", "count", "higher"),
      ("driver.start_s", "s", "lower"),
      ("teardown_s", "s", "lower")]),
    ("memory",
     "peak_bytes_per_home, mostly on tcp_day and nocdn_day",
     [("alloc.live_bytes_peak_per_home", "B", "lower"),
      ("telemetry.instruments", "count", "lower")]),
    ("run shape",
     "sim_s_per_wall_s on nocdn_day (flash-crowd stalls)",
     [("sim.slice_wall_p50_ms", "ms", "lower"),
      ("sim.slice_wall_p99_ms", "ms", "lower"),
      ("sim.slice_wall_samples", "count", "higher")]),
    ("tracing",
     "none: traced sim_s_per_wall_s against the untraced median, same seed",
     [("trace.overhead_share", "ratio", "lower")]),
]

PER_LAYER = [m for _, _, metrics in LAYERS for m in metrics]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
MIN_DAYS = 3
DAY_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures (once) and builds both binaries; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "metro_day", "metro_day_traced"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(out, "metro_day"), os.path.join(out, "metro_day_traced"))


def day_seed(seed, i):
    """The i-th day of a run: distinct, deterministic in (seed, i)."""
    return seed * 1000 + i


def run_day(binary, workload, size, seed, spans=None):
    cfg = dict(WORKLOADS[workload], **size)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--homes", str(cfg["homes"]), "--day-s", str(cfg["day_s"]),
           "--workers", str(cfg["workers"]), "--rate", str(cfg["rate"])]
    if spans:
        cmd += ["--spans", spans]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=DAY_TIMEOUT_S)
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} seed {seed}: no output (exit {p.returncode})")
    rec = json.loads(lines[-1])
    failed = [k for k, ok in rec["checks"].items() if not ok]
    if p.returncode != 0 or failed:
        raise BenchError(f"{workload} seed {seed}: checks failed {failed} "
                         f"(exit {p.returncode})")
    return rec


def fail_share(attempted, failed):
    """Failed operations over attempted ones (never over completed ones)."""
    return failed / attempted


def end_to_end(days):
    """The end-to-end metrics of a run: medians over its days, except
    fail_share, which pools every day's operations."""
    med = lambda f: statistics.median(f(d) for d in days)
    return {
        "sim_s_per_wall_s": med(lambda d: d["sim_s"] / d["run_s"]),
        "setup_s": med(lambda d: d["setup_s"]),
        "cpu_s_per_sim_s": med(lambda d: d["cpu_run_s"] / d["sim_s"]),
        "peak_bytes_per_home": med(lambda d: d["peak_rss_bytes"] / d["homes"]),
        "fail_share": fail_share(sum(d["ops_attempted"] for d in days),
                                 sum(d["ops_failed"] for d in days)),
    }


def timed_run(binaries, workload, seed, seconds, size):
    days = []
    t0 = time.monotonic()
    while len(days) < MIN_DAYS or time.monotonic() - t0 < seconds:
        days.append(run_day(binaries[0], workload, size,
                            day_seed(seed, len(days))))
    return days, end_to_end(days)


def traced_run(binaries, workload, seed, seconds, size):
    """One traced day, plus untraced days of the same seed for the
    overhead; the spans go to the build directory."""
    s = day_seed(seed, 0)
    spans = os.path.join(build_dir(), f"spans-{workload}-{s}.jsonl")
    t0 = time.monotonic()
    traced = run_day(binaries[1], workload, size, s, spans=spans)
    untraced = []
    while len(untraced) < MIN_DAYS or time.monotonic() - t0 < seconds:
        untraced.append(run_day(binaries[0], workload, size, s))
    plain = statistics.median(d["sim_s"] / d["run_s"] for d in untraced)
    layer = dict(traced["layer"])
    layer["trace.overhead_share"] = 1.0 - (traced["sim_s"] / traced["run_s"]) / plain
    log(f"spans written to {spans}")
    return [traced] + untraced, layer


def result(days, values, table):
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, *_ in table}
    return {"correct": True, "attempted": len(days), "failed": 0,
            "metrics": metrics}


def measure(workload, seed, seconds, trace):
    binaries = build()
    if trace:
        days, values = traced_run(binaries, workload, seed, seconds, {})
        return result(days, values, PER_LAYER)
    days, values = timed_run(binaries, workload, seed, seconds, {})
    return result(days, values, END_TO_END)


def self_test():
    """Every workload at a tiny size, untraced and traced: BENCHMARK.json
    declares exactly run.py's workloads and metrics, the traced binary
    reports exactly the declared per-layer metrics, every name is well
    formed, and fail_share divides by attempts, not completions."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    assert {w["name"]: w["why"] for w in declared["workloads"]} == \
        {name: w["why"] for name, w in WORKLOADS.items()}, \
        "BENCHMARK.json workloads differ from run.py's"
    assert [[m["name"], m["unit"], m["better"], m["bound"]]
            for m in declared["end_to_end"]] == [list(m) for m in END_TO_END], \
        "BENCHMARK.json end_to_end differs from run.py's"
    assert [[m["name"], m["unit"], m["better"]]
            for m in declared["per_layer"]] == [list(m) for m in PER_LAYER], \
        "BENCHMARK.json per_layer differs from run.py's"

    binaries = build()
    for workload, size in SMOKE_SIZES.items():
        days, values = timed_run(binaries, workload, 1, 0, size)
        attempted = sum(d["ops_attempted"] for d in days)
        failed = sum(d["ops_failed"] for d in days)
        assert 0 < failed < attempted, f"{workload}: no failures to divide"
        assert values["fail_share"] == failed / attempted
        timed = result(days, values, END_TO_END)
        traced_days, layer = traced_run(binaries, workload, 1, 0, size)
        assert set(layer) == {m[0] for m in PER_LAYER}, \
            f"{workload}: traced metrics differ from per_layer: " \
            f"{set(layer) ^ {m[0] for m in PER_LAYER}}"
        traced = result(traced_days, layer, PER_LAYER)
        for res in (timed, traced):
            for name, m in res["metrics"].items():
                assert NAME_RE.match(name), f"bad metric name {name!r}"
                assert isinstance(m["value"], (int, float)), name
        log(f"self-test {workload}: {len(timed['metrics'])} end-to-end and "
            f"{len(traced['metrics'])} per-layer metrics ok")
    log("self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            self_test()
            return 0
        if not args.workload:
            ap.error("--workload is required")
        res = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, AssertionError, subprocess.TimeoutExpired,
            json.JSONDecodeError, KeyError) as e:
        log(f"FAILED: {e}")
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
