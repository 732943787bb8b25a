#!/usr/bin/env python3
"""End-to-end MIFO benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload churn --seed 7 --seconds 20 --trace 0

Run from the root of a checkout. Builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
rounds of the workload, each a fresh process, until --seconds have passed:

  --trace 0   untraced rounds; end-to-end metrics are medians over them,
              set-up time a median over at least seven set-ups.
  --trace 1   untraced and traced rounds alternately; per-layer metrics are
              medians over the traced rounds, and trace.overhead compares
              the two kinds' timed phases.

Prints a host record, one line per round, the workload's own figures, and as
the last line one JSON object {"correct", "attempted", "failed", "metrics"}.
--record FILE appends that result, with the workload figures, to a JSON-lines
file that perfbench/compare.py reads. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("churn", "packet", "fluid_batch", "fluid_stream")
# Set-up time is the median of at least MIN_SETUPS set-ups, and of as many
# as fit in SETUP_SAMPLING_S when set-up is short.
MIN_SETUPS = 7
MAX_SETUPS = 50
SETUP_SAMPLING_S = 2.0
# The whole invocation must end within 180 s; never start a round that
# could not finish before this many seconds have passed.
HARD_LIMIT_S = 170.0
# Share of a traced round's measured wall time the layer spans must cover.
COVERAGE_TOLERANCE = 0.98
# Longest round seen per workload on the reference host (seconds of wall
# time, checks included), used to decide whether another round still fits.
ROUND_ESTIMATE_S = {"churn": 30.0, "packet": 9.0, "fluid_batch": 8.0,
                    "fluid_stream": 6.0}

LAYER_UNITS = {
    "topo.generate_s": "s", "testbed.build_s": "s",
    "chaos.controller_s": "s", "verify.initial_s": "s", "chaos.route_s": "s",
    "bgpd.messages": "count", "bgp.recomputed": "count",
    "bgp.patched": "count", "verify.check_s": "s",
    "verify.dirty_dests": "count", "verify.states": "count",
    "verify.useful_ratio": "ratio", "core.tick_s": "s", "core.tick_us": "us",
    "dataplane.run_s": "s", "dataplane.ns_per_hop": "ns",
    "dataplane.drops": "count", "shard.run_s": "s",
    "shard.barrier_wait_s": "s", "shard.ring_pushed": "count",
    "shard.epochs": "count", "sim.route_warm_s": "s", "sim.run_s": "s",
    "sim.stream_s": "s", "traffic.generate_s": "s",
    "sim.solver_runs": "count", "sim.solver_incidences": "count",
    "sim.solve_reduction": "ratio", "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


def build(root):
    src = os.path.join(root, "src")
    if not os.path.isdir(src) or not os.path.isfile(
            os.path.join(HERE, "CMakeLists.txt")):
        fail("no MIFO sources under %s: run from the root of a checkout" % src)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(root, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench_mifo")


def host_record():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    load = os.getloadavg()
    return {"hardware_threads": os.cpu_count() or 0, "cpu_model": model,
            "loadavg_start": [round(x, 2) for x in load]}


def run_round(binary, workload, seed, traced, setup_only, timeout):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if setup_only:
        cmd.append("--setup-only")
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("round exceeded %.0f s: %s" % (timeout, " ".join(cmd)))
    if res.returncode != 0:
        sys.stderr.write(res.stderr[-4000:])
        fail("round exited with %d: %s" % (res.returncode, " ".join(cmd)))
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail("round printed nothing: " + " ".join(cmd))
    return json.loads(lines[-1])


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--record", help="append the result to this JSON-lines "
                    "file (for compare.py)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    t_start = time.monotonic()
    root = os.getcwd()
    binary = build(root)
    host = host_record()
    log("host: %d hardware threads, %s, load average %s" % (
        host["hardware_threads"], host["cpu_model"],
        " ".join("%.2f" % x for x in host["loadavg_start"])))

    traced_run = args.trace == 1
    estimate = ROUND_ESTIMATE_S[args.workload]
    t_measure = time.monotonic()
    rounds = []

    def remaining():
        return HARD_LIMIT_S - (time.monotonic() - t_start)

    def enough():
        untraced = sum(1 for r in rounds if not r["trace"])
        traced = sum(1 for r in rounds if r["trace"])
        if untraced == 0 or (traced_run and traced == 0):
            return False
        return time.monotonic() - t_measure >= args.seconds

    while not enough():
        if rounds and remaining() < 2 * estimate:
            break
        traced = traced_run and len(rounds) % 2 == 1
        r = run_round(binary, args.workload, args.seed, traced, False,
                      max(5.0, remaining()))
        rounds.append(r)
        log("round %d%s: setup %.4f s, timed %.4f s, wall %.3f s, cpu %.3f "
            "s, peak %.1f MiB, ops %d, digest %s%s" % (
                len(rounds), " (traced)" if traced else "", r["setup_s"],
                r["timed_s"], r["wall_s"], r["cpu_s"], r["peak_rss_mb"],
                r["ops"], r["digest"],
                "" if not r["errors"] else ", FAILED CHECKS"))
        for e in r["errors"]:
            log("  check failed: " + e)

    setups = [r["setup_s"] for r in rounds if not r["trace"]]
    if not traced_run:
        t_setups = time.monotonic()
        while remaining() > 10.0 and len(setups) < MAX_SETUPS and (
                len(setups) < MIN_SETUPS or
                time.monotonic() - t_setups < SETUP_SAMPLING_S):
            r = run_round(binary, args.workload, args.seed, False, True,
                          max(5.0, remaining()))
            setups.append(r["setup_s"])
        log("set-up times (%d): %s" % (len(setups), " ".join(
            "%.4f" % s for s in sorted(setups))))

    plain = [r for r in rounds if not r["trace"]]
    traced = [r for r in rounds if r["trace"]]
    correct = bool(rounds) and all(not r["errors"] for r in rounds)
    digests = sorted({r["digest"] for r in rounds})
    if len(digests) != 1:
        log("outcome digests differ between rounds: " + " ".join(digests))
        correct = False
    if len({(r["attempted"], r["failed"]) for r in rounds}) != 1:
        log("rounds disagree on attempted/failed operations")
        correct = False
    log("outcome digest: %s" % digests[0])

    detail = {}
    for key in sorted({k for r in plain for k in r["detail"]}):
        detail[key] = median([r["detail"][key] for r in plain
                              if key in r["detail"]])
        log("  %-30s %.6g" % (key, detail[key]))
    cpu_wall = [r["cpu_s"] / r["wall_s"] for r in rounds if r["wall_s"] > 0]
    log("process cpu/wall per round: " +
        " ".join("%.2f" % x for x in cpu_wall))

    if traced_run:
        metrics = {}
        for name, unit in LAYER_UNITS.items():
            if name == "trace.overhead":
                continue
            vals = [r["layers"].get(name, 0.0) for r in traced]
            metrics[name] = {"value": median(vals), "unit": unit}
        overhead = (median([r["timed_s"] for r in traced]) /
                    median([r["timed_s"] for r in plain]) - 1.0)
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        if metrics["trace.coverage"]["value"] < COVERAGE_TOLERANCE:
            log("timers cover less than %.2f of the traced wall time" %
                COVERAGE_TOLERANCE)
            correct = False
        log("tracing: timers cover %.4f of the traced wall time; traced "
            "timed phase %+.2f%% against untraced" % (
                metrics["trace.coverage"]["value"], 100.0 * overhead))
        for name in LAYER_UNITS:
            m = metrics[name]
            if m["value"]:
                log("  layer %-26s %.6g %s" % (name, m["value"], m["unit"]))
    else:
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in plain]),
                            "unit": "MiB"},
            "ops_per_s": {"value": median([r["ops"] / r["ops_s"]
                                           for r in plain]),
                          "unit": "1/s"},
        }
    result = {"correct": correct,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    if args.record:
        rec = dict(result, workload=args.workload, seed=args.seed,
                   trace=args.trace, detail=detail, host=host,
                   digest=digests[0])
        with open(args.record, "a") as f:
            f.write(json.dumps(rec) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
