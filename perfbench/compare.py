#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds JSON lines written by `perfbench/run.py --record FILE`
(untraced runs; traced records are skipped). Runs of one workload are
paired in file order, so record the two sides alternately over the same
seeds. For every workload and end-to-end metric of BENCHMARK.json it prints
each side's median and quartiles, the share of pairs the change won (ties
count for neither), and a verdict:

  better        the change won at least 9 of 10 pairs and its median moved
                by more than the base's quartile spread; or every change run
                beat every base run
  within bound  the change's median is no worse than the base's by more
                than the metric's bound
  worse         the change's median is worse by more than the bound
  unresolved    the run-to-run spread (quartile distance over the median)
                of either side exceeds the bound, so the data cannot tell

It also flags any rise in the share of failed operations. Exit code 1 when
any verdict is `worse` or the failed share rose, 0 otherwise.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    won = wins / len(pairs) if pairs else 0.0
    spread_b = (b3 - b1) / bm if bm else float("inf")
    spread_c = (c3 - c1) / cm if cm else float("inf")
    worse_by = sign * (bm - cm) / bm if bm else 0.0
    if won >= 0.9 and sign * (cm - bm) > (b3 - b1):
        v = "better"
    elif all(sign * (c - b) > 0 for b in base for c in change):
        v = "better"
    elif spread_b > bound or spread_c > bound:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "within bound"
    return (b1, bm, b3), (c1, cm, c3), won, worse_by, v


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base = load_runs(sys.argv[1])
    change = load_runs(sys.argv[2])
    bad = False
    for wl in [w["name"] for w in spec["workloads"]]:
        if wl not in base or wl not in change:
            print("%s: missing from one side, skipped" % wl)
            continue
        b_runs, c_runs = base[wl], change[wl]
        print("%s: %d base runs, %d change runs" % (wl, len(b_runs),
                                                    len(c_runs)))
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            bq, cq, won, worse_by, v = verdict(bv, cv, m["better"],
                                               m["bound"])
            bad = bad or v == "worse"
            print("  %-12s %-4s base %.5g [%.5g, %.5g]  change %.5g "
                  "[%.5g, %.5g]  won %3.0f%%  %+.1f%% worse  -> %s" % (
                      name, m["unit"], bq[1], bq[0], bq[2], cq[1], cq[0],
                      cq[2], 100 * won, 100 * worse_by, v))
        fb = sum(r["failed"] for r in b_runs) / max(
            1, sum(r["attempted"] for r in b_runs))
        fc = sum(r["failed"] for r in c_runs) / max(
            1, sum(r["attempted"] for r in c_runs))
        flag = "  FAILED SHARE ROSE" if fc > fb else ""
        bad = bad or fc > fb
        print("  failed share: base %.6f, change %.6f%s" % (fb, fc, flag))
        if not all(r["correct"] for r in b_runs + c_runs):
            print("  some runs reported incorrect outputs")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
