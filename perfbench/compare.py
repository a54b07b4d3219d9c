#!/usr/bin/env python3
"""Compare a parent checkout and a change checkout on the benchmark.

    python3 perfbench/compare.py --parent ../parent --change . \\
        [--workloads day,write-heavy] [--pairs 10] [--seed 42] \\
        [--check-seed 7] [--check-pairs 3] [--seconds N]

Runs `python3 perfbench/run.py` in both checkouts in alternating pairs (the
side that runs first switches every pair), with the same seed on both sides
of a pair. For every end-to-end metric and workload it prints each side's
median and quartiles and a verdict:

  gain        the change is better in at least 9 of 10 pairs (ties count
              for neither) and the medians differ by more than the parent's
              interquartile spread;
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread exceeds the bound and not every change
              run beats every parent run, so a regression cannot be ruled out;
  same        none of the above.

A run whose output checks fail (`correct` false) stops the comparison:
there is no verdict on a change that computes wrong results. A gain does not
count when a larger share of operations fails on the change, nor when the
known program faults (the report's "known faults:" line: fetches failed for
good, fetch attempts retried, short audit reads) strike more often on it.
Each gain is then checked on a second seed (--check-seed): it holds there if
the change's median is again better than the parent's.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


KNOWN = "known faults: "
FAULT_COUNTS = ("failed_fetches", "lost_fetch_attempts", "short_audit_reads")


def run_once(checkout, workload, seed, seconds):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    try:
        run = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("compare: %s failed in %s:\n%s" %
                 (" ".join(cmd), checkout, result.stderr[-2000:]))
    if not run["correct"]:
        sys.exit("compare: %s in %s fails its output checks; no verdict:\n%s"
                 % (" ".join(cmd), checkout,
                    "\n".join(l for l in lines if "violation" in l
                              or "self-test" in l)[-2000:]))
    if result.returncode != 0:
        sys.exit("compare: %s exited with %d in %s:\n%s" %
                 (" ".join(cmd), result.returncode, checkout,
                  result.stderr[-2000:]))
    known = [l for l in lines if l.startswith(KNOWN)]
    run["known"] = json.loads(known[-1][len(KNOWN):]) if known else {}
    return run


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True if a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def run_pairs(args, workload, seed, pairs):
    sides = {"parent": [], "change": []}
    for i in range(pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            sides[side].append(run_once(checkout, workload, seed, args.seconds))
    return sides


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted, attempted


def fault_shares(runs):
    """Per known fault, its count as a share of all attempted operations."""
    attempted = sum(r["known"].get("attempted", r["attempted"]) for r in runs)
    return {name: sum(r["known"].get(name, 0) for r in runs) / attempted
            for name in FAULT_COUNTS}


def verdicts(spec, sides):
    out = {}
    parent_fail, _ = failed_share(sides["parent"])
    change_fail, _ = failed_share(sides["change"])
    parent_faults = fault_shares(sides["parent"])
    change_faults = fault_shares(sides["change"])
    faults_ok = all(change_faults[n] <= parent_faults[n] for n in FAULT_COUNTS)
    for metric in spec["end_to_end"]:
        name, direction, bound = metric["name"], metric["better"], metric["bound"]
        p = [r["metrics"][name]["value"] for r in sides["parent"]]
        c = [r["metrics"][name]["value"] for r in sides["change"]]
        pq, cq = quartiles(p), quartiles(c)
        wins = sum(better(cv, pv, direction) for pv, cv in zip(p, c))
        parent_iqr = pq[2] - pq[0]
        worse_by = (cq[1] - pq[1]) / pq[1] if direction == "lower" \
            else (pq[1] - cq[1]) / pq[1]
        all_better = all(better(cv, pv, direction) for cv in c for pv in p)
        if (wins >= 0.9 * len(p) and abs(cq[1] - pq[1]) > parent_iqr
                and change_fail <= parent_fail and faults_ok):
            verdict = "gain"
        elif worse_by > bound:
            verdict = "regression"
        elif parent_iqr / pq[1] > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "same"
        out[name] = dict(parent=pq, change=cq, wins=wins, pairs=len(p),
                         verdict=verdict, unit=metric["unit"],
                         direction=direction)
    return out, parent_fail, change_fail, parent_faults, change_faults


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout root")
    ap.add_argument("--change", required=True, help="change checkout root")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--check-seed", type=int, default=7)
    ap.add_argument("--check-pairs", type=int, default=3)
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    args = ap.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    for workload in names:
        sides = run_pairs(args, workload, args.seed, args.pairs)
        table, pfail, cfail, pfaults, cfaults = verdicts(spec, sides)
        print("\n%s, seed %d, %d pairs (failed share: parent %.6f, change %.6f)"
              % (workload, args.seed, args.pairs, pfail, cfail))
        for name in FAULT_COUNTS:
            print("  known fault %-20s share: parent %.6f, change %.6f%s" % (
                name, pfaults[name], cfaults[name],
                "  (more on the change: no gain counts)"
                if cfaults[name] > pfaults[name] else ""))
        print("  %-20s %-34s %-34s %5s  %s" %
              ("metric", "parent median [q1, q3]", "change median [q1, q3]",
               "wins", "verdict"))
        for name, row in table.items():
            fmt = "%.5g [%.5g, %.5g]"
            print("  %-20s %-34s %-34s %2d/%-2d  %s" % (
                name, fmt % (row["parent"][1], row["parent"][0], row["parent"][2]),
                fmt % (row["change"][1], row["change"][0], row["change"][2]),
                row["wins"], row["pairs"], row["verdict"]))
        gains = [n for n, row in table.items() if row["verdict"] == "gain"]
        if gains and args.check_pairs > 0:
            check = run_pairs(args, workload, args.check_seed, args.check_pairs)
            for name in gains:
                row = table[name]
                p = statistics.median(r["metrics"][name]["value"]
                                      for r in check["parent"])
                c = statistics.median(r["metrics"][name]["value"]
                                      for r in check["change"])
                holds = better(c, p, row["direction"])
                print("  second seed %d: %s parent %.5g, change %.5g -> %s" % (
                    args.check_seed, name, p, c,
                    "gain holds" if holds else "gain NOT confirmed"))


if __name__ == "__main__":
    main()
