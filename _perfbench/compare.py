#!/usr/bin/env python3
"""Compare two sets of benchmark results (standard library only).

    python3 _perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result records as written by the benchmark's --out flag,
one JSON object per run. Runs group by workload and trace mode (-trace 0
and -trace 1 records carry different metrics) and pair up in file order
within a group, so run the two sides alternately with the same seeds. For
every group and metric it prints each side's median and quartiles, the share of pairs the
new side wins (ties count for neither), and a verdict:

  gain          new wins at least 9 of 10 pairs and the medians differ by
                more than the base side's quartile spread;
  regression    new median worse than the base median by more than the
                metric's bound in BENCHMARK.json;
  unresolved    the base side's spread exceeds the bound, and not every new
                run beats every base run;
  no change     otherwise (per-layer metrics have no bound: "worse" when
                the base side wins at least 9 of 10 pairs by more than the
                spread).
"""
import json
import os
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rec = json.loads(line)
                runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, new, better, bound):
    sign = 1 if better == "higher" else -1
    mb, mn = statistics.median(base), statistics.median(new)
    q1, q3 = quartiles(base)
    spread = q3 - q1
    gain = (mn - mb) * sign
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if (n - b) * sign > 0)
    losses = sum(1 for b, n in pairs if (n - b) * sign < 0)
    rate = wins / len(pairs) if pairs else 0.0
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return rate, "gain"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > spread:
            return rate, "worse"
        return rate, "no change"
    every_new_better = all((n - b) * sign > 0 for b in base for n in new)
    if mb and spread / abs(mb) > bound and not every_new_better:
        return rate, "unresolved"
    if -gain > bound * abs(mb):
        return rate, "regression"
    return rate, "no change"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    fmt = "{:<14} {:<32} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>5}  {}"
    print(fmt.format("workload", "metric", "base.med", "base.q1", "base.q3",
                     "new.med", "new.q1", "new.q3", "win", "verdict"))
    for group in sorted(set(base) ^ set(new)):
        print("{}/trace={}: only in one file, not compared".format(*group))
    for group in sorted(set(base) & set(new)):
        workload = "%s/t%d" % group
        names = [n for n in defs
                 if all(n in r["metrics"] for r in base[group] + new[group])]
        if not names:
            print("{:<14} no metric common to every run of both sides".format(workload))
        for name in names:
            b = [r["metrics"][name]["value"] for r in base[group]]
            n = [r["metrics"][name]["value"] for r in new[group]]
            rate, v = verdict(b, n, defs[name]["better"], defs[name].get("bound"))
            bq, nq = quartiles(b), quartiles(n)
            print(fmt.format(workload, name,
                             "%.5g" % statistics.median(b), "%.5g" % bq[0], "%.5g" % bq[1],
                             "%.5g" % statistics.median(n), "%.5g" % nq[0], "%.5g" % nq[1],
                             "%.2f" % rate, v))
        fails = [sum(r["failed"] for r in side[group]) for side in (base, new)]
        if fails[1] > fails[0]:
            print("{:<14} more failed scenarios on the new side ({} vs {}): no gain counts".format(
                workload, fails[1], fails[0]))


if __name__ == "__main__":
    main()
