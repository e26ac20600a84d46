"""Compare two result files, one line per (workload, metric).

    python3 bench/compare.py BASE.jsonl NEW.jsonl

A result file is what bench/sweep.py writes: one JSON line per run. Each
line printed gives both medians, the ratio new/base, and a verdict. An
end-to-end metric is `unresolved` when the run-to-run spread of either side
(quartile distance over median) exceeds its bound, `worse` when the new
median is worse than the base by more than the bound, `better` when it is
better by more than the bound, and `same` otherwise. Per-layer metrics have
no bound and get no verdict.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

import spec


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles' default method)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def load(path) -> dict:
    """{(workload, metric): [value per run]} of one result file."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                for name, m in run["result"]["metrics"].items():
                    runs[run["workload"], name].append(m["value"])
    return runs


def verdict(name, base, new) -> str:
    rule = {n: (better, bound) for n, _, better, bound in spec.END_TO_END}.get(name)
    if rule is None:
        return ""
    better, bound = rule
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    b, n = statistics.median(base), statistics.median(new)
    change = (n - b) / abs(b) if b else 0.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(base: dict, new: dict) -> list[str]:
    units = {n: u for n, u, _, _ in spec.END_TO_END}
    units.update(spec.per_layer())
    lines = []
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        b, n = statistics.median(base[key]), statistics.median(new[key])
        ratio = f"{n / b:.4f}" if b else "n/a"
        lines.append(f"{workload:16s} {name:44s} base {b:12.6g}  new {n:12.6g} "
                     f"{units.get(name, ''):6s} new/base {ratio:>7s} "
                     f"{verdict(name, base[key], new[key])}".rstrip())
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    for line in compare(load(args.base), load(args.new)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
