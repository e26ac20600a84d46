"""Run workloads over several seeds into one result file, then show how
far each end-to-end metric spreads against its bound.

    python3 bench/sweep.py --out .bench_out/base.jsonl --seeds 0-9
    python3 bench/sweep.py --out .bench_out/t.jsonl --seeds 0-4 \\
        --workloads dwp-s10 --trace 1

Runs are sequential, one process at a time. Each line of the result file
holds the workload, seed, the run's final JSON line and its full record
(environment, checks, per-step times, quality). A metric is steady when its
spread is below a third of its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from compare import load, spread

BENCH = Path(__file__).resolve().parent
OUT = BENCH.parent / ".bench_out"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="result file to append to")
    ap.add_argument("--seeds", type=seeds, default=seeds("0-9"), help="e.g. 0-9")
    ap.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")

    bad = 0
    with open(args.out, "a", encoding="utf-8") as fh:
        for w in workloads:
            for s in args.seeds:
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w,
                       "--seed", str(s), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
                t0 = time.monotonic()
                p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                if p.returncode != 0:
                    print(f"{w} seed {s}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                    bad += 1
                    continue
                result = json.loads(p.stdout.strip().splitlines()[-1])
                record = json.loads(
                    (OUT / f"{w}-seed{s}-trace{args.trace}.json").read_text())
                fh.write(json.dumps({"workload": w, "seed": s, "trace": args.trace,
                                     "result": result, "record": record}) + "\n")
                fh.flush()
                bad += not result["correct"]
                print(f"{w} seed {s}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      f"({time.monotonic() - t0:.0f} s)", flush=True)

    bounds = {n: b for n, _, _, b in spec.END_TO_END}
    runs = load(args.out)
    for (w, name), vals in sorted(runs.items()):
        if w not in workloads:
            continue
        sp = spread(vals)
        bound = bounds.get(name)
        note = "" if bound is None else (
            f"bound {bound:.2f} {'steady' if sp < bound / 3 else 'NOT steady'}")
        print(f"{w:16s} {name:44s} n={len(vals):2d} median "
              f"{statistics.median(vals):12.6g} spread {sp:.4f} {note}".rstrip())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
