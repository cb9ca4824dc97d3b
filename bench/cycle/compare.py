#!/usr/bin/env python3
"""Compare two sets of bench_cycle runs against the bounds in BENCHMARK.json.

    python3 bench/cycle/compare.py A.txt B.txt [--pairs]

A and B each hold the concatenated stdout of run.py single runs, for
example one set per commit:

    for seed in $(seq 1 10); do
      for w in explore-1000 explore-4000 drag-1000 fleet-1000; do
        python3 bench/cycle/run.py --workload $w --seed $seed
      done
    done > A.txt

Every "# info" line names the run's workload, seed and host speed
(ref_ms, bench_cycle's fixed reference sort), and the JSON line after it
holds its metrics. The script first prints each set's median ref_ms: when
they differ, the host ran at different speeds, and timing differences may
be the machine's. Then for each metric and workload it prints
both medians, both interquartile ranges as a share of the median, the bound,
and a verdict, with B judged against A as the baseline:

  unresolved  the spread of either set exceeds the bound
  worse       B's median is worse than A's by more than the bound
  better      B's median is better than A's by more than the bound
  unchanged   otherwise

With --pairs, runs are paired by (workload, seed) and "better" also needs B
to win at least 9 of every 10 pairs (ties count for neither side) and the
medians to differ by more than A's interquartile range. Per-layer metrics
have no bound; they get medians and spreads only. Python 3 stdlib only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load(path):
    """({workload: {seed: metrics}}, [ref_ms]) from concatenated run.py output."""
    runs, refs = {}, []
    info = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("# info "):
            info = json.loads(line[len("# info "):])
        elif line.startswith("{") and info is not None:
            result = json.loads(line)
            runs.setdefault(info["workload"], {})[info["seed"]] = {
                name: m["value"] for name, m in result["metrics"].items()}
            if "ref_ms" in info:
                refs.append(info["ref_ms"])
            info = None
    return runs, refs


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return float("inf")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else float("inf")


def verdict(a, b, bound, lower_is_better, pairs):
    med_a, med_b = statistics.median(a), statistics.median(b)
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    gain = (med_a - med_b) if lower_is_better else (med_b - med_a)
    rel = gain / abs(med_a) if med_a else 0.0
    if rel < -bound:
        return "worse"
    if rel <= bound:
        return "unchanged"
    if pairs is None:
        return "better"
    wins = sum(1 for x, y in pairs if (y < x if lower_is_better else y > x))
    q = statistics.quantiles(a, n=4)
    if wins * 10 >= 9 * len(pairs) and abs(med_b - med_a) > q[2] - q[0]:
        return "better"
    return f"unresolved ({wins}/{len(pairs)} pair wins)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="baseline runs")
    parser.add_argument("b", help="candidate runs")
    parser.add_argument("--pairs", action="store_true",
                        help="pair runs by (workload, seed) and apply the 9-of-10 rule")
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text())
    (runs_a, refs_a), (runs_b, refs_b) = load(args.a), load(args.b)
    if refs_a and refs_b:
        print(f"host reference sort (ref_ms) median: A {statistics.median(refs_a):.4g}, "
              f"B {statistics.median(refs_b):.4g}")
    entries = [(m, "end_to_end") for m in spec["end_to_end"]] + \
              [(m, "per_layer") for m in spec["per_layer"]]
    worse = False
    print(f"{'workload':14s} {'metric':36s} {'median A':>12s} {'median B':>12s} "
          f"{'iqr A':>7s} {'iqr B':>7s} {'bound':>6s}  verdict")
    for workload in sorted(set(runs_a) & set(runs_b)):
        a_runs, b_runs = runs_a[workload], runs_b[workload]
        for entry, kind in entries:
            name = entry["name"]
            a = [r[name] for r in a_runs.values() if name in r]
            b = [r[name] for r in b_runs.values() if name in r]
            if not a or not b:
                continue
            if kind == "end_to_end":
                seeds = sorted(set(a_runs) & set(b_runs))
                pairs = [(a_runs[s][name], b_runs[s][name]) for s in seeds] if args.pairs else None
                v = verdict(a, b, entry["bound"], entry["better"] == "lower", pairs)
                bound = f"{entry['bound']:6.2f}"
                worse = worse or v == "worse"
            else:
                v, bound = "-", "     -"
            print(f"{workload:14s} {name:36s} {statistics.median(a):12.5g} "
                  f"{statistics.median(b):12.5g} {spread(a):7.3f} {spread(b):7.3f} {bound}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
