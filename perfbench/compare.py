#!/usr/bin/env python3
"""Compare two sets of benchmark records, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the <workload>-seed<n>-trace<t>.json records that
perfbench/run.py writes (its --out). For every workload and end-to-end
metric of BENCHMARK.json this prints each side's median and quartiles, the
pairs the change won (runs paired by seed; ties count for neither side) and
a verdict:

  improved    the change won at least 9 in 10 pairs and its median is better
              than the base's by more than the base's quartile spread;
  unresolved  the base's own spread (quartile distance / median) is wider
              than the metric's bound and not every change run beats every
              base run;
  worse       the change's median is worse than the base's by more than the
              bound;
  no worse    otherwise.

Traced records (trace 1) give a per-layer table of medians without verdicts,
and model checksums are compared seed by seed, so a moved accuracy or loss
can be told apart from changed arithmetic.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory, trace):
    """{workload: {seed: record}} for the records of one trace mode."""
    runs = {}
    for path in sorted(Path(directory).glob(f"*-trace{trace}.json")):
        rec = json.loads(path.read_text())
        runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def _same_models(x, y):
    """Runs of different length hold different units; compare the shared ones."""
    shared = set(x) & set(y)
    return bool(shared) and all(x[k] == y[k] for k in shared)


def verdict(base, change, pairs, better, bound):
    """The verdict for one metric; base and change are lists of values."""
    def wins(a, b):
        return a < b if better == "lower" else a > b

    q1, med_a, q3 = quartiles(base)
    med_b = quartiles(change)[1]
    won = sum(wins(b, a) for a, b in pairs)
    if pairs and won >= 0.9 * len(pairs) and wins(med_b, med_a) and abs(med_b - med_a) > q3 - q1:
        return "improved", won
    if (q3 - q1) / abs(med_a) > bound and not all(wins(b, a) for a in base for b in change):
        return "unresolved", won
    worse_by = (med_b - med_a) / abs(med_a) * (1 if better == "lower" else -1)
    return ("worse" if worse_by > bound else "no worse"), won


def compare(base_dir, change_dir, out=sys.stdout):
    spec = json.loads(BENCHMARK.read_text())
    base, change = load(base_dir, 0), load(change_dir, 0)
    for workload in sorted(set(base) | set(change)):
        a, b = base.get(workload, {}), change.get(workload, {})
        print(f"\n== {workload}: {len(a)} base runs, {len(b)} change runs", file=out)
        if not a or not b:
            continue
        print(f"{'metric':22s} {'base median [q1, q3]':34s} {'change median [q1, q3]':34s}"
              f" {'delta':>8s} {'won':>7s}  verdict", file=out)
        common = sorted(set(a) & set(b))
        for m in spec["end_to_end"]:
            name = m["name"]
            va = [r["metrics"][name]["value"] for r in a.values()]
            vb = [r["metrics"][name]["value"] for r in b.values()]
            pairs = [(a[s]["metrics"][name]["value"], b[s]["metrics"][name]["value"])
                     for s in common]
            word, won = verdict(va, vb, pairs, m["better"], m["bound"])
            qa, qb = quartiles(va), quartiles(vb)
            print(f"{name:22s} {_spread(qa):34s} {_spread(qb):34s}"
                  f" {(qb[1] - qa[1]) / abs(qa[1]):+8.2%} {won:3d}/{len(pairs):<3d}  {word}",
                  file=out)
        same = sum(_same_models(a[s]["models"], b[s]["models"]) for s in common)
        print(f"model results (checksums and figures) identical on {same} of {len(common)} "
              f"common seeds", file=out)
        failed = sum(len(r["failures"]) for r in list(a.values()) + list(b.values()))
        if failed:
            print(f"FAILED checks or operations in these runs: {failed}", file=out)

    base_t, change_t = load(base_dir, 1), load(change_dir, 1)
    for workload in sorted(set(base_t) & set(change_t)):
        a, b = base_t[workload].values(), change_t[workload].values()
        print(f"\n== {workload} per layer, traced: {len(a)} base runs, {len(b)} change runs",
              file=out)
        for m in spec["per_layer"]:
            name = m["name"]
            ma = statistics.median(r["metrics"][name]["value"] for r in a)
            mb = statistics.median(r["metrics"][name]["value"] for r in b)
            delta = f"{(mb - ma) / abs(ma):+8.2%}" if ma else "       -"
            print(f"{name:42s} {ma:12.5g} {mb:12.5g} {delta} {m['unit']}", file=out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path, help="records of the base (parent) commit")
    ap.add_argument("change", type=Path, help="records of the change")
    args = ap.parse_args(argv)
    compare(args.base, args.change)


if __name__ == "__main__":
    main()
