"""Compare two sets of benchmark records, metric by metric and workload by workload.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds records written by ``bench/run.py`` (its
``bench/results/runs.jsonl``).  Make the runs in alternating pairs: for
seeds 1..10, run the parent and the change on the same workload and seed
one after the other, alternating which side goes first.  Records are
paired by workload and seed, in the order they were made.

For every end-to-end metric of ``BENCHMARK.json`` the verdict is:

* improved: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither), and the medians differ in its favour by
  more than the parent's interquartile spread;
* regressed: the change's median is worse than the parent's by more than
  the metric's bound (a share of the parent's median);
* unresolved: neither of the above, and there are fewer than ten pairs, or
  the parent's spread is wider than the bound while some run of the change
  reads no better than some run of the parent;
* unchanged: otherwise.

The exit code is 1 when any metric regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict:
    """workload -> seed -> untraced records in file order."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace") == 0:
                out.setdefault(rec["workload"], {}).setdefault(rec["seed"], []).append(rec)
    return out


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(parent: list, change: list, pairs: list, better: str, bound: float) -> tuple:
    """(verdict, wins) for one metric; values are oriented by ``better``."""
    sign = 1.0 if better == "lower" else -1.0
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (med_p - med_c) > q3 - q1):
        return "improved", wins
    if sign * (med_c - med_p) > bound * abs(med_p):
        return "regressed", wins
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if len(pairs) < MIN_PAIRS or ((q3 - q1) > bound * abs(med_p) and not all_better):
        return "unresolved", wins
    return "unchanged", wins


def compare(parent_path: str, change_path: str) -> int:
    with open(BENCHMARK, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load(parent_path), load(change_path)
    regressed = False
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        p_all = [r for runs in p_runs.values() for r in runs]
        c_all = [r for runs in c_runs.values() for r in runs]
        print(f"\n{workload}: parent {len(p_all)} runs "
              f"({sum(r['failed'] for r in p_all)}/{sum(r['attempted'] for r in p_all)} failed), "
              f"change {len(c_all)} runs "
              f"({sum(r['failed'] for r in c_all)}/{sum(r['attempted'] for r in c_all)} failed)")
        if not p_all or not c_all:
            print("  unresolved: one side has no runs")
            continue
        print(f"  {'metric':<12} {'parent median [q1, q3]':>36}  {'change median [q1, q3]':>36}"
              f" {'delta':>8} {'wins':>7}  verdict")
        for m in metrics:
            name = m["name"]
            value = lambda rec: rec["metrics"][name]["value"]
            pairs = [(value(p), value(c))
                     for seed in sorted(set(p_runs) & set(c_runs))
                     for p, c in zip(p_runs[seed], c_runs[seed])]
            p_vals, c_vals = [value(r) for r in p_all], [value(r) for r in c_all]
            result, wins = verdict(p_vals, c_vals, pairs, m["better"], m["bound"])
            regressed |= result == "regressed"
            pq1, pmed, pq3 = quartiles(p_vals)
            cq1, cmed, cq3 = quartiles(c_vals)
            delta = (cmed - pmed) / pmed if pmed else float("nan")
            print(f"  {name:<12} {pmed:>12.6g} [{pq1:>10.5g}, {pq3:>10.5g}]"
                  f"  {cmed:>12.6g} [{cq1:>10.5g}, {cq3:>10.5g}]"
                  f" {delta:>+8.2%} {wins:>3}/{len(pairs):<3}  {result}"
                  f"  (bound {m['bound']:.0%}, {m['better']} is better, {m['unit']})")
    return 1 if regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
