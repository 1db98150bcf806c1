#!/usr/bin/env python3
"""Summarise or compare result sets recorded with `run.py --record`.

    python3 perfbench/compare.py base.jsonl              # spread of each metric
    python3 perfbench/compare.py base.jsonl change.jsonl  # verdict per metric

A result set is the runs of one commit, one JSON line per run. With one set,
each metric's median, quartiles and spread (interquartile range over the
median) are printed next to its bound. With two sets (base = the parent
commit), each metric and workload gets a verdict:

  gain          the change wins >= 9/10 of the runs paired by seed (ties count
                for neither) and the medians differ by more than the base's
                interquartile range
  regression    the change's median is worse than the base's by more than the
                metric's bound (a share of the base median)
  unresolved    a side's spread exceeds the bound, so the bound cannot be
                judged (unless every change run beats every base run)
  within bound  none of the above

Runs whose inputs, host or settings differ are flagged: input hashes must
match per seed, and a run that set a TILEDQR_* knob is not comparable.
"""
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
HOST_KEYS = ("nproc", "pool_threads", "simd_tier", "llc_bytes", "compiler", "build_type",
             "cxx_flags")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, change, better, bound):
    """Verdict for one metric. `base` and `change` are the runs paired by
    seed (equal length, same order); `bound` is None for metrics without one."""
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    if wins >= 0.9 * len(base) and sign * (cmed - bmed) > bq3 - bq1:
        return "gain"
    if bound is None:
        return "-"
    if max(spread(base), spread(change)) > bound:
        if all(sign * (c - b) > 0 for c in change for b in base):
            return "better (every run)"
        return "unresolved"
    if sign * (bmed - cmed) > bound * abs(bmed):
        return "regression"
    return "within bound"


def load(path):
    """{(workload, trace): {seed: record}} from a --record file."""
    runs = {}
    for n, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            key = (rec["detail"]["workload"], rec["detail"]["trace"])
            runs.setdefault(key, {})[rec["detail"]["seed"]] = rec
        except (ValueError, KeyError) as e:
            sys.exit(f"{path}:{n}: not a run record ({e})")
    return runs


def metric_specs():
    spec = json.loads(BENCHMARK.read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out


def warnings(sets):
    out = []
    for label, runs in sets:
        for (workload, _), by_seed in runs.items():
            for seed, rec in by_seed.items():
                d = rec["detail"]
                if not d.get("comparable", False):
                    out.append(f"{label} {workload} seed {seed}: TILEDQR_* set "
                               f"({d.get('env')}), not comparable with a baseline")
                if not rec["result"].get("correct", False):
                    out.append(f"{label} {workload} seed {seed}: run not correct "
                               f"({rec['result'].get('failed')} failed)")
    if len(sets) == 2:
        (_, a), (_, b) = sets
        for key in set(a) & set(b):
            for seed in set(a[key]) & set(b[key]):
                da, db = a[key][seed]["detail"], b[key][seed]["detail"]
                if da.get("input_hash") != db.get("input_hash"):
                    out.append(f"{key[0]} seed {seed}: input hashes differ")
                diff = [k for k in HOST_KEYS if da.get(k) != db.get(k)]
                if diff:
                    out.append(f"{key[0]} seed {seed}: host/config differs in {', '.join(diff)}")
    return sorted(set(out))


def values(by_seed, seeds, name):
    return [by_seed[s]["result"]["metrics"][name]["value"] for s in seeds
            if name in by_seed[s]["result"]["metrics"]]


def summarise(runs, specs):
    print(f"{'workload':14} {'metric':34} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  note")
    for (workload, trace), by_seed in sorted(runs.items()):
        seeds = sorted(by_seed)
        names = by_seed[seeds[0]]["result"]["metrics"]
        for name, m in names.items():
            v = values(by_seed, seeds, name)
            q1, med, q3 = quartiles(v)
            better, bound = specs.get(name, ("?", None))
            sp = spread(v)
            note = "" if bound is None else ("steady" if sp < bound / 3 else
                                             "within bound" if sp <= bound else "TOO NOISY")
            print(f"{workload:14} {name:34} {len(v):3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{sp:8.2%} {'' if bound is None else format(bound, '.2f'):>6}  "
                  f"{m['unit']} {better} {note}")


def compare(base, change, specs):
    print(f"{'workload':14} {'metric':34} {'base median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'wins':>6}  verdict")
    for key in sorted(set(base) & set(change)):
        seeds = sorted(set(base[key]) & set(change[key]))
        if not seeds:
            print(f"{key[0]}: no seed in common; runs cannot be paired")
            continue
        names = base[key][seeds[0]]["result"]["metrics"]
        for name, m in names.items():
            b, c = values(base[key], seeds, name), values(change[key], seeds, name)
            if len(b) != len(seeds) or len(c) != len(seeds):
                continue
            better, bound = specs.get(name, ("higher", None))
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
            bq, cq = quartiles(b), quartiles(c)
            print(f"{key[0]:14} {name:34} "
                  f"{bq[1]:12.6g} [{bq[0]:10.6g}, {bq[2]:10.6g}] "
                  f"{cq[1]:12.6g} [{cq[0]:10.6g}, {cq[2]:10.6g}] "
                  f"{wins:3}/{len(seeds):<2}  {verdict(b, c, better, bound)}")


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    specs = metric_specs()
    sets = [(label, load(p)) for label, p in zip(("base", "change"), argv[1:])]
    for w in warnings(sets):
        print(f"warning: {w}")
    if len(sets) == 1:
        summarise(sets[0][1], specs)
    else:
        compare(sets[0][1], sets[1][1], specs)


if __name__ == "__main__":
    main(sys.argv)
