#!/usr/bin/env python3
"""Compare two nwsbench results, or two sets of runs, against BENCHMARK.json.

    python3 benchmark/compare.py PARENT CHANGE

PARENT and CHANGE are each a results file written by `run.py --out`, or a
directory of them (one set of runs).  Runs pair up in file-name order.  For
every (end-to-end metric, workload) pair this prints one verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread (interquartile range over median) is
              wider than the bound, and not every change run beats every
              parent run;
  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  same        otherwise.

Host metrics take their bound from BENCHMARK.json.  The simulated metrics
are a pure function of the seeds, so they are refereed by the seeds:

  same seeds       run by run: the median over the pairs of the change's
                   relative difference is worse or better past
                   SAME_SEED_BOUND, else same.  A host-only change must
                   leave them, and sim_digest, identical;
  different seeds  the rule above, with three times the parent's own seed
                   spread on that workload as the bound, at least
                   SAME_SEED_BOUND and at most the BENCHMARK.json bound,
                   which covers the widest workload.

A workload whose change runs are not all correct, or that failed any op,
counts as worse.  Results stamped with a different compiler, flags, nproc,
partitioned worker count or run length are refused: they come from another
host or build.  The exit code is 1 when anything is worse, 2 when the inputs
cannot be compared, else 0.  Python stdlib only.
"""

import argparse
import json
import os
import statistics
import sys

STAMP_KEYS = ("compiler", "flags", "nproc", "workers", "seconds")
SIMULATED = ("write_gib_s", "read_gib_s", "write_p50_ms", "write_p99_ms", "read_p50_ms",
             "read_p99_ms")
SAME_SEED_BOUND = 0.005
SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(path):
    """Returns (stamps, {workload: [record, ...]}) for a file or directory."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json"))
    if not files:
        raise ValueError(f"no results files in {path}")
    stamps, runs = [], {}
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        if "workloads" not in doc or "stamp" not in doc:
            raise ValueError(f"{f} is not a results file written by run.py --out")
        stamps.append(doc["stamp"])
        for name, record in doc["workloads"].items():
            runs.setdefault(name, []).append(record)
    return stamps, runs


def stamp_mismatches(parent, change):
    out = []
    for key in STAMP_KEYS:
        seen = {str(s.get(key)) for s in parent} | {str(s.get(key)) for s in change}
        if len(seen) > 1:
            out.append(f"{key}: {' vs '.join(sorted(seen))}")
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Interquartile range over median."""
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(parent, change, better, bound):
    """Applies the module docstring's rule; returns (verdict, detail)."""
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    q1, q3 = quartiles(parent)
    sign = 1.0 if better == "lower" else -1.0

    def improves(c, p):
        return sign * (p - c) > 0

    worse_by = sign * (med_c - med_p) / med_p if med_p else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if improves(c, p))
    share = wins / len(pairs) if pairs else 0.0
    detail = (f"parent {med_p:.6g} [{q1:.6g}, {q3:.6g}] n={len(parent)}  "
              f"change {med_c:.6g} n={len(change)}  {-worse_by:+.2%}  wins {wins}/{len(pairs)}  "
              f"bound {bound:.1%}")
    if worse_by > bound:
        return "worse", detail
    if spread(parent) > bound:
        all_better = all(improves(c, p) for c in change for p in parent)
        return ("better" if all_better else "unresolved"), detail + f"  spread {spread(parent):.2%}"
    if share >= 0.9 and abs(med_c - med_p) > q3 - q1 and improves(med_c, med_p):
        return "better", detail
    return "same", detail


def paired_verdict(parent, change, better):
    """Same-seed rule for simulated metrics; returns (verdict, detail)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = statistics.median(sign * (c - p) / p if p else 0.0 for p, c in zip(parent, change))
    detail = (f"parent {statistics.median(parent):.6g} change {statistics.median(change):.6g}  "
              f"paired {-worse_by:+.2%} over {len(parent)} seeds  bound {SAME_SEED_BOUND:.1%}")
    if worse_by > SAME_SEED_BOUND:
        return "worse", detail
    return ("better" if -worse_by > SAME_SEED_BOUND else "same"), detail


def metric_verdict(metric, parent, change, same_seeds):
    if metric["name"] not in SIMULATED:
        return verdict(parent, change, metric["better"], metric["bound"])
    if same_seeds:
        return paired_verdict(parent, change, metric["better"])
    bound = min(metric["bound"], max(SAME_SEED_BOUND, 3 * spread(parent)))
    return verdict(parent, change, metric["better"], bound)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    try:
        parent_stamps, parent = load(args.parent)
        change_stamps, change = load(args.change)
    except (OSError, ValueError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    mismatches = stamp_mismatches(parent_stamps, change_stamps)
    if mismatches:
        for m in mismatches:
            print(f"stamp mismatch: {m}")
        print("compare.py: results come from different hosts or builds; refusing to compare")
        return 2

    any_worse = False
    for w in spec["workloads"]:
        name = w["name"]
        if name not in parent and name not in change:
            continue
        if name not in parent or name not in change:
            print(f"{name}: missing from {'parent' if name not in parent else 'change'}")
            continue
        p_runs, c_runs = parent[name], change[name]
        if not all(r["correct"] and r["failed"] == 0 for r in c_runs):
            any_worse = True
            print(f"{name:22s} correct       worse       change runs incorrect or failed ops")
        same_seeds = [r["seed"] for r in p_runs] == [r["seed"] for r in c_runs]
        if same_seeds:
            identical = all(p["sim_digest"] == c["sim_digest"] for p, c in zip(p_runs, c_runs))
            print(f"{name:22s} simulated     "
                  f"{'identical' if identical else 'CHANGED: a host-only change must not do this'}")
        else:
            print(f"{name:22s} seeds differ: simulated metrics refereed against the seed spread")
        for m in spec["end_to_end"]:
            pv = [r["end_to_end"][m["name"]]["value"] for r in p_runs]
            cv = [r["end_to_end"][m["name"]]["value"] for r in c_runs]
            v, detail = metric_verdict(m, pv, cv, same_seeds)
            any_worse = any_worse or v == "worse"
            print(f"{name:22s} {m['name']:13s} {v:11s} {detail}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
