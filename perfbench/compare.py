#!/usr/bin/env python3
"""Compare two benchmark result sets, one row per workload.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the JSON lines that `run.py --record FILE` appends. Records
of the two sides are paired by workload and seed, in file order. For every
end-to-end metric of BENCHMARK.json the verdict is one of:

  gain          at least 10 pairs, the change wins at least 9 of every 10
                (ties count for neither side), and the medians differ, in the
                better direction, by more than the parent's interquartile
                range;
  regression    the change's median is worse than the parent's by more than
                the metric's bound;
  unresolved    either side's spread (interquartile range over median) is
                wider than the bound, and not every change run beats every
                parent run;
  no change     otherwise: within the bound.

[sim] metrics and run digests are deterministic per seed, so they are also
compared exactly, seed by seed. Per-layer medians (records made with
--trace 1) are listed side by side. Standard library only. Exit code 1 when
any row regresses, 2 on unusable input, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SIM_METRICS = {"latency_p50_rounds", "latency_p99_rounds", "pending_avg_per_shard",
               "leader_queue_max", "committed_share"}
MIN_PAIRS = 10
WIN_SHARE = 0.9


def unusable(message):
    print(f"compare: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    records = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                unusable(f"{path}:{number} is not JSON")
            if record.get("smoke"):
                continue
            records.append(record)
    return records


def rows(records, trace):
    by_workload = {}
    for record in records:
        if record["trace"] == trace:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def pair_by_seed(parent, change):
    """Pairs (parent record, change record) with equal seeds, in file order."""
    pending = {}
    for record in parent:
        pending.setdefault(record["seed"], []).append(record)
    pairs = []
    for record in change:
        queue = pending.get(record["seed"])
        if queue:
            pairs.append((queue.pop(0), record))
    return pairs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, direction):
    """+1 when b is better than a, -1 when worse, 0 on a tie."""
    if a == b:
        return 0
    return 1 if (b < a) == (direction == "lower") else -1


def verdict(metric, parent_values, change_values, pairs):
    name, direction, bound = metric["name"], metric["better"], metric["bound"]
    med_a = statistics.median(parent_values)
    med_b = statistics.median(change_values)
    q1_a, q3_a = quartiles(parent_values)
    q1_b, q3_b = quartiles(change_values)
    spread_a = (q3_a - q1_a) / abs(med_a) if med_a else 0.0
    spread_b = (q3_b - q1_b) / abs(med_b) if med_b else 0.0
    gap = (med_b - med_a) if direction == "higher" else (med_a - med_b)
    worse_by = -gap / abs(med_a) if med_a else 0.0
    outcomes = [better(a["metrics"][name]["value"], b["metrics"][name]["value"], direction)
                for a, b in pairs]
    wins = outcomes.count(1)
    every_run_better = all(better(a, b, direction) == 1
                           for a in parent_values for b in change_values)
    is_gain = (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
               and gap > (q3_a - q1_a))
    if (spread_a > bound or spread_b > bound) and not every_run_better:
        label = "unresolved"
    elif is_gain:
        label = "gain"
    elif worse_by > bound:
        label = "regression"
    else:
        label = "no change"
    return {
        "label": label, "parent": med_a, "change": med_b,
        "parent_iqr": (q1_a, q3_a), "change_iqr": (q1_b, q3_b),
        "spread": max(spread_a, spread_b), "worse_by": worse_by,
        "wins": wins, "losses": outcomes.count(-1), "pairs": len(pairs),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--spec", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    parent, change = load(args.parent), load(args.change)

    regressions = 0
    parent_rows, change_rows = rows(parent, 0), rows(change, 0)
    if not parent_rows or not change_rows:
        unusable("both sides need --trace 0 records")
    for workload in [w["name"] for w in spec["workloads"]]:
        a_records, b_records = parent_rows.get(workload), change_rows.get(workload)
        if not a_records or not b_records:
            print(f"\n== {workload}: missing on one side, skipped")
            continue
        pairs = pair_by_seed(a_records, b_records)
        change_first = sum(1 for a, b in pairs if b["started"] < a["started"])
        print(f"\n== {workload}: {len(a_records)} parent runs, {len(b_records)} change runs, "
              f"{len(pairs)} seed pairs ({change_first} with the change run first)")
        print(f"  {'metric':24s} {'parent median [q1, q3]':>35s} {'change median [q1, q3]':>35s}"
              f" {'worse':>7s} {'bound':>6s} {'w/l':>7s}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a_values = [r["metrics"][name]["value"] for r in a_records]
            b_values = [r["metrics"][name]["value"] for r in b_records]
            v = verdict(metric, a_values, b_values, pairs)
            regressions += v["label"] == "regression"
            tag = "[sim]" if name in SIM_METRICS else "[host]"
            print(f"  {name:24s} {v['parent']:12.6g} [{v['parent_iqr'][0]:9.4g}, {v['parent_iqr'][1]:9.4g}]"
                  f" {v['change']:12.6g} [{v['change_iqr'][0]:9.4g}, {v['change_iqr'][1]:9.4g}]"
                  f" {v['worse_by']:+7.1%} {metric['bound']:6.0%} {v['wins']:3d}/{v['losses']:<3d}"
                  f"  {v['label']} {tag}")
        sim_diff = sorted({a["seed"] for a, b in pairs
                           if any(a["metrics"][n]["value"] != b["metrics"][n]["value"]
                                  for n in SIM_METRICS)})
        digest_diff = sorted({a["seed"] for a, b in pairs if a["digest"] != b["digest"]})
        print(f"  [sim] metrics identical on {len(pairs) - len(sim_diff)}/{len(pairs)} seeds"
              + (f", differ on seeds {sim_diff}" if sim_diff else ""))
        print(f"  digest identical on {len(pairs) - len(digest_diff)}/{len(pairs)} seeds"
              + (f", differs on seeds {digest_diff}" if digest_diff else ""))

    layer_parent, layer_change = rows(parent, 1), rows(change, 1)
    for workload in [w["name"] for w in spec["workloads"]]:
        a_records, b_records = layer_parent.get(workload), layer_change.get(workload)
        if not a_records or not b_records:
            continue
        print(f"\n== {workload} per layer (medians of {len(a_records)} / {len(b_records)} traced runs)")
        for metric in spec["per_layer"]:
            name = metric["name"]
            med_a = statistics.median(r["metrics"][name]["value"] for r in a_records)
            med_b = statistics.median(r["metrics"][name]["value"] for r in b_records)
            change_pct = f"{(med_b - med_a) / abs(med_a):+8.1%}" if med_a else "       -"
            print(f"  {name:30s} {med_a:14.6g} {med_b:14.6g} {change_pct} {metric['unit']}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
