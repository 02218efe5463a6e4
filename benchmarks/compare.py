"""Compare two commits with the benchmark's own decision rule.

    python3 benchmarks/compare.py pairs PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --workload spectral-256 --out DIR
    python3 benchmarks/compare.py judge PARENT_RESULTS CHANGE_RESULTS

``pairs`` runs MIN_PAIRS pairs of the benchmark (tracing off, for
``run_seconds`` from BENCHMARK.json) in both checkouts, alternating which
side runs first; pair i uses seed ``FIRST_SEED + i`` on both sides.
Result records go to DIR/parent and DIR/change and are then judged.

``judge`` reads result records (run.py writes one per run) and prints one
row per workload and end-to-end metric, with each side's median and
quartiles and a verdict:

  gain          the change wins >= 9/10 of the seed-matched pairs (ties
                count for neither), over at least 10 pairs, and the medians
                differ by more than the parent's interquartile range
  unresolved    either side's spread (IQR / median) exceeds the metric's
                bound in BENCHMARK.json, unless every change run reads
                better than every parent run
  regression    the change's median is worse than the parent's by more
                than the bound
  within bound  none of the above
  more failures the change failed more runs than the parent; no gain counts

Exit status 1 when any row is a regression or shows more failures, or is
unresolved with the change's median worse than the parent's by more than
the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
FIRST_SEED = 1000
WIN_SHARE = 0.9


def load(path):
    """Untraced result records under a directory (or one file)."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        record = json.loads(f.read_text())
        if record.get("context", {}).get("trace") == 0:
            records.append(record)
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge_metric(parent, change, bound, better):
    """Verdict for one metric; parent/change map seed -> value."""
    sign = 1.0 if better == "lower" else -1.0
    p_vals, c_vals = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_q1, c_med, c_q3 = quartiles(c_vals)
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    all_better = all(sign * (c - p) < 0 for c in c_vals for p in p_vals)
    worse = sign * (c_med - p_med) / p_med
    if (len(seeds) >= MIN_PAIRS and wins >= WIN_SHARE * len(seeds)
            and abs(c_med - p_med) > p_q3 - p_q1 and sign * (c_med - p_med) < 0):
        verdict = "gain"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {"parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
            "wins": wins, "pairs": len(seeds), "spread": spread, "worse": worse,
            "verdict": verdict}


def judge(parent_records, change_records, spec):
    rows = []
    workloads = sorted({r["context"]["workload"] for r in parent_records}
                       & {r["context"]["workload"] for r in change_records})
    for workload in workloads:
        sides = []
        for records in (parent_records, change_records):
            mine = [r for r in records if r["context"]["workload"] == workload]
            sides.append((mine, sum(r["failed"] for r in mine)))
        (p_recs, p_failed), (c_recs, c_failed) = sides
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = {r["context"]["seed"]: r["metrics"][name]["value"] for r in p_recs}
            c = {r["context"]["seed"]: r["metrics"][name]["value"] for r in c_recs}
            row = judge_metric(p, c, metric["bound"], metric["better"])
            if c_failed > p_failed:
                row["verdict"] = "more failures"
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "bound": metric["bound"], **row})
    return rows


def print_rows(rows):
    print(f"{'workload':16s} {'metric':12s} {'parent median [q1, q3]':32s} "
          f"{'change median [q1, q3]':32s} {'wins':>7s}  verdict")
    for r in rows:
        sides = ["{:.5g} [{:.5g}, {:.5g}]".format(*r[k]) for k in ("parent", "change")]
        print(f"{r['workload']:16s} {r['metric']:12s} {sides[0]:32s} {sides[1]:32s} "
              f"{r['wins']:>3d}/{r['pairs']:<3d}  {r['verdict']} "
              f"(worse by {100 * r['worse']:+.2f}%, spread {100 * r['spread']:.2f}%, "
              f"bound {100 * r['bound']:.0f}%)")


def run_pairs(args, seconds):
    out = Path(args.out)
    sides = {"parent": Path(args.parent), "change": Path(args.change)}
    for name in sides:
        (out / name).mkdir(parents=True, exist_ok=True)
    for i in range(MIN_PAIRS):
        seed = FIRST_SEED + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            cmd = [sys.executable, "benchmarks/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=sides[name], capture_output=True, text=True,
                                  check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = {**result, "context": {"workload": args.workload, "seed": seed,
                                            "trace": 0, "side": name}}
            (out / name / f"{args.workload}-seed{seed}.json").write_text(json.dumps(record))
            print(f"pair {i} {name}: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    return out / "parent", out / "change"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--out", required=True)
    j = sub.add_parser("judge")
    j.add_argument("parent")
    j.add_argument("change")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.cmd == "pairs":
        parent_dir, change_dir = run_pairs(args, spec["run_seconds"])
    else:
        parent_dir, change_dir = args.parent, args.change
    rows = judge(load(parent_dir), load(change_dir), spec)
    if not rows:
        print("no workload has untraced results on both sides", file=sys.stderr)
        return 2
    print_rows(rows)
    failing = any(r["verdict"] in ("regression", "more failures")
                  or (r["verdict"] == "unresolved" and r["worse"] > r["bound"]) for r in rows)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
