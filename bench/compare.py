"""Compare two sets of benchmark runs, or check that counts repeat.

    python3 bench/compare.py PARENT CHANGE
    python3 bench/compare.py --counts TRACED_A.json TRACED_B.json

PARENT and CHANGE are directories (searched recursively) or files of run
records written by ``run.py`` (``<workload>-seed<N>-trace0.json``).  For
each workload and end-to-end metric in BENCHMARK.json it prints both sides'
median and quartiles and a verdict, with one summary row per workload that
also gives each side's fail_frac (failed ops / attempted ops):

- ``unresolved``: either side's spread (quartile distance over median) is
  wider than the metric's bound, unless every change run beats every
  parent run;
- ``worse``: the change's median is worse than the parent's by more than
  the bound (a share of the parent's median);
- ``better``: the medians differ by more than the parent's quartile
  distance and the change wins at least nine in ten of the runs paired by
  seed order;
- ``same``: none of these.

Both sides must have taken their latency medians over the same number of
repeats (``repeats`` in each record, fixed by ``--seconds``); sets that
differ there are not compared, and the exit status is 2.

Exit status 1 when a verdict is ``worse`` or the change failed an op.

``--counts`` reads two records of traced runs and exits 1 unless every
metric with unit ``count`` has the same value in both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> dict[str, list[dict]]:
    """Untraced run records by workload, sorted by seed."""
    p = Path(path)
    files = sorted(p.rglob("*-trace0.json")) if p.is_dir() else [p]
    out: dict[str, list[dict]] = {}
    for f in files:
        rec = json.loads(f.read_text())
        env = rec.get("environment", {})
        if env.get("trace") != 0:
            continue
        out.setdefault(env["workload"], []).append(rec)
    for recs in out.values():
        recs.sort(key=lambda r: r["environment"]["seed"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], bound: float, higher_better: bool) -> str:
    sign = -1.0 if higher_better else 1.0  # makes "larger" mean "worse"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if ((p3 - p1) / abs(pm) > bound or (c3 - c1) / abs(cm) > bound) and not all_better:
        return "unresolved"
    if sign * (cm - pm) / abs(pm) > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(sign * c < sign * p for p, c in pairs)
    if sign * (pm - cm) > p3 - p1 and wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def fail_frac(recs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in recs)
    return sum(r["failed"] for r in recs) / attempted if attempted else float("nan")


def repeat_counts(parent: dict[str, list[dict]], change: dict[str, list[dict]]) -> list[str]:
    """Workloads whose runs do not all share one repeat count."""
    bad = []
    for wl in sorted(set(parent) | set(change)):
        counts = {r.get("repeats") for r in parent.get(wl, []) + change.get(wl, [])}
        if len(counts) != 1:
            bad.append(f"{wl}: repeat counts {sorted(counts, key=str)}")
    return bad


def compare(parent_path: str, change_path: str, bench: dict) -> int:
    parent, change = load_runs(parent_path), load_runs(change_path)
    mixed = repeat_counts(parent, change)
    if mixed:
        print("not comparable: runs took their medians over different numbers of repeats "
              "(run both sides with the same --seconds)")
        print("\n".join(mixed))
        return 2
    metrics = bench["end_to_end"]
    status = 0
    details = []
    header = f"{'workload':<11} {'runs':>7} {'fail_frac':>15}  " + "  ".join(
        f"{m['name']:>20}" for m in metrics)
    print(header)
    for wl in [w["name"] for w in bench["workloads"]]:
        p, c = parent.get(wl, []), change.get(wl, [])
        if not p or not c:
            print(f"{wl:<11} missing runs (parent {len(p)}, change {len(c)})")
            continue
        cells = []
        for m in metrics:
            pv = [r["metrics"][m["name"]]["value"] for r in p]
            cv = [r["metrics"][m["name"]]["value"] for r in c]
            v = verdict(pv, cv, m["bound"], m["better"] == "higher")
            status |= v == "worse"
            pm, cm = quartiles(pv)[1], quartiles(cv)[1]
            cells.append(f"{v} {100.0 * (cm - pm) / pm:+.1f}%")
            details.append(
                f"{wl:<11} {m['name']:<12} parent {pm:.6g} [{quartiles(pv)[0]:.6g}, "
                f"{quartiles(pv)[2]:.6g}]  change {cm:.6g} [{quartiles(cv)[0]:.6g}, "
                f"{quartiles(cv)[2]:.6g}] {m['unit']}  bound {m['better']} {m['bound']:.0%}  {v}")
        pf, cf = fail_frac(p), fail_frac(c)
        status |= cf > 0
        print(f"{wl:<11} {len(p):>3}/{len(c):<3} {pf:>7.4f}/{cf:<7.4f}  "
              + "  ".join(f"{cell:>20}" for cell in cells))
    print()
    print("\n".join(details))
    return 1 if status else 0


def check_counts(a_path: str, b_path: str) -> int:
    a = json.loads(Path(a_path).read_text())["metrics"]
    b = json.loads(Path(b_path).read_text())["metrics"]
    names = sorted(n for n in set(a) | set(b)
                   if a.get(n, b.get(n))["unit"] == "count")
    diff = [n for n in names if a.get(n, {}).get("value") != b.get(n, {}).get("value")]
    for n in diff:
        print(f"differs: {n} {a.get(n, {}).get('value')} != {b.get(n, {}).get('value')}")
    print(f"{len(names) - len(diff)}/{len(names)} count metrics identical")
    return 1 if diff or not names else 0


def main() -> int:
    ap = argparse.ArgumentParser(description="compare benchmark run sets")
    ap.add_argument("--counts", action="store_true",
                    help="check that two traced run records have identical counts")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    ap.add_argument("parent", help="parent runs: a directory or a record file")
    ap.add_argument("change", help="change runs: a directory or a record file")
    args = ap.parse_args()
    if args.counts:
        return check_counts(args.parent, args.change)
    bench = json.loads(Path(args.benchmark).read_text())
    return compare(args.parent, args.change, bench)


if __name__ == "__main__":
    sys.exit(main())
