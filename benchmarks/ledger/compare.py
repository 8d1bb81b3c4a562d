"""``compare A/ B/``: did B get worse than A, by the benchmark's own bounds."""

from __future__ import annotations

import json
import os


def load_result(directory: str, workload: str) -> dict | None:
    path = os.path.join(directory, f"result.{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _spread(stat: dict) -> float:
    """Inter-quartile range as a share of the median."""
    return (stat["q3"] - stat["q1"]) / stat["median"]


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """``same | better | worse | unresolved`` for one metric's two summaries.

    Unresolved means the run-to-run spread of either side is wider than
    the bound, so a move of that size could not be told from noise.
    """
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    change = b["median"] / a["median"] - 1.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(a_dir: str, b_dir: str, benchmark: dict) -> int:
    """Print one row per (workload, end-to-end metric); 1 if any is worse."""
    worse = 0
    print(f"A = {a_dir}\nB = {b_dir}")
    for workload in (w["name"] for w in benchmark["workloads"]):
        a, b = load_result(a_dir, workload), load_result(b_dir, workload)
        print(f"\n{workload}")
        if a is None or b is None:
            print(f"  missing in {'A' if a is None else 'B'}")
            worse += 1
            continue
        skipped = a.get("skipped") or b.get("skipped")
        if skipped:
            print(f"  skipped: {skipped}")
            continue
        for metric in benchmark["end_to_end"]:
            sa, sb = a["end_to_end"].get(metric["name"]), b["end_to_end"].get(metric["name"])
            if sa is None or sb is None:
                print(f"  {metric['name']:<12} not measured (every repetition failed)")
                continue
            result = verdict(sa, sb, metric["bound"], metric["better"])
            worse += result == "worse"
            print(
                f"  {metric['name']:<12} "
                f"A {sa['median']:.4f} [{sa['q1']:.4f}, {sa['q3']:.4f}] n={sa['n']}   "
                f"B {sb['median']:.4f} [{sb['q1']:.4f}, {sb['q3']:.4f}] n={sb['n']} {sb['unit']}   "
                f"B/A {sb['median'] / sa['median']:.3f} (base A {sa['median']:.4f} {sa['unit']}, "
                f"bound {metric['bound']})   {result}"
            )
        fa, fb = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        failed = "worse" if fb > fa else "same"
        worse += fb > fa
        print(
            f"  {'failed':<12} A {a['failed']}/{a['attempted']}   "
            f"B {b['failed']}/{b['attempted']}   {failed}"
        )
        if a["digest"] != b["digest"]:
            print(f"  output digest changed: {a['digest'][:12]} -> {b['digest'][:12]}")
        # Counts repeat exactly on one commit and seed (fetch counts of the
        # cluster backend aside), so any that moved is worth a line.
        for name, ma in a["per_layer"].items():
            mb = b["per_layer"].get(name)
            if mb and ma["unit"] in ("count", "bytes") and ma["value"] != mb["value"]:
                print(f"  count moved  {name}: {ma['value']} -> {mb['value']} {ma['unit']}")
    print(f"\n{worse} worse" if worse else "\nnothing worse")
    return 1 if worse else 0
