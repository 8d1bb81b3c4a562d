"""Command line of the ledger: one workload (the driver's contract), the
whole set (``run``), or two sets side by side (``compare``)."""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

from benchmarks.ledger import REPO_ROOT
from benchmarks.ledger.compare import compare, load_result

#: A workload child that has not finished by then is killed with its fleet.
CHILD_TIMEOUT_S = 170.0
SKIP_ONE_CPU = "host_cpus<2"


def load_benchmark() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


def _skipped(workload: str) -> bool:
    """Never publish a scaling row from one core."""
    from benchmarks.ledger.workloads import WORKLOADS

    return WORKLOADS[workload].parallel and (os.cpu_count() or 1) < 2


# -- one workload -------------------------------------------------------------


def _print_outcome(out) -> None:
    host = out.host
    print(
        f"{out.workload}: seed {out.seed}, {out.pairs} pairs"
        f"{' (smoke)' if out.smoke else ''}; host_cpus {host['host_cpus']}, "
        f"load {host['loadavg_1m']:.2f}, python {host['python']}, "
        f"numpy {host['numpy']}, commit {host['git_commit'][:12]}"
    )
    print("  end to end (median [q1, q3] min..max; n is too small for a tail percentile):")
    for name, s in out.end_to_end.items():
        print(
            f"    {name:<34} {s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}] "
            f"{s['min']:.4f}..{s['max']:.4f} {s['unit']} n={s['n']}"
        )
    if out.per_layer:
        print("  per layer:")
    for name, m in out.per_layer.items():
        print(f"    {name:<34} {m['value']:.6g} {m['unit']}")
    print(f"  output sha256 {out.digest}")
    print(f"  operations failed {out.failed}/{out.attempted}")
    for problem in out.problems:
        print(f"  PROBLEM {problem}")


def _final_line(out, benchmark: dict, trace: bool) -> str:
    """The contract's last line: every declared metric of this mode, and
    nothing else."""
    declared = benchmark["per_layer" if trace else "end_to_end"]
    measured = out.per_layer if trace else out.end_to_end
    names = {m["name"] for m in declared}
    if out.correct and set(measured) != names:
        raise SystemExit(
            f"metrics emitted and BENCHMARK.json disagree: {sorted(set(measured) ^ names)}"
        )
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            continue  # every repetition failed: correct is false, no number invented
        if got["unit"] != m["unit"]:
            raise SystemExit(f"{m['name']}: unit {got['unit']} but {m['unit']} declared")
        metrics[m["name"]] = {"value": got["value" if trace else "median"], "unit": m["unit"]}
    return json.dumps(
        {
            "correct": out.correct,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": metrics,
        }
    )


def cmd_workload(args: argparse.Namespace, benchmark: dict, started: float) -> int:
    from benchmarks.ledger.harness import run_workload

    import_s = time.perf_counter() - started
    if _skipped(args.workload):
        print(f"{args.workload}: skipped: {SKIP_ONE_CPU}", file=sys.stderr)
        return 3
    out = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, import_s, args.out
    )
    _print_outcome(out)
    print(_final_line(out, benchmark, bool(args.trace)), flush=True)
    return 0


# -- the whole set ----------------------------------------------------------------


def _run_child(cmd: list[str]) -> int:
    """Run one workload in its own process group; a stuck one is killed,
    fleet and all, and reported as exit code 124."""
    proc = subprocess.Popen(cmd, cwd=REPO_ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 124


def cmd_run(args: argparse.Namespace, benchmark: dict) -> int:
    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    problems: list[str] = []
    results: dict[str, dict] = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        if _skipped(workload):
            print(f"{workload}: skipped: {SKIP_ONE_CPU}")
            with open(os.path.join(out_dir, f"result.{workload}.json"), "w", encoding="ascii") as fh:
                json.dump({"workload": workload, "skipped": SKIP_ONE_CPU}, fh)
            continue
        cmd = [
            sys.executable, "-m", "benchmarks.ledger",
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(benchmark["run_seconds"]),
            "--trace", "1",
            "--out", out_dir,
        ] + (["--smoke"] if args.smoke else [])
        sys.stdout.flush()
        code = _run_child(cmd)
        result = load_result(out_dir, workload) if code == 0 else None
        if result is None:
            problems.append(f"{workload}: child exited with code {code}")
        else:
            results[workload] = result
            problems += [f"{workload}: {p}" for p in result["problems"]]
    # Output checks across workloads: one VCF for every backend, one SAM
    # for both serializers; only the budgeted workload may evict.
    for prefix in ("wgs_", "clean_"):
        digests = {w: r["digest"] for w, r in results.items() if w.startswith(prefix)}
        if len(set(digests.values())) > 1:
            problems.append(f"{prefix}* outputs differ: {digests}")
    for workload, result in results.items():
        evictions = result["per_layer"].get("engine.block_evictions", {}).get("value")
        if evictions is not None and (evictions > 0) != (workload == "clean_codec"):
            problems.append(f"{workload}: engine.block_evictions = {evictions}")
    print(f"\nresults and spans in {out_dir}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("all output checks passed" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv: list[str], started: float) -> int:
    benchmark = load_benchmark()
    if argv and argv[0] == "run":
        parser = argparse.ArgumentParser(prog="benchmarks.ledger run")
        parser.add_argument("--seed", type=int, default=211)
        parser.add_argument("--out", required=True, help="directory for results and spans")
        parser.add_argument("--smoke", action="store_true", help="~150 pairs, one repetition")
        return cmd_run(parser.parse_args(argv[1:]), benchmark)
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="benchmarks.ledger compare")
        parser.add_argument("a", help="directory of the base set of results")
        parser.add_argument("b", help="directory of the set to judge")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b, benchmark)
    parser = argparse.ArgumentParser(prog="benchmarks.ledger")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=211)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="~150 pairs, one repetition")
    parser.add_argument("--out", help="directory for result.<workload>.json and spans")
    return cmd_workload(parser.parse_args(argv), benchmark, started)
