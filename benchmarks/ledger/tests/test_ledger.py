"""The ledger's own checks, on a smoke-sized run of all five workloads.

Not part of the tier-1 suite (``testpaths`` is ``tests``); run with

    PYTHONPATH=src python -m pytest benchmarks/ledger/tests
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from benchmarks.ledger import REPO_ROOT, cli
from benchmarks.ledger.compare import compare, verdict

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = cli.load_benchmark()
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _ledger(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", *args],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke_dir(tmp_path_factory) -> str:
    out = str(tmp_path_factory.mktemp("ledger"))
    proc = _ledger("run", "--seed", "211", "--out", out, "--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return out


def _result(directory: str, workload: str) -> dict:
    with open(os.path.join(directory, f"result.{workload}.json")) as fh:
        return json.load(fh)


def test_benchmark_json_is_within_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(WORKLOADS) <= 8 and len(BENCHMARK["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(smoke_dir, workload):
    result = _result(smoke_dir, workload)
    assert result["correct"] and result["failed"] == 0, result["problems"]
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        emitted = {name: m["unit"] for name, m in result[kind].items()}
        assert emitted == declared
    host = result["host"]
    assert host["host_cpus"] >= 1 and host["python"] and host["numpy"] and host["git_commit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_parse_and_nest(smoke_dir, workload):
    with open(os.path.join(smoke_dir, f"spans.{workload}.jsonl")) as fh:
        spans = {s["id"]: s for s in map(json.loads, fh)}
    assert any(s["name"] == f"run:{workload}" for s in spans.values())
    assert any(s["name"].startswith("replay:") for s in spans.values())
    for span in spans.values():
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    # Self times of the replay's children account for the replay.
    root = next(s for s in spans.values() if s["name"].startswith("replay:"))
    covered = sum(s["end"] - s["start"] for s in spans.values() if s["parent"] == root["id"])
    assert covered >= 0.95 * (root["end"] - root["start"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_replay_is_attributed(smoke_dir, workload):
    per_layer = _result(smoke_dir, workload)["per_layer"]
    assert per_layer["obs.replay_unattributed_frac"]["value"] <= 0.05
    assert per_layer["obs.trace_events"]["value"] > 0


def test_outputs_agree_and_only_the_budgeted_workload_evicts(smoke_dir):
    results = {w: _result(smoke_dir, w) for w in WORKLOADS}
    for prefix in ("wgs_", "clean_"):
        assert len({r["digest"] for w, r in results.items() if w.startswith(prefix)}) == 1
    for workload, result in results.items():
        evicted = result["per_layer"]["engine.block_evictions"]["value"] > 0
        assert evicted == (workload == "clean_codec")


def test_last_line_of_one_workload_is_the_contract():
    proc = _ledger(
        "--workload", "clean_compact", "--seed", "5", "--seconds", "0", "--trace", "0", "--smoke"
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_compare_of_a_set_with_itself_is_the_same(smoke_dir, capsys):
    assert compare(smoke_dir, smoke_dir, BENCHMARK) == 0
    printed = capsys.readouterr().out
    assert "worse" not in printed.replace("nothing worse", "")
    assert printed.count(" same") >= len(WORKLOADS) * len(BENCHMARK["end_to_end"])


def test_verdicts():
    def stat(median, iqr=0.0):
        return {"median": median, "q1": median - iqr / 2, "q3": median + iqr / 2}

    assert verdict(stat(10.0), stat(10.4), 0.05, "lower") == "same"
    assert verdict(stat(10.0), stat(11.0), 0.05, "lower") == "worse"
    assert verdict(stat(10.0), stat(9.0), 0.05, "lower") == "better"
    assert verdict(stat(10.0), stat(9.0), 0.05, "higher") == "worse"
    assert verdict(stat(10.0, iqr=1.0), stat(11.0), 0.05, "lower") == "unresolved"


def test_parallel_workloads_are_skipped_on_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert cli._skipped("wgs_process2") and cli._skipped("wgs_cluster2")
    assert not cli._skipped("wgs_serial") and not cli._skipped("clean_codec")
