"""Layered performance ledger: five workloads, end-to-end and per-layer
metrics, one command.

The ledger measures the engine from the outside — it times calls into
public functions and reads public counters after a run — and changes
nothing under ``src/``.  ``BENCHMARK.json`` at the repository root
declares every workload and metric by name; ``README.md`` in this
directory is the glossary.

    python3 -m benchmarks.ledger --workload wgs_serial --seed 211 --seconds 12 --trace 0
    python3 -m benchmarks.ledger run --seed 211 --out DIR
    python3 -m benchmarks.ledger compare A/ B/
"""

import os

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
