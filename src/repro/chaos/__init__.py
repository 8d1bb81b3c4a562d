"""repro.chaos — deterministic cross-layer fault injection.

One seeded :class:`ChaosPlan` drives every injected fault in a run:
disk errors and corruption in the block manager's spill, the journal,
and the shuffle; task-level deaths and hangs in the scheduler;
worker deaths, connection resets, and clock skew in the serve layer.
Every injection is published as a ``chaos.inject`` event, and the same
plan + seed always reproduces the identical fault sequence — failure
scenarios are replayable artifacts, not flakes.

See DESIGN.md §13 for the architecture and the injection-site catalog.
"""

from repro.chaos.injector import MAX_DELAY_SECONDS, ChaosInjector
from repro.chaos.plan import (
    DELAY_FAULTS,
    FAULT_KINDS,
    MANGLE_FAULTS,
    RAISING_FAULTS,
    SKEW_FAULTS,
    ChaosPlan,
    ChaosRule,
)
from repro.chaos.scenarios import (
    SCENARIOS,
    ScenarioOutcome,
    run_scenario,
    run_suite,
)

__all__ = [
    "ChaosInjector",
    "ChaosPlan",
    "ChaosRule",
    "ScenarioOutcome",
    "SCENARIOS",
    "run_scenario",
    "run_suite",
    "FAULT_KINDS",
    "RAISING_FAULTS",
    "DELAY_FAULTS",
    "MANGLE_FAULTS",
    "SKEW_FAULTS",
    "MAX_DELAY_SECONDS",
]
