"""ChaosInjector: deterministic replay, fault realization, events."""

from __future__ import annotations

import errno
import pickle

import pytest

from repro.chaos import ChaosInjector, ChaosPlan, ChaosRule
from repro.engine.context import EngineConfig, GPFContext
from repro.engine.faults import InjectedFault
from repro.obs.events import EventBus, validate_event


def make(rules, seed=0, events=None):
    return ChaosInjector(ChaosPlan(seed=seed, rules=rules), events=events)


class TestTriggers:
    def test_nth_fires_exactly_once(self):
        injector = make([ChaosRule(site="s", fault="eio", nth=3)])
        injector.hit("s")
        injector.hit("s")
        with pytest.raises(OSError) as err:
            injector.hit("s")
        assert err.value.errno == errno.EIO
        for _ in range(10):
            injector.hit("s")  # never again
        assert injector.sequence() == [("s", "eio", 3)]

    def test_every_kth_hit(self):
        injector = make([ChaosRule(site="s", fault="die", every=2, max_faults=2)])
        fired = 0
        for _ in range(10):
            try:
                injector.hit("s")
            except InjectedFault:
                fired += 1
        assert fired == 2  # max_faults caps the every-trigger
        assert [h for _, _, h in injector.sequence()] == [2, 4]

    def test_probability_replays_identically(self):
        rules = [ChaosRule(site="s", fault="eio", probability=0.4)]
        sequences = []
        for _ in range(2):
            injector = make(rules, seed=123)
            for _ in range(50):
                try:
                    injector.hit("s")
                except OSError:
                    pass
            sequences.append(injector.sequence())
        assert sequences[0] == sequences[1]
        assert 0 < len(sequences[0]) < 50

    def test_different_seed_different_draws(self):
        rules = [ChaosRule(site="s", fault="eio", probability=0.4)]
        runs = {}
        for seed in (1, 2):
            injector = make(rules, seed=seed)
            for _ in range(50):
                try:
                    injector.hit("s")
                except OSError:
                    pass
            runs[seed] = injector.sequence()
        assert runs[1] != runs[2]

    def test_site_wildcard(self):
        injector = make([ChaosRule(site="block.*", fault="eio", every=1)])
        with pytest.raises(OSError):
            injector.hit("block.write")
        with pytest.raises(OSError):
            injector.hit("block.spill.fsync")
        injector.hit("shuffle.fetch")  # no match, no fault
        assert injector.injected == 2


class TestFaultRealization:
    def test_raising_kinds(self):
        cases = {
            "enospc": (OSError, errno.ENOSPC),
            "eio": (OSError, errno.EIO),
            "conn_reset": (ConnectionResetError, errno.ECONNRESET),
        }
        for fault, (exc_type, exc_errno) in cases.items():
            injector = make([ChaosRule(site="s", fault=fault, nth=1)])
            with pytest.raises(exc_type) as err:
                injector.hit("s")
            assert err.value.errno == exc_errno

    def test_die_and_exit(self):
        injector = make([ChaosRule(site="s", fault="die", nth=1)])
        with pytest.raises(InjectedFault):
            injector.hit("s")
        injector = make([ChaosRule(site="s", fault="exit", nth=1)])
        with pytest.raises(SystemExit):
            injector.hit("s")

    def test_slow_sleeps_but_returns(self):
        injector = make([ChaosRule(site="s", fault="slow", nth=1, delay=0.01)])
        injector.hit("s")  # sleeps 10ms, no exception
        assert injector.sequence() == [("s", "slow", 1)]


class TestMangle:
    def test_corrupt_flips_one_byte_deterministically(self):
        data = bytes(range(64))
        outputs = set()
        for _ in range(2):
            injector = make([ChaosRule(site="s", fault="corrupt", nth=1)], seed=5)
            outputs.add(injector.mangle("s", data))
        assert len(outputs) == 1
        (mangled,) = outputs
        assert mangled != data and len(mangled) == len(data)
        assert sum(1 for a, b in zip(data, mangled) if a != b) == 1

    def test_torn_truncates(self):
        injector = make([ChaosRule(site="s", fault="torn", nth=1)], seed=5)
        data = bytes(range(64))
        torn = injector.mangle("s", data)
        assert len(torn) < len(data)
        assert data.startswith(torn)

    def test_no_rule_passthrough(self):
        injector = make([ChaosRule(site="other", fault="corrupt", nth=1)])
        data = b"payload"
        assert injector.mangle("s", data) is data


class TestSkew:
    def test_skew_sums_firing_rules(self):
        injector = make(
            [
                ChaosRule(site="clock", fault="clock_skew", nth=1, skew=30.0),
                ChaosRule(site="clock", fault="clock_skew", nth=1, skew=-10.0),
            ]
        )
        assert injector.skew("clock") == pytest.approx(20.0)
        assert injector.skew("clock") == 0.0  # nth=1 rules are spent


class TestObservability:
    def test_chaos_inject_events_validate(self):
        bus = EventBus()
        seen: list[dict] = []
        bus.subscribe(seen.append)
        injector = make(
            [ChaosRule(site="s", fault="eio", every=2)], events=bus
        )
        for _ in range(4):
            try:
                injector.hit("s", path="x.bin")
            except OSError:
                pass
        kinds = [e["kind"] for e in seen]
        assert kinds == ["chaos.inject", "chaos.inject"]
        for event in seen:
            assert validate_event(event) == []
            assert event["site"] == "s" and event["fault"] == "eio"
            assert event["path"] == "x.bin"

    def test_task_injector_protocol(self, tmp_path):
        # The scheduler reports each attempt at the task.attempt site with
        # its identity; the retry of the killed attempt survives.
        config = EngineConfig(
            spill_dir=str(tmp_path / "spill"),
            chaos=ChaosPlan(rules=[ChaosRule(site="task.attempt", fault="die", nth=1)]),
        )
        with GPFContext(config) as ctx:
            assert ctx.parallelize([1, 2], 1).collect() == [1, 2]
            injector = ctx.chaos
            assert injector.site_hits("task.attempt") == 2
            (entry,) = injector.log
        assert entry["stage_kind"] == "result"
        assert (entry["partition"], entry["attempt"]) == (0, 0)
        assert ctx.metrics.failures[0].error_type == "InjectedFault"


class TestPickling:
    def test_pickle_drops_lock_and_events(self):
        bus = EventBus()
        injector = make([ChaosRule(site="s", fault="eio", nth=2)], events=bus)
        injector.hit("s")
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.events is None
        with pytest.raises(OSError):
            clone.hit("s")  # counters survived the round-trip
