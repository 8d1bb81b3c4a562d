"""The deterministic chaos injector: named sites, replayable faults.

Code under test calls one of three hooks at a named injection site:

``hit(site, **detail)``
    May raise (``enospc``/``eio`` -> :class:`OSError`, ``die`` ->
    :class:`InjectedFault`, ``conn_reset`` ->
    :class:`ConnectionResetError`, ``exit`` -> :class:`SystemExit`) or
    delay the calling thread (``slow``/``hang`` sleep ``rule.delay``
    seconds, hard-capped — a chaos hang is *bounded* so the engine's
    ``task_timeout`` watchdog, never the injector, decides the outcome).
``mangle(site, data)``
    Returns ``data`` possibly damaged: ``corrupt`` flips one byte
    (exercising crc paths), ``torn`` truncates to a prefix (short
    write).
``skew(site)``
    Returns the summed clock offset (seconds) of firing ``clock_skew``
    rules, 0.0 when none fire.

Every decision is drawn from a per-rule RNG stream seeded by
``(plan.seed, rule index, site, fault)`` against a per-rule hit
counter, so the same plan + seed reproduces the identical ordered fault
sequence.  Each injection is appended to :attr:`ChaosInjector.log` and
published as a schema-validated ``chaos.inject`` event.

The injector is picklable (locks and event buses are dropped) so it can
ride into cluster workers; replay assertions should run on the serial or
thread backend where one process observes the whole sequence.
"""

from __future__ import annotations

import errno
import random
import threading
import time

from repro.chaos.plan import (
    DELAY_FAULTS,
    MANGLE_FAULTS,
    RAISING_FAULTS,
    SKEW_FAULTS,
    ChaosPlan,
    ChaosRule,
)
from repro.engine.faults import InjectedFault

#: Hard ceiling on any chaos-induced sleep: a "hang" is long enough to
#: trip the task watchdog, never long enough to wedge a run.
MAX_DELAY_SECONDS = 30.0


def _rule_rng(seed: int, index: int, rule: ChaosRule) -> random.Random:
    # String-keyed Random is stable across interpreters and runs
    # (unlike hash()-derived seeds under PYTHONHASHSEED randomization).
    return random.Random(f"{seed}:{index}:{rule.site}:{rule.fault}")


def _site_matches(pattern: str, site: str) -> bool:
    if pattern.endswith(".*"):
        return site.startswith(pattern[:-1]) or site == pattern[:-2]
    return site == pattern


class ChaosInjector:
    """Evaluates a :class:`ChaosPlan` at named injection sites."""

    def __init__(self, plan: ChaosPlan, events=None):
        self.plan = plan
        self.events = events
        #: Ordered record of every injection: dicts with site/fault/hit.
        self.log: list[dict] = []
        self._lock = threading.Lock()
        self._hits: list[int] = [0] * len(plan.rules)
        self._fired: list[int] = [0] * len(plan.rules)
        self._rngs = [
            _rule_rng(plan.seed, i, rule) for i, rule in enumerate(plan.rules)
        ]

    # -- decision core ---------------------------------------------------
    def _fire(self, site: str, kinds: frozenset) -> list[tuple[int, ChaosRule]]:
        """Which rules of the given kinds fire for this hit of ``site``.

        Counters and RNG draws happen under the lock; fault realization
        (raise/sleep/publish) happens in the callers, outside it.
        """
        fired: list[tuple[int, ChaosRule]] = []
        with self._lock:
            for i, rule in enumerate(self.plan.rules):
                if rule.fault not in kinds:
                    continue
                if not _site_matches(rule.site, site):
                    continue
                self._hits[i] += 1
                hits = self._hits[i]
                if (
                    rule.max_faults is not None
                    and self._fired[i] >= rule.max_faults
                ):
                    continue
                if rule.nth is not None:
                    fire = hits == rule.nth
                elif rule.every is not None:
                    fire = hits % rule.every == 0
                else:
                    fire = self._rngs[i].random() < rule.probability
                if fire:
                    self._fired[i] += 1
                    fired.append((i, rule))
        return fired

    def _record(self, site: str, fired: list[tuple[int, ChaosRule]], detail: dict):
        """Log and publish each firing — called outside the lock."""
        entries = []
        with self._lock:
            for i, rule in fired:
                entry = {
                    "site": site,
                    "fault": rule.fault,
                    "hit": self._hits[i],
                    "rule": i,
                }
                if detail:
                    entry.update(detail)
                self.log.append(entry)
                entries.append(entry)
        if self.events is not None:
            for entry in entries:
                self.events.publish("chaos.inject", **entry)

    # -- hooks -----------------------------------------------------------
    def hit(self, site: str, **detail) -> None:
        """Evaluate raise/delay rules at ``site``; may raise or sleep."""
        fired = self._fire(site, RAISING_FAULTS | DELAY_FAULTS)
        if not fired:
            return
        self._record(site, fired, detail)
        delay = 0.0
        error: BaseException | None = None
        for _, rule in fired:
            if rule.fault in DELAY_FAULTS:
                delay = max(delay, min(rule.delay, MAX_DELAY_SECONDS))
            elif error is None:
                error = self._realize(rule, site)
        if delay > 0:
            time.sleep(delay)
        if error is not None:
            raise error

    def mangle(self, site: str, data: bytes, **detail) -> bytes:
        """Evaluate corrupt/torn rules at ``site``; returns (damaged) data."""
        fired = self._fire(site, MANGLE_FAULTS)
        if not fired or not data:
            return data
        self._record(site, fired, detail)
        for i, rule in fired:
            rng = self._rngs[i]
            # Draws below come after the trigger draw in the same
            # per-rule stream, so they are equally replayable.
            with self._lock:
                if rule.fault == "corrupt":
                    pos = rng.randrange(len(data))
                    flip = rng.randrange(1, 256)
                    data = data[:pos] + bytes([data[pos] ^ flip]) + data[pos + 1 :]
                else:  # torn: keep a strict prefix (short write)
                    data = data[: rng.randrange(len(data))]
            if not data:
                break
        return data

    def skew(self, site: str, **detail) -> float:
        """Summed clock offset (seconds) of firing ``clock_skew`` rules."""
        fired = self._fire(site, SKEW_FAULTS)
        if not fired:
            return 0.0
        self._record(site, fired, detail)
        return sum(rule.skew for _, rule in fired)

    @staticmethod
    def _realize(rule: ChaosRule, site: str) -> BaseException:
        message = f"chaos {rule.fault} at {site}"
        if rule.fault == "enospc":
            return OSError(errno.ENOSPC, message)
        if rule.fault == "eio":
            return OSError(errno.EIO, message)
        if rule.fault == "die":
            return InjectedFault(message)
        if rule.fault == "conn_reset":
            return ConnectionResetError(errno.ECONNRESET, message)
        if rule.fault == "exit":
            return SystemExit(message)
        raise AssertionError(f"unrealizable fault {rule.fault!r}")

    # -- introspection ---------------------------------------------------
    @property
    def injected(self) -> int:
        with self._lock:
            return len(self.log)

    def sequence(self) -> list[tuple[str, str, int]]:
        """The ordered (site, fault, hit) sequence — the replay contract."""
        with self._lock:
            return [(e["site"], e["fault"], e["hit"]) for e in self.log]

    def site_hits(self, site: str) -> int:
        """Total times any rule matched ``site`` (fired or not)."""
        with self._lock:
            best = 0
            for i, rule in enumerate(self.plan.rules):
                if _site_matches(rule.site, site):
                    best = max(best, self._hits[i])
            return best

    def __repr__(self) -> str:
        return (
            f"<ChaosInjector seed={self.plan.seed} "
            f"rules={len(self.plan.rules)} injected={self.injected}>"
        )

    # -- pickling (rides into cluster workers in TASK frames) ------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        state["events"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
