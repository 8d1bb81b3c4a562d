"""Declarative chaos plans: which faults fire where, and when.

A :class:`ChaosPlan` is the replayable unit of fault injection: a seed
plus an ordered list of :class:`ChaosRule`\\ s.  Each rule names an
injection *site* (a dotted string like ``"block.spill"`` — the catalog
lives in DESIGN.md §13), a *fault* kind, and exactly one trigger:

``probability``
    Fire on each hit with probability p, drawn from a per-rule RNG
    stream seeded by ``(plan.seed, rule index, site, fault)`` — so the
    same plan + seed reproduces the identical fault sequence.
``nth``
    Fire exactly on the nth hit of the site (1-based), once.
``every``
    Fire on every kth hit (k, 2k, 3k, ...).

Plans serialize to/from JSON so a failure sequence found by the chaos
CLI can be committed as a regression scenario.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Fault kinds that raise when the site is hit.
RAISING_FAULTS = frozenset({"enospc", "eio", "die", "conn_reset", "exit"})
#: Fault kinds that delay the hitting thread (bounded by ``delay``).
DELAY_FAULTS = frozenset({"slow", "hang"})
#: Fault kinds that mangle bytes passing through the site.
MANGLE_FAULTS = frozenset({"corrupt", "torn"})
#: Fault kinds that skew values (clock offsets) read at the site.
SKEW_FAULTS = frozenset({"clock_skew"})

FAULT_KINDS = RAISING_FAULTS | DELAY_FAULTS | MANGLE_FAULTS | SKEW_FAULTS


@dataclass
class ChaosRule:
    """One fault source: *site* x *fault* x trigger."""

    site: str
    fault: str
    probability: float | None = None
    nth: int | None = None
    every: int | None = None
    #: Stop firing after this many injections (None = unbounded).
    max_faults: int | None = None
    #: Seconds for ``slow``/``hang`` faults (hang should exceed the
    #: engine's ``task_timeout`` so the watchdog, not the sleep, ends it).
    delay: float = 0.05
    #: Seconds of clock skew for ``clock_skew`` faults.
    skew: float = 0.0

    def __post_init__(self) -> None:
        if not self.site or not isinstance(self.site, str):
            raise ValueError("ChaosRule.site must be a non-empty string")
        if self.fault not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault {self.fault!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        triggers = [
            t for t in (self.probability, self.nth, self.every) if t is not None
        ]
        if len(triggers) != 1:
            raise ValueError(
                "exactly one of probability/nth/every must be set "
                f"(rule {self.site}:{self.fault})"
            )
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.nth is not None and self.nth < 1:
            raise ValueError("nth counts hits from 1")
        if self.every is not None and self.every < 1:
            raise ValueError("every must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")

    def to_dict(self) -> dict:
        out: dict = {"site": self.site, "fault": self.fault}
        for key in ("probability", "nth", "every", "max_faults"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.fault in DELAY_FAULTS:
            out["delay"] = self.delay
        if self.fault in SKEW_FAULTS:
            out["skew"] = self.skew
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosRule":
        allowed = {
            "site", "fault", "probability", "nth", "every",
            "max_faults", "delay", "skew",
        }
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown ChaosRule fields: {sorted(unknown)}")
        return cls(**data)


@dataclass
class ChaosPlan:
    """A seed plus rules: the complete, replayable fault configuration."""

    seed: int = 0
    rules: list[ChaosRule] = field(default_factory=list)
    name: str = ""

    def __post_init__(self) -> None:
        self.rules = [
            r if isinstance(r, ChaosRule) else ChaosRule.from_dict(r)
            for r in self.rules
        ]

    def with_seed(self, seed: int) -> "ChaosPlan":
        """Same rules under a different seed (re-rolls probability draws)."""
        return ChaosPlan(seed=seed, rules=list(self.rules), name=self.name)

    def sites(self) -> list[str]:
        return sorted({rule.site for rule in self.rules})

    def to_dict(self) -> dict:
        out: dict = {"seed": self.seed, "rules": [r.to_dict() for r in self.rules]}
        if self.name:
            out["name"] = self.name
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosPlan":
        return cls(
            seed=int(data.get("seed", 0)),
            rules=[ChaosRule.from_dict(r) for r in data.get("rules", [])],
            name=str(data.get("name", "")),
        )

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "ChaosPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")
