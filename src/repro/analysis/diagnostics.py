"""Diagnostic model of the gpfcheck static analyzer.

Every rule in :mod:`repro.analysis` emits :class:`Diagnostic` records with
a stable ``GPF***`` code, so tests, CI gates and editors can match on the
code instead of the message text.  Codes are grouped by layer:

- ``GPF0xx`` — plan rules over the Process DAG,
- ``GPF1xx`` — optimizer cross-checks (Fig. 7 redundancy accounting),
- ``GPF2xx`` — closure analysis of functions shipped to RDD tasks,
- ``GPF3xx`` — concurrency & resource-safety rules over the framework's
  *own* source (``gpf lint --self``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class Severity(enum.IntEnum):
    """Ordered so that ``max(severities)`` is the worst one."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


#: Stable code registry: code -> one-line meaning.  Rules must register
#: here; ``tests`` assert that emitted codes exist in this table.
CODES: dict[str, str] = {
    # -- plan rules (GPF0xx) ------------------------------------------------
    "GPF001": "cycle in the Process DAG",
    "GPF002": "undefined input Resource with no producing Process",
    "GPF003": "Resource produced by more than one Process",
    "GPF004": "output Resource never consumed and never returned",
    "GPF005": "plan splits into disconnected components",
    "GPF006": "bundle type mismatch between wiring and declaration",
    "GPF007": "Process state machine not BLOCKED at plan time",
    "GPF008": "already-defined Resource also produced by a Process",
    # -- optimizer cross-checks (GPF1xx) ------------------------------------
    "GPF101": "fusable partition chain missed: mismatched PartitionInfo",
    "GPF102": "fusable partition chain broken by a side consumer",
    "GPF103": "partition chain will fuse (redundancy eliminated)",
    # -- closure analysis (GPF2xx) -------------------------------------------
    "GPF201": "nondeterministic call in an RDD closure",
    "GPF202": "RDD closure mutates captured driver-side state",
    "GPF203": "RDD closure captures a large object; broadcast it",
    "GPF204": "RDD closure captures an unseeded RNG or reads the wall clock",
    # -- framework self-analysis (GPF3xx) ------------------------------------
    "GPF301": "lock-guarded attribute accessed outside any lock context",
    "GPF302": "lock-acquisition cycle (potential deadlock)",
    "GPF303": "blocking call while holding a lock",
    "GPF304": "rename of a written file without fsync of file and directory",
    "GPF305": "wall-clock time.time() in deadline/duration arithmetic",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer."""

    code: str
    severity: Severity
    message: str
    #: Name of the Process the finding is attached to, if any.
    process: str | None = None
    #: Name of the Resource involved, if any.
    resource: str | None = None
    #: A short, actionable suggestion.
    fix_hint: str | None = None
    #: Source file the finding is anchored to (GPF3xx / source scans).
    file: str | None = None
    #: 1-based source line within :attr:`file`.
    line: int | None = None
    #: Stable identity for baseline matching: survives line-number drift
    #: (``code|file|scope|symbol``); ``None`` for plan/closure findings.
    fingerprint: str | None = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    def render(self) -> str:
        """One compiler-style line: ``error GPF002 [proc] message (hint)``."""
        where = []
        if self.process:
            where.append(f"process={self.process}")
        if self.resource:
            where.append(f"resource={self.resource}")
        location = f" [{', '.join(where)}]" if where else ""
        hint = f"  (fix: {self.fix_hint})" if self.fix_hint else ""
        prefix = ""
        if self.file:
            prefix = f"{self.file}:{self.line}: " if self.line else f"{self.file}: "
        return f"{prefix}{self.severity} {self.code}{location}: {self.message}{hint}"

    def to_json(self) -> dict:
        """Flat JSON document (the ``gpf lint --json`` record shape)."""
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "process": self.process,
            "resource": self.resource,
            "fix_hint": self.fix_hint,
            "file": self.file,
            "line": self.line,
            "fingerprint": self.fingerprint,
        }


@dataclass
class LintReport:
    """The ordered collection of diagnostics from one lint run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def extend(self, items: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(items)

    # -- queries ----------------------------------------------------------
    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def sorted(self) -> list[Diagnostic]:
        """Worst first, then by code, then by process name."""
        return sorted(
            self.diagnostics,
            key=lambda d: (-int(d.severity), d.code, d.process or "", d.resource or ""),
        )

    # -- rendering --------------------------------------------------------
    def render(self, min_severity: Severity = Severity.INFO) -> str:
        lines = [
            d.render() for d in self.sorted() if d.severity >= min_severity
        ]
        summary = (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info(s)"
        )
        return "\n".join(lines + [summary])

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __repr__(self) -> str:
        return (
            f"<LintReport errors={len(self.errors)} "
            f"warnings={len(self.warnings)} infos={len(self.infos)}>"
        )
