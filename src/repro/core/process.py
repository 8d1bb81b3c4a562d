"""Process: the execution half of GPF's programming model (paper §3.1).

A Process is "an execution instance which is involved in data input, data
processing, and data output" and walks the Fig. 2 state machine::

    BLOCKED --(all input Resources defined)--> READY --(issue)--> RUNNING
    RUNNING --(finish; outputs defined)--> END

Subclasses implement :meth:`execute`, which reads ``self.inputs`` values
and defines ``self.outputs``.  The Ready state exists so the pipeline's
dependency analysis (and the Fig. 7 redundancy elimination) can reorder
and fuse Processes before anything is submitted to the engine.
"""

from __future__ import annotations

import enum
from typing import Sequence, TYPE_CHECKING

from repro.core.resource import Resource

if TYPE_CHECKING:
    from repro.engine.context import GPFContext


class ProcessState(enum.Enum):
    BLOCKED = "blocked"
    READY = "ready"
    RUNNING = "running"
    END = "end"


class Process:
    """Base class for every pipeline step."""

    def __init__(
        self,
        name: str,
        inputs: Sequence[Resource],
        outputs: Sequence[Resource],
        input_types: Sequence[type | None] | None = None,
        output_types: Sequence[type | None] | None = None,
    ):
        self.name = name
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        #: Optional per-slot Resource-class declarations checked by
        #: gpfcheck's GPF006 rule (None entries mean "any").
        self.input_types = self._check_spec("input", self.inputs, input_types)
        self.output_types = self._check_spec(
            "output", self.outputs, output_types
        )
        self._state = ProcessState.BLOCKED

    @staticmethod
    def _check_spec(
        kind: str,
        resources: list[Resource],
        types: Sequence[type | None] | None,
    ) -> tuple[type | None, ...] | None:
        if types is None:
            return None
        types = tuple(types)
        if len(types) != len(resources):
            raise ValueError(
                f"{kind}_types has {len(types)} entries for "
                f"{len(resources)} {kind} resources"
            )
        return types

    # -- state machine -------------------------------------------------------
    @property
    def state(self) -> ProcessState:
        return self._state

    def refresh_state(self) -> ProcessState:
        """BLOCKED -> READY when every input Resource is defined."""
        if self._state is ProcessState.BLOCKED and all(
            r.is_defined for r in self.inputs
        ):
            self._state = ProcessState.READY
        return self._state

    def reset(self) -> None:
        """Re-block the state machine so the Process can run again.

        The public counterpart of the BLOCKED->...->END walk: undefines
        every output this Process produced and returns to BLOCKED.  Input
        Resources are left alone (they may be user inputs or another
        Process's outputs).
        """
        for resource in self.outputs:
            if resource.is_defined:
                resource.undefine()
        self._state = ProcessState.BLOCKED

    def run(self, ctx: "GPFContext") -> None:
        """Issue the Process: READY -> RUNNING -> END."""
        self.refresh_state()
        if self._state is not ProcessState.READY:
            undefined = [r.name for r in self.inputs if not r.is_defined]
            raise RuntimeError(
                f"process {self.name!r} issued while {self._state.value}; "
                f"undefined inputs: {undefined}"
            )
        self._state = ProcessState.RUNNING
        defined_before = [r.is_defined for r in self.outputs]
        try:
            with ctx.tracer.span(f"process:{self.name}", kind="process"):
                self.execute(ctx)
        except Exception:
            # Roll back outputs the failed attempt defined, so a retried
            # plan does not see phantom Resources.
            for resource, was_defined in zip(self.outputs, defined_before):
                if resource.is_defined and not was_defined:
                    resource.undefine()
            self._state = ProcessState.BLOCKED
            raise
        not_defined = [r.name for r in self.outputs if not r.is_defined]
        if not_defined:
            raise RuntimeError(
                f"process {self.name!r} finished without defining outputs: "
                f"{not_defined}"
            )
        self._state = ProcessState.END

    def restore_outputs(self) -> None:
        """Mark the Process finished after its outputs were re-defined
        from a run journal (crash resume) instead of by :meth:`execute`."""
        not_defined = [r.name for r in self.outputs if not r.is_defined]
        if not_defined:
            raise RuntimeError(
                f"process {self.name!r} restored without defined outputs: "
                f"{not_defined}"
            )
        self._state = ProcessState.END

    # -- to be implemented ------------------------------------------------
    def execute(self, ctx: "GPFContext") -> None:
        raise NotImplementedError

    # -- classification hooks used by the optimizer ---------------------------
    @property
    def is_partition_process(self) -> bool:
        """True for Processes whose work is dominated by re-partitioning
        FASTA/SAM/VCF RDDs and joining them into a bundle RDD (Fig. 7)."""
        return False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} {self._state.value}>"
