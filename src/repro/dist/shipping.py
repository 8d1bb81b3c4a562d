"""Closure shipping: task bodies cross the wire with stdlib pickle only.

Two problems stand between the scheduler's task bodies and a socket:

1. They are *closures* — lambdas and nested functions capturing RDDs,
   dependencies, splits — and plain pickle refuses functions that are
   not importable module attributes.
2. They (transitively) capture the driver :class:`GPFContext`, whose
   executor, locks, and sockets must never ship.

:class:`ShipPickler` solves both.  Functions that *are* importable
pickle by reference as usual (the fleet runs the same source tree).
Everything else ships **by value**: the code object is marshalled, the
closure cells and the referenced globals are pickled recursively
through the same pickler (so a lambda capturing a lambda works), and
the worker rebuilds a live function with ``types.FunctionType``.  The
driver context is swapped for a persistent-id token that the worker's
unpickler resolves to its own :class:`~repro.dist.worker.WorkerContext`.

A task ships its **stage, not its lineage**.  An RDD whose shuffle
dependencies are all written (each has a ``shuffle_id``) pickles as a
copy with the map side removed: its parents lose the deps' parent RDDs
and each dep becomes ``ShuffleDependency(None, partitioner,
shuffle_id=...)``.  ``ShuffledRDD`` reads a written shuffle by id
alone, so the DAG above the shuffle never crosses the wire — Spark's
``@transient`` ``ShuffleDependency.rdd``.  The driver's
own objects are untouched: its scheduler regenerates a lost map output
from its full lineage, so a reduce task never needs the map side.  An
RDD with any unwritten dep ships whole, as the map stage it is part of.

``ParallelCollectionRDD`` slices additionally ship as the serializer's
§4.1-codec payload rather than as pickled record lists — task ship
traffic shrinks by the codec's compression ratio, and the slice stays
a block until the task that reads it decodes it.  A task ships only its
own slice: every narrow dependency is one-to-one, so task ``p`` reads
split ``p`` of its source RDD and nothing else.  The other slots ship as
markers that raise :class:`SliceNotShippedError` if a task lists them.

Limits (all safe): marshalled code requires the same interpreter
version on both ends — true for loopback fleets and documented for real
ones; a function whose cell is still empty (recursive forward
reference) raises ``PicklingError``, which the cluster transport turns
into an inline local fallback, never a wrong answer.
"""

from __future__ import annotations

import builtins
import copyreg
import importlib
import io
import marshal
import pickle
import types

from repro.engine.rdd import RDD, ParallelCollectionRDD, ShuffleDependency

#: Persistent-id token standing in for the driver context.
CTX_TOKEN = "gpf:ctx"


def _is_importable(func: types.FunctionType) -> bool:
    """True when plain pickle could ship this function by reference.

    Lambdas and nested functions have ``<lambda>``/``<locals>`` in the
    qualname and fail the attribute walk; module-level functions (and
    methods of module-level classes) resolve to themselves.
    """
    module = getattr(func, "__module__", None)
    if not module:
        return False
    try:
        obj: object = importlib.import_module(module)
        for part in func.__qualname__.split("."):
            obj = getattr(obj, part)
    except Exception:  # noqa: BLE001 - any lookup failure => not importable
        return False
    return obj is func


def _referenced_globals(code: types.CodeType, globals_dict: dict) -> dict:
    """The subset of ``globals_dict`` the code (or nested code) names."""
    names: set[str] = set(code.co_names)
    stack = [code]
    while stack:
        current = stack.pop()
        for const in current.co_consts:
            if isinstance(const, types.CodeType):
                names.update(const.co_names)
                stack.append(const)
    return {name: globals_dict[name] for name in names if name in globals_dict}


def _restore_function(
    code_bytes: bytes,
    name: str,
    defaults: tuple | None,
    cell_values: tuple,
    globals_items: tuple,
    kwdefaults: dict | None,
    func_dict: dict | None,
):
    """Worker-side inverse of the by-value function reduce."""
    code = marshal.loads(code_bytes)
    globs = dict(globals_items)
    globs["__builtins__"] = builtins
    cells = tuple(types.CellType(value) for value in cell_values)
    func = types.FunctionType(code, globs, name, defaults, cells or None)
    if kwdefaults:
        func.__kwdefaults__ = kwdefaults
    if func_dict:
        func.__dict__.update(func_dict)
    return func


class SliceNotShippedError(LookupError):
    """A shipped task listed a ``parallelize`` slice other than its own."""


class _ShippedSlice:
    """A task's own ``parallelize`` slice as shipped: its serializer bytes,
    decoded when the task lists it."""

    __slots__ = ("blob", "serializer")

    def __init__(self, blob: bytes, serializer):
        self.blob = blob
        self.serializer = serializer

    def __iter__(self):
        return iter(self.serializer.loads(self.blob))


class _UnshippedSlice:
    """The slot of a slice another task reads: it did not ship."""

    __slots__ = ("split",)

    def __init__(self, split: int):
        self.split = split

    def __iter__(self):
        raise SliceNotShippedError(
            f"parallelize slice {self.split} was not shipped with this task"
        )


def _import_module(name: str):
    return importlib.import_module(name)


class ShipPickler(pickle.Pickler):
    """Pickler that makes lineage closures and contexts wire-safe."""

    def __init__(self, file, ctx, split: int | None = None):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._ctx = ctx
        self._serializer = getattr(ctx, "serializer", None)
        self._split = split

    # The driver context never crosses the wire; the worker substitutes
    # its own.  Identity comparison: a context is unique per driver.
    def persistent_id(self, obj):
        if obj is self._ctx:
            return CTX_TOKEN
        return None

    def reducer_override(self, obj):
        if isinstance(obj, types.FunctionType):
            if _is_importable(obj):
                return NotImplemented  # by reference, as usual
            return self._reduce_function(obj)
        if isinstance(obj, types.ModuleType):
            # Modules captured in closures (``import numpy as np`` at
            # module scope, referenced by a shipped lambda).
            return (_import_module, (obj.__name__,))
        if self._serializer is not None and isinstance(obj, ParallelCollectionRDD):
            return self._reduce_pcrdd(obj)
        if isinstance(obj, RDD) and obj.shuffle_deps and all(
            dep.shuffle_id is not None for dep in obj.shuffle_deps
        ):
            return self._reduce_written_shuffle(obj)
        return NotImplemented

    def _reduce_function(self, func: types.FunctionType):
        try:
            cell_values = tuple(
                cell.cell_contents for cell in (func.__closure__ or ())
            )
        except ValueError as exc:  # empty cell: recursive forward ref
            raise pickle.PicklingError(
                f"cannot ship {func.__qualname__}: unresolved closure cell"
            ) from exc
        code = func.__code__
        globals_needed = _referenced_globals(code, func.__globals__)
        return (
            _restore_function,
            (
                marshal.dumps(code),
                func.__name__,
                func.__defaults__,
                cell_values,
                tuple(globals_needed.items()),
                func.__kwdefaults__,
                dict(func.__dict__) or None,
            ),
        )

    def _reduce_written_shuffle(self, rdd):
        """Ship a shuffle-reading RDD without the map side of its deps."""
        map_side = {id(dep.parent) for dep in rdd.shuffle_deps}
        state = dict(rdd.__dict__)
        state["parents"] = [p for p in rdd.parents if id(p) not in map_side]
        state["shuffle_deps"] = [
            ShuffleDependency(None, dep.partitioner, shuffle_id=dep.shuffle_id)
            for dep in rdd.shuffle_deps
        ]
        # The default reduce with a replaced state: the copy is memoized
        # before its state pickles, so references back to it still resolve.
        return (copyreg.__newobj__, (type(rdd),), state)

    def _reduce_pcrdd(self, rdd):
        """Ship parallelize() source data as the serializer's bytes: the
        task's own slice only, when the pickler was given its split."""
        state = dict(rdd.__dict__)
        state["_slices"] = [
            self._shipped_slice(split, part) for split, part in enumerate(rdd._slices)
        ]
        return (copyreg.__newobj__, (type(rdd),), state)

    def _shipped_slice(self, split: int, part):
        if self._split is not None and split != self._split:
            return _UnshippedSlice(split)
        elements = part if isinstance(part, list) else list(part)
        if not elements:
            return []
        return _ShippedSlice(self._serializer.dumps(elements), self._serializer)


class ShipUnpickler(pickle.Unpickler):
    """Worker-side unpickler resolving the context token."""

    def __init__(self, file, ctx):
        super().__init__(file)
        self._ctx = ctx

    def persistent_load(self, pid):
        if pid == CTX_TOKEN:
            return self._ctx
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def ship_dumps(obj, ctx, split: int | None = None) -> bytes:
    """Serialize ``obj`` for the wire, swapping out the driver ``ctx``.

    With ``split``, the task that reads partition ``split`` is shipped:
    of every ``parallelize`` source only that slice travels.
    """
    buffer = io.BytesIO()
    ShipPickler(buffer, ctx, split).dump(obj)
    return buffer.getvalue()


def ship_loads(blob: bytes, ctx):
    """Inverse of :func:`ship_dumps`: the token resolves to ``ctx``."""
    return ShipUnpickler(io.BytesIO(blob), ctx).load()
