"""Layer 3 of gpfcheck: driver-side closure analysis.

Functions handed to ``RDD.map/flat_map/filter/map_partitions`` execute
inside tasks.  Three classic Spark closure mistakes are statically
detectable on the driver before anything runs:

- **GPF201 nondeterminism** — calling module-level ``random.*``,
  ``time.time``, ``os.urandom``, ``uuid.uuid4`` or ``numpy.random.*``
  inside a task function makes re-computed (evicted / retried) partitions
  disagree with their first materialization, silently corrupting lineage
  recovery.  A seeded generator (``random.seed``/``default_rng(seed)``)
  is deterministic and suppresses the finding.
- **GPF202 captured-state mutation** — appending to / assigning into a
  captured driver-side container from inside the closure.  On a real
  cluster the mutation happens to a serialized *copy* on the executor and
  the driver never sees it; in this in-process engine it is a data race
  between worker threads.  Return the data from the task instead.
- **GPF203 large captures** — a closure that drags a reference dict or an
  FM-index along ships it with *every* task.  ``GPFContext.broadcast``
  ships it once per executor (paper §4.4 step 2).
- **GPF204 stateful RNG / wall clock** — a closure that captures a live
  generator instance (``random.Random``, ``numpy.random.Generator``)
  shares mutable draw state across tasks: retried or recomputed
  partitions resume from wherever the generator happens to be, so even a
  *seeded* generator breaks replay determinism (and races across worker
  threads).  The same rule flags constructing an unseeded generator or
  reading the wall clock (``datetime.now()`` and friends) inside the
  task body.

The analyzer works on ``inspect.getsource`` + ``ast`` when source is
available and degrades to ``co_names`` screening when it is not (builtins,
C extensions, REPL lambdas).
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
from typing import Callable, Iterator

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.engine.broadcast import Broadcast

#: module-attribute calls that read nondeterministic global state.
NONDETERMINISTIC_CALLS: dict[str, frozenset[str]] = {
    "random": frozenset(
        {
            "random",
            "randint",
            "randrange",
            "choice",
            "choices",
            "shuffle",
            "sample",
            "uniform",
            "gauss",
            "normalvariate",
            "getrandbits",
            "betavariate",
            "expovariate",
        }
    ),
    "time": frozenset({"time", "time_ns", "monotonic", "perf_counter"}),
    "os": frozenset({"urandom"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
    "secrets": frozenset({"token_bytes", "token_hex", "randbelow", "choice"}),
}

#: ``numpy.random.*`` / ``np.random.*`` convenience functions (the global
#: unseeded RandomState); ``default_rng(seed)`` is the sanctioned form.
NUMPY_ALIASES = frozenset({"numpy", "np", "_np"})

#: methods that mutate the receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "appendleft",
        "write",
    }
)

#: closure captures at or above this estimated size rate a GPF203.
DEFAULT_BIG_CAPTURE_BYTES = 256 * 1024


# ---------------------------------------------------------------------------
# AST-level checks (shared with repro.analysis.source_scan)
# ---------------------------------------------------------------------------
def _base_name(node: ast.AST) -> str | None:
    """The root Name of a Name/Attribute/Subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _call_chain(node: ast.AST) -> list[str]:
    """``numpy.random.randint`` -> ['numpy', 'random', 'randint']."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return list(reversed(parts))


def _has_seeding(tree: ast.AST) -> bool:
    """True when the function seeds a generator it then draws from."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _call_chain(node.func)
        if not chain:
            continue
        if chain[-1] == "seed":
            return True
        if chain[-1] in {"default_rng", "RandomState", "Random"} and node.args:
            return True
    return False


#: wall-clock-reading call tails recognized on datetime/date chains.
WALL_CLOCK_TAILS = frozenset({"now", "utcnow", "today"})

#: RNG-constructor call tails; unseeded (argument-free) calls are flagged.
RNG_CONSTRUCTOR_TAILS = frozenset({"Random", "RandomState", "default_rng"})

#: roots a wall-clock chain may start from (import aliases included).
_DATETIME_ROOTS = frozenset({"datetime", "date", "dt"})


def find_unseeded_rng_and_clock(tree: ast.AST) -> list[tuple[str, int]]:
    """(description, line) pairs for GPF204's AST half: constructing an
    unseeded generator, or reading the wall clock, inside a task body."""
    hits: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _call_chain(node.func)
        if not chain:
            continue
        dotted = ".".join(chain)
        line = getattr(node, "lineno", 0)
        tail = chain[-1]
        if (
            tail in RNG_CONSTRUCTOR_TAILS
            and not node.args
            and not node.keywords
        ):
            hits.append((f"unseeded RNG construction {dotted}()", line))
        elif (
            tail in WALL_CLOCK_TAILS
            and len(chain) >= 2
            and chain[0] in _DATETIME_ROOTS
        ):
            hits.append((f"wall-clock read {dotted}()", line))
    return hits


def find_nondeterministic_calls(tree: ast.AST) -> list[tuple[str, int]]:
    """(dotted call, line) pairs of unseeded nondeterministic calls."""
    if _has_seeding(tree):
        return []
    hits: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _call_chain(node.func)
        if len(chain) < 2:
            continue
        dotted = ".".join(chain)
        line = getattr(node, "lineno", 0)
        module, attr = chain[0], chain[-1]
        if module in NONDETERMINISTIC_CALLS and attr in NONDETERMINISTIC_CALLS[module]:
            hits.append((dotted, line))
        elif (
            module in NUMPY_ALIASES
            and len(chain) >= 3
            and chain[1] == "random"
            and chain[2] != "default_rng"
        ):
            hits.append((dotted, line))
    return hits


class _ScopeCollector(ast.NodeVisitor):
    """Names bound inside a function node (params, assignments, loops)."""

    def __init__(self) -> None:
        self.bound: set[str] = set()

    def collect(self, func: ast.AST) -> set[str]:
        if isinstance(func, ast.Lambda):
            self._bind_args(func.args)
            # A lambda body cannot bind names except comprehension targets.
            self.visit(func.body)
        elif isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._bind_args(func.args)
            for stmt in func.body:
                self.visit(stmt)
        return self.bound

    def _bind_args(self, args: ast.arguments) -> None:
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            self.bound.add(arg.arg)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Store):
            self.bound.add(node.id)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        for name in ast.walk(node.target):
            if isinstance(name, ast.Name):
                self.bound.add(name.id)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.bound.add(node.name)  # nested defs bind their name only

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # nested lambda bodies have their own scope

    def generic_visit(self, node: ast.AST) -> None:
        super().generic_visit(node)


def _walk_same_scope(func_node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without entering nested function scopes —
    a nested def/lambda mutating its *own* locals is not a capture."""
    stack = list(ast.iter_child_nodes(func_node))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def find_captured_mutations(
    func_node: ast.AST, captured: set[str] | None = None
) -> list[tuple[str, str, int]]:
    """(name, how, line) for each mutation of an out-of-scope name.

    ``captured`` narrows the check to known captured names (from a live
    function's ``co_freevars``/globals); when ``None``, any name not bound
    inside the function counts as captured (source-level mode).
    """
    local = _ScopeCollector().collect(func_node)

    def is_captured(name: str | None) -> bool:
        if name is None or name in local:
            return False
        return captured is None or name in captured

    hits: list[tuple[str, str, int]] = []
    for node in _walk_same_scope(func_node):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                name = _base_name(target)
                if is_captured(name):
                    hits.append((name, "augmented assignment", line))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = _base_name(target)
                    if is_captured(name):
                        hits.append((name, "item/attribute assignment", line))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATING_METHODS:
                name = _base_name(node.func.value)
                if is_captured(name):
                    hits.append((name, f".{node.func.attr}() call", line))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = _base_name(target)
                    if is_captured(name):
                        hits.append((name, "del", line))
    return hits


# ---------------------------------------------------------------------------
# Live-function analysis
# ---------------------------------------------------------------------------
def _function_ast(func: Callable) -> ast.AST | None:
    """The Lambda/FunctionDef node of ``func``, or None without source.

    ``getsource`` returns the whole enclosing statement for lambdas, which
    may contain several function nodes (chained ``.map(...).filter(...)``),
    so candidates are scored by source line and argument-name agreement
    with the live code object.
    """
    code = func.__code__
    whole_file = False
    try:
        lines, start = inspect.getsourcelines(func)
        source = textwrap.dedent("".join(lines))
        tree = ast.parse(source)
        rel_line = code.co_firstlineno - start + 1
    except (OSError, TypeError, ValueError):
        return None
    except (SyntaxError, IndentationError):
        # A lambda mid-way through a multi-line chained expression: the
        # source block starts at the lambda's own line (".map(lambda ...")
        # and is not parseable on its own.  Parse the whole file and find
        # the node by absolute position instead.
        filename = inspect.getsourcefile(func)
        if filename is None:
            return None
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
        except (OSError, SyntaxError, ValueError):
            return None
        rel_line = code.co_firstlineno
        whole_file = True
    candidates = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]
    if not candidates:
        return None
    if len(candidates) == 1 and not whole_file:
        return candidates[0]
    arg_names = list(code.co_varnames[: code.co_argcount])

    def score(node: ast.AST) -> int:
        points = 0
        if getattr(node, "lineno", -1) == rel_line:
            points += 2
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == func.__name__:
                points += 2
        node_args = [
            a.arg
            for a in list(node.args.posonlyargs) + list(node.args.args)
        ]
        if node_args == arg_names:
            points += 1
        return points

    best = max(candidates, key=score)
    if whole_file and score(best) == 0:
        return None  # nothing in the file matches this code object
    return best


def approx_size(obj: object, depth: int = 3, _seen: set[int] | None = None) -> int:
    """Cheap recursive size estimate (bytes) with sampling, never pickles."""
    if _seen is None:
        _seen = set()
    if id(obj) in _seen:
        return 0
    _seen.add(id(obj))
    try:
        size = sys.getsizeof(obj)
    except TypeError:
        size = 64
    if depth <= 0:
        return size
    if isinstance(obj, (str, bytes, bytearray)):
        return size
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if items:
            sample = items[:32]
            avg = sum(approx_size(x, depth - 1, _seen) for x in sample) / len(sample)
            size += int(avg * len(items))
        return size
    if isinstance(obj, dict):
        items = list(obj.items())
        if items:
            sample = items[:32]
            avg = sum(
                approx_size(k, depth - 1, _seen) + approx_size(v, depth - 1, _seen)
                for k, v in sample
            ) / len(sample)
            size += int(avg * len(items))
        return size
    attrs = getattr(obj, "__dict__", None)
    if isinstance(attrs, dict):
        size += sum(approx_size(v, depth - 1, _seen) for v in attrs.values())
    return size


def _captured_values(func: Callable) -> Iterator[tuple[str, object]]:
    """(name, value) of every closure cell and referenced mutable global."""
    code = func.__code__
    closure = func.__closure__ or ()
    for name, cell in zip(code.co_freevars, closure):
        try:
            yield name, cell.cell_contents
        except ValueError:  # empty cell
            continue
    func_globals = getattr(func, "__globals__", {})
    for name in code.co_names:
        if name in func_globals:
            yield name, func_globals[name]


def analyze_closure(
    func: Callable,
    where: str = "",
    big_capture_bytes: int = DEFAULT_BIG_CAPTURE_BYTES,
) -> list[Diagnostic]:
    """All closure diagnostics for one task function."""
    if not callable(func) or not hasattr(func, "__code__"):
        return []
    label = where or getattr(func, "__qualname__", repr(func))
    out: list[Diagnostic] = []

    node = _function_ast(func)
    if node is not None:
        for dotted, line in find_nondeterministic_calls(node):
            out.append(
                Diagnostic(
                    code="GPF201",
                    severity=Severity.WARNING,
                    message=(
                        f"closure {label} calls {dotted}() (line {line}); "
                        "recomputed partitions will diverge from their "
                        "first materialization"
                    ),
                    resource=label,
                    fix_hint="seed a generator per partition, e.g. "
                    "numpy.random.default_rng((seed, split))",
                )
            )
        captured_names = set(func.__code__.co_freevars) | {
            name
            for name, value in _captured_values(func)
            if isinstance(value, (dict, list, set, bytearray))
        }
        for desc, line in find_unseeded_rng_and_clock(node):
            out.append(
                Diagnostic(
                    code="GPF204",
                    severity=Severity.WARNING,
                    message=(
                        f"closure {label} contains {desc} (line {line}); "
                        "retried or recomputed partitions will not replay "
                        "identically"
                    ),
                    resource=label,
                    fix_hint="seed from stable task identity, e.g. "
                    "numpy.random.default_rng((seed, split)), and pass "
                    "timestamps in from the driver",
                )
            )
        for name, how, line in find_captured_mutations(node, captured_names):
            out.append(
                Diagnostic(
                    code="GPF202",
                    severity=Severity.WARNING,
                    message=(
                        f"closure {label} mutates captured driver-side "
                        f"state {name!r} via {how} (line {line}); tasks see "
                        "a copy on real clusters and race in threads"
                    ),
                    resource=label,
                    fix_hint="return the data from the task instead",
                )
            )
    else:
        # No source: co_names screening for the nondeterminism class only.
        names = set(func.__code__.co_names)
        for module, attrs in NONDETERMINISTIC_CALLS.items():
            if module in names and names & attrs:
                out.append(
                    Diagnostic(
                        code="GPF201",
                        severity=Severity.WARNING,
                        message=(
                            f"closure {label} references {module} RNG/clock "
                            "functions (source unavailable; co_names screen)"
                        ),
                        resource=label,
                    )
                )
                break

    seen_big: set[int] = set()
    seen_rng: set[int] = set()
    for name, value in _captured_values(func):
        if isinstance(value, Broadcast) or inspect.ismodule(value):
            continue
        if _is_rng_instance(value) and id(value) not in seen_rng:
            seen_rng.add(id(value))
            out.append(
                Diagnostic(
                    code="GPF204",
                    severity=Severity.WARNING,
                    message=(
                        f"closure {label} captures live RNG instance "
                        f"{name!r} ({type(value).__name__}); its mutable "
                        "draw state is shared across tasks, so retries and "
                        "recomputed partitions do not replay identically"
                    ),
                    resource=label,
                    fix_hint="construct a generator inside the task seeded "
                    "from stable identity, e.g. "
                    "numpy.random.default_rng((seed, split))",
                )
            )
            continue
        if inspect.isclass(value) or callable(value):
            continue
        if id(value) in seen_big:
            continue
        size = approx_size(value)
        if size >= big_capture_bytes:
            seen_big.add(id(value))
            out.append(
                Diagnostic(
                    code="GPF203",
                    severity=Severity.WARNING,
                    message=(
                        f"closure {label} captures {name!r} "
                        f"(~{size / 1024:.0f} KiB, {type(value).__name__}); "
                        "it ships with every task"
                    ),
                    resource=label,
                    fix_hint="wrap it once in GPFContext.broadcast(...) and "
                    "capture the Broadcast handle",
                )
            )
    return out


# ---------------------------------------------------------------------------
# RDD-lineage walking
# ---------------------------------------------------------------------------
def iter_lineage_functions(rdd) -> Iterator[tuple[str, Callable]]:
    """Yield (rdd name, task function) over an RDD's whole lineage.

    The engine wraps user functions in adapter lambdas (``RDD.map`` builds
    ``lambda split, part: [func(x) for x in part]``), so each stored
    function's closure cells are unwrapped one level to reach the user
    function; both layers are yielded and the caller dedupes by code
    object.
    """
    from repro.engine.rdd import RDD

    stack = [rdd]
    seen_rdds: set[int] = set()
    while stack:
        current = stack.pop()
        if id(current) in seen_rdds or not isinstance(current, RDD):
            continue
        seen_rdds.add(id(current))
        func = getattr(current, "_func", None)
        if callable(func):
            yield current.name, func
            for cell in func.__closure__ or ():
                try:
                    value = cell.cell_contents
                except ValueError:
                    continue
                if callable(value) and hasattr(value, "__code__"):
                    yield current.name, value
        for dep in getattr(current, "shuffle_deps", ()):
            combine = getattr(dep, "map_side_combine", None)
            if callable(combine) and hasattr(combine, "__code__"):
                yield current.name, combine
        stack.extend(getattr(current, "parents", ()))


def check_rdd_lineage(
    rdd, big_capture_bytes: int = DEFAULT_BIG_CAPTURE_BYTES
) -> list[Diagnostic]:
    """Analyze every task function reachable from ``rdd``'s lineage."""
    out: list[Diagnostic] = []
    seen_codes: set[int] = set()
    for name, func in iter_lineage_functions(rdd):
        code = getattr(func, "__code__", None)
        if code is None or id(code) in seen_codes:
            continue
        seen_codes.add(id(code))
        if _is_engine_internal(func):
            continue
        out.extend(
            analyze_closure(
                func,
                where=f"{name}:{getattr(func, '__qualname__', '<fn>')}",
                big_capture_bytes=big_capture_bytes,
            )
        )
    return out


def _is_rng_instance(value: object) -> bool:
    """True for live generator objects whose draw state mutates per call."""
    import random as stdlib_random

    if isinstance(value, stdlib_random.Random):
        return True
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is a hard dep here
        return False
    return isinstance(value, (np.random.Generator, np.random.RandomState))


def _is_engine_internal(func: Callable) -> bool:
    """Engine adapter lambdas live in repro.engine.*; their own bodies are
    trusted (the user function they wrap is analyzed separately)."""
    module = getattr(func, "__module__", "") or ""
    return module.startswith("repro.engine")
