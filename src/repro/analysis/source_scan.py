"""Source-level gpfcheck: lint RDD closures in a Python file without
importing or running it.

``scan_source`` parses a file, finds every call of an RDD-style transform
(``.map(...)``, ``.flat_map(...)``, ``.filter(...)``, ``.map_partitions``
and friends) and applies the closure rules of :mod:`repro.analysis.closures`
to each inline ``lambda`` / locally-defined function argument.  This is
what lets CI lint every ``examples/*.py`` plan without simulating genomes.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.closures import (
    find_captured_mutations,
    find_nondeterministic_calls,
    find_unseeded_rng_and_clock,
)
from repro.analysis.diagnostics import Diagnostic, Severity

#: attribute names treated as RDD task-shipping transforms.
TRANSFORM_NAMES = frozenset(
    {
        "map",
        "flat_map",
        "filter",
        "map_partitions",
        "map_partitions_with_index",
        "map_values",
        "key_by",
        "reduce_by_key",
        "sort_by",
        "zip_partitions",
    }
)


def _local_function_defs(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Every def in the file, by name (module level and nested)."""
    return {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }


def _transform_calls(tree: ast.Module):
    """(transform name, line, function-ast-or-name) per transform call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in TRANSFORM_NAMES:
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Lambda):
                yield func.attr, getattr(arg, "lineno", node.lineno), arg
            elif isinstance(arg, ast.Name):
                yield func.attr, getattr(arg, "lineno", node.lineno), arg.id


def scan_source(path: str | Path) -> list[Diagnostic]:
    """Closure diagnostics for every RDD transform argument in ``path``."""
    path = Path(path)
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:
        return [
            Diagnostic(
                code="GPF201",
                severity=Severity.ERROR,
                message=f"{path.name}: cannot parse: {exc}",
                resource=path.name,
            )
        ]
    defs = _local_function_defs(tree)
    out: list[Diagnostic] = []
    seen: set[int] = set()
    for transform, line, func_node in _transform_calls(tree):
        if isinstance(func_node, str):
            resolved = defs.get(func_node)
            if resolved is None:
                continue
            func_node = resolved
        if id(func_node) in seen:
            continue
        seen.add(id(func_node))
        label = f"{path.name}:{line}:.{transform}"
        for dotted, call_line in find_nondeterministic_calls(func_node):
            out.append(
                Diagnostic(
                    code="GPF201",
                    severity=Severity.WARNING,
                    message=(
                        f"{label} closure calls {dotted}() "
                        f"(line {call_line}); task output is "
                        "nondeterministic under recomputation"
                    ),
                    resource=label,
                    fix_hint="seed a generator, e.g. "
                    "numpy.random.default_rng((seed, split))",
                )
            )
        for desc, rng_line in find_unseeded_rng_and_clock(func_node):
            out.append(
                Diagnostic(
                    code="GPF204",
                    severity=Severity.WARNING,
                    message=(
                        f"{label} closure contains {desc} "
                        f"(line {rng_line}); recomputed partitions will "
                        "not replay identically"
                    ),
                    resource=label,
                    fix_hint="seed from stable task identity and pass "
                    "timestamps in from the driver",
                )
            )
        for name, how, mut_line in find_captured_mutations(func_node):
            out.append(
                Diagnostic(
                    code="GPF202",
                    severity=Severity.WARNING,
                    message=(
                        f"{label} closure mutates out-of-scope name "
                        f"{name!r} via {how} (line {mut_line})"
                    ),
                    resource=label,
                    fix_hint="return data from the task instead of mutating "
                    "driver-side state",
                )
            )
    return out


def scan_directory(directory: str | Path, pattern: str = "*.py") -> dict[str, list[Diagnostic]]:
    """Scan every matching file; returns {filename: diagnostics}."""
    directory = Path(directory)
    return {
        path.name: scan_source(path)
        for path in sorted(directory.glob(pattern))
    }
