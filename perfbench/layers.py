"""Per-layer metrics from the span files that `traced_cli.py` writes.

Layers are the package's modules.  The self times of all layers, plus the
interpreter's start-up and exit outside the traced script (`interp`) and
the tracer's own bookkeeping (`trace`), partition each traced command's
wall time exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "cli.import_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "catdsl.parse_ms": ("ms", "lower"),
    "catdsl.parse_bytes": ("bytes", "lower"),
    "catdsl.parse_mb_per_s": ("MB/s", "higher"),
    "catdsl.serialize_ms": ("ms", "lower"),
    "fincat.self_ms": ("ms", "lower"),
    "fincat.validate_ms": ("ms", "lower"),
    "fincat.morphisms_validated": ("count", "lower"),
    "fincat.composable_triples": ("count", "lower"),
    "fincat.hom_calls": ("count", "lower"),
    "fincat.hom_ms": ("ms", "lower"),
    "fincat.similarity_ms": ("ms", "lower"),
    "exactq.self_ms": ("ms", "lower"),
    "exactq.solve_ms": ("ms", "lower"),
    "exactq.solves": ("count", "lower"),
    "exactq.max_dim": ("count", "lower"),
    "exactq.max_bits": ("bits", "lower"),
    "fib1.self_ms": ("ms", "lower"),
    "fib1.classify_ms": ("ms", "lower"),
    "fib1.cartesian_tests": ("count", "lower"),
    "fib1.cartesian_distinct_ratio": ("ratio", "higher"),
    "fib1.grothendieck_ms": ("ms", "lower"),
    "bicat.self_ms": ("ms", "lower"),
    "bicat.validate_ms": ("ms", "lower"),
    "bicat.similarity_ms": ("ms", "lower"),
    "bifib.self_ms": ("ms", "lower"),
    "bifib.classify_ms": ("ms", "lower"),
    "bifib.onecells_swept": ("count", "lower"),
    "bifib.fiber_ms": ("ms", "lower"),
    "bifib.grothendieck_ms": ("ms", "lower"),
    "bifib.gr_twocells": ("count", "lower"),
    "generators.self_ms": ("ms", "lower"),
    "fixtures.self_ms": ("ms", "lower"),
    "interp.outside_ms": ("ms", "lower"),
    "trace.self_ms": ("ms", "lower"),
    "trace.cmd_wall_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "fail_ratio": ("ratio", "lower"),
}

# Self time of these functions, summed.
_SELF = {
    "catdsl.parse_ms": ("catdsl.parse",),
    "catdsl.serialize_ms": ("catdsl.serialize",),
    "fincat.validate_ms": ("fincat.validate_category", "fincat.validate_functor", "fincat.validate_nat_transformation"),
    "fincat.similarity_ms": ("fincat.similarity_matrix",),
    "bicat.validate_ms": ("bicat.validate_bicategory", "bicat.validate_lax_functor"),
    "bicat.similarity_ms": ("bicat.similarity_matrix_cg",),
}
# Inclusive time of the outermost call among these functions.
_INCLUSIVE = {
    "exactq.solve_ms": ("exactq.matrix_euler", "exactq.solve_weighting", "exactq.solve_coweighting", "exactq.invert"),
    "fib1.classify_ms": ("fib1.classify_fibration",),
    "fib1.grothendieck_ms": ("fib1.grothendieck_cat",),
    "bifib.classify_ms": ("bifib.classify_bifibration",),
    "bifib.fiber_ms": ("bifib.fiber_bicategory",),
    "bifib.grothendieck_ms": ("bifib.grothendieck_cg",),
}
_COUNTS = (
    "catdsl.parse_bytes", "fincat.morphisms_validated", "fincat.composable_triples", "exactq.solves",
    "fib1.cartesian_tests", "fib1.cartesian_distinct", "bifib.onecells_swept", "bifib.gr_twocells",
)
_PEAKS = ("exactq.max_dim", "exactq.max_bits")
_LAYERS = ("cli", "catdsl", "fincat", "exactq", "fib1", "bicat", "bifib", "generators", "fixtures", "trace")


def read_spans(path: Path) -> tuple[dict, float]:
    """The span payload and the time the tracer finished writing it."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return json.loads(lines[0]), json.loads(lines[1])["t_end"]


def check_spans(payload: dict) -> None:
    """Raise ValueError unless every span is well formed and nested in its parent."""
    spans = payload["spans"]
    for i, (name, start, end, parent, cmd, self_s) in enumerate(spans):
        if not isinstance(name, str) or "." not in name or cmd != payload["cmd"]:
            raise ValueError(f"span {i}: bad name or command id")
        if not (end >= start and -1e-9 <= self_s <= end - start + 1e-9):
            raise ValueError(f"span {i} ({name}): bad interval or self time")
        if parent == -1:
            if i != 0:
                raise ValueError(f"span {i} ({name}): second root")
        elif not (0 <= parent < i and spans[parent][1] <= start and end <= spans[parent][2]):
            raise ValueError(f"span {i} ({name}): not inside its parent")


def command_metrics(payload: dict, t_end: float, t_spawn: float, t_reaped: float) -> dict[str, float]:
    """Per-layer values (seconds and counts) of one traced command."""
    spans = payload["spans"]
    out = {k: 0.0 for k in _COUNTS + _PEAKS}
    out.update({k: float(v) for k, v in payload["counts"].items() if k in out})
    layer_self = {layer: 0.0 for layer in _LAYERS}
    named_self: dict[str, float] = {}
    for name, _, _, _, _, self_s in spans:
        named_self[name] = named_self.get(name, 0.0) + self_s
        if name != "cli.import":
            layer_self[name.split(".", 1)[0]] += self_s
    for name, (calls, secs) in payload["leaves"].items():
        layer_self[name.split(".", 1)[0]] += secs
    layer_self["trace"] += t_end - spans[0][2]  # writing the span file
    for key, names in _SELF.items():
        out[key] = sum(named_self.get(n, 0.0) for n in names)
    for key, names in _INCLUSIVE.items():
        total = 0.0
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            if name in names:
                p = parent
                while p != -1 and spans[p][0] not in names:
                    p = spans[p][3]
                if p == -1:
                    total += end - start
        out[key] = total
    calls, secs = payload["leaves"].get("fincat.hom", [0, 0.0])
    out["fincat.hom_calls"] = float(calls)
    out["fincat.hom_ms"] = secs
    out["cli.import_ms"] = named_self.get("cli.import", 0.0)
    for layer, secs in layer_self.items():
        out[f"{layer}.self_ms"] = secs
    out["interp.outside_ms"] = (payload["t0"] - t_spawn) + (t_reaped - t_end)
    out["trace.cmd_wall_ms"] = t_reaped - t_spawn
    return out


def pass_metrics(per_command: list[dict]) -> dict[str, float]:
    """Sum one traced pass over its commands; peaks take the maximum; times become ms."""
    total: dict[str, float] = {}
    for m in per_command:
        for k, v in m.items():
            total[k] = max(total.get(k, 0.0), v) if k in _PEAKS else total.get(k, 0.0) + v
    out = {}
    for k, v in total.items():
        out[k] = v * 1000 if k.endswith("_ms") else v
    parse_s = total["catdsl.parse_ms"]
    out["catdsl.parse_mb_per_s"] = total["catdsl.parse_bytes"] / 1e6 / parse_s if parse_s > 0 else 0.0
    tests = total["fib1.cartesian_tests"]
    out["fib1.cartesian_distinct_ratio"] = total["fib1.cartesian_distinct"] / tests if tests else 0.0
    return out


def accounted_ms(m: dict[str, float]) -> float:
    """Sum of every layer's self time in one pass; equals trace.cmd_wall_ms."""
    return m["cli.import_ms"] + sum(m[f"{layer}.self_ms"] for layer in _LAYERS) + m["interp.outside_ms"]
