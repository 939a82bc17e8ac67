"""Run one bicat-euler CLI command with layer spans recorded.

    PYTHONPATH=src python perfbench/traced_cli.py SPANS.json CMD_ID CLI-ARGS...

Wraps every public function of the package's modules, and
`FinCategory.hom`, in each module namespace that bound the name, so calls
across module boundaries are caught.  A span is (name, start, end, parent,
command id); self time is the span's duration minus its children's.  The
hottest leaf functions (`FinCategory.hom`, `format_rational`, `rational`,
`pair_label`) are aggregated per name instead of one span per call, and
their time is still subtracted from the caller's self time.  Spans stay in
memory and are written as JSON once the command has returned.  Timestamps
are `time.perf_counter()`, which is comparable across processes on Linux.
"""

import sys
import time

T0 = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402

MODULES = ("exactq", "fincat", "fib1", "bicat", "bifib", "catdsl", "generators", "fixtures")
LEAVES = {"fincat.hom", "exactq.format_rational", "exactq.rational", "fincat.pair_label"}


class Tracer:
    def __init__(self, cmd_id: str):
        self.cmd_id = cmd_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.selfs: list[float] = []
        self.child: list[float] = []  # time covered by children, per span
        self.stack: list[int] = []
        self.leaf_calls: dict[str, int] = {}
        self.leaf_time: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.distinct: set = set()
        self.keep: list = []  # keeps objects alive so their id() stays unique

    def open(self, name: str, start: float) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(start)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.selfs.append(0.0)
        self.child.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, end: float):
        self.stack.pop()
        self.ends[idx] = end
        dur = end - self.starts[idx]
        self.selfs[idx] = dur - self.child[idx]
        if self.stack:
            self.child[self.stack[-1]] += dur

    def add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def dump(self) -> dict:
        return {
            "cmd": self.cmd_id,
            "t0": T0,
            "spans": [
                [n, s, e, p, self.cmd_id, sf]
                for n, s, e, p, sf in zip(self.names, self.starts, self.ends, self.parents, self.selfs)
            ],
            "leaves": {k: [self.leaf_calls[k], self.leaf_time[k]] for k in self.leaf_calls},
            "counts": self.counts,
        }


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _triples(morphisms) -> int:
    """Composable triples h∘g∘f: for each g, (#f into src g) * (#h out of dst g)."""
    ends = [(m.src, m.dst) if hasattr(m, "src") else (m[1], m[2]) for m in morphisms]
    into: dict = {}
    out_of: dict = {}
    for s, d in ends:
        into[d] = into.get(d, 0) + 1
        out_of[s] = out_of.get(s, 0) + 1
    return sum(into.get(s, 0) * out_of.get(d, 0) for s, d in ends)


def _arg(args, kwargs, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _count(tr: Tracer, name: str, args, kwargs, result):
    """Work counters read at the layer boundary, from arguments and results."""
    if name == "catdsl.parse":
        tr.add("catdsl.parse_bytes", len(_arg(args, kwargs, 0, "text").encode("utf-8")))
    elif name == "fincat.validate_category":
        morphisms = _arg(args, kwargs, 1, "morphisms")
        tr.add("fincat.morphisms_validated", len(morphisms))
        tr.add("fincat.composable_triples", _triples(morphisms))
    elif name in ("exactq.solve_weighting", "exactq.invert"):
        tr.add("exactq.solves", 1)
        tr.peak("exactq.max_dim", len(_arg(args, kwargs, 0, "m").rows))
        if result is not None:
            entries = result.entries if name == "exactq.solve_weighting" else [v for r in result.entries for v in r]
            tr.peak("exactq.max_bits", max((_bits(v) for v in entries), default=0))
    elif name == "fib1.is_cartesian_morphism":
        functor = _arg(args, kwargs, 0, "p")
        tr.keep.append(functor)
        tr.add("fib1.cartesian_tests", 1)
        tr.distinct.add((id(functor), _arg(args, kwargs, 1, "f"), _arg(args, kwargs, 2, "convention", "standard")))
        tr.counts["fib1.cartesian_distinct"] = len(tr.distinct)
    elif name == "bifib.grothendieck_cg":
        tr.add("bifib.gr_twocells", sum(len(c) for h in result.homs.values() for c in h.twocells.values()))


COUNTED = {
    "catdsl.parse", "fincat.validate_category", "exactq.solve_weighting", "exactq.invert",
    "fib1.is_cartesian_morphism", "bifib.grothendieck_cg",
}


def span_wrapper(tr: Tracer, name: str, fn):
    counted = name in COUNTED
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tr.open(name, clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(idx, clock())
        if counted:
            c = tr.open("trace.count", clock())
            _count(tr, name, args, kwargs, result)
            tr.close(c, clock())
        return result

    return wrapper


def leaf_wrapper(tr: Tracer, name: str, fn):
    clock = time.perf_counter
    tr.leaf_calls[name] = 0
    tr.leaf_time[name] = 0.0

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t
            tr.leaf_calls[name] += 1
            tr.leaf_time[name] += dt
            if tr.stack:
                tr.child[tr.stack[-1]] += dt

    return wrapper


def count_wrapper(tr: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.add(key, 1)
        return fn(*args, **kwargs)

    return wrapper


def install(tr: Tracer, package) -> None:
    modules = [getattr(package, m) for m in MODULES] + [package.cli]
    wrapped = {}
    for mod in modules[:-1]:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            wrapped[fn] = (leaf_wrapper if name in LEAVES else span_wrapper)(tr, name, fn)
    private = package.bifib._check_cartesian_1cell
    wrapped[private] = count_wrapper(tr, "bifib.onecells_swept", private)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
    fincat = package.fincat
    fincat.FinCategory.hom = leaf_wrapper(tr, "fincat.hom", fincat.FinCategory.hom)
    table = package.cli._GEN_KINDS
    for kind, (builder, predicate) in list(table.items()):
        table[kind] = (wrapped.get(builder, builder), predicate)


def main(argv: list[str]) -> int:
    spans_path, cmd_id, cli_args = argv[0], argv[1], argv[2:]
    tr = Tracer(cmd_id)
    root = tr.open("trace.script", T0)
    code = 3
    try:
        idx = tr.open("cli.import", time.perf_counter())
        import bicat_euler.cli
        import bicat_euler as package

        tr.close(idx, time.perf_counter())
        idx = tr.open("trace.install", time.perf_counter())
        install(tr, package)
        tr.close(idx, time.perf_counter())
        idx = tr.open("cli.main", time.perf_counter())
        try:
            code = bicat_euler.cli.main(cli_args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            tr.close(idx, time.perf_counter())
            sys.stdout.flush()
    finally:
        tr.close(root, time.perf_counter())
        payload = tr.dump()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
            fh.flush()
            fh.write(json.dumps({"t_end": time.perf_counter()}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
