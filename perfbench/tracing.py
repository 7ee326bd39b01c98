"""In-memory span tracer that hooks planarclust's layer boundaries from outside.

Hooks replace the module attributes through which one layer calls the
next (for example `planarclust.bound.solve_lp`) with a wrapper that
records a span: name, start, end, parent span and a few numbers read from
the call.  Matching work is counted by wrapping methods of the blossom
solver class.  Nothing under `src/` is edited: hooks are installed on
entering a `Tracer` as a context manager and every original attribute is
restored on leaving it.

A hook whose attribute no longer exists is recorded as absent; the layer
metrics that depend on it are then reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name, reads one number from (args, result))
HOOKS = (
    ("planarclust.bound", "min_cut_2color", "oracle", None),
    ("planarclust.bound", "solve_lp", "lp", lambda a, out: len(a[0].constraints)),
    ("planarclust.bound", "split_into_basic_cuts", "split", lambda a, out: len(out)),
    ("planarclust.cut_oracle", "dijkstra", "dijkstra", lambda a, out: sum(x.nbytes for x in out)),
    ("planarclust.cut_oracle", "_match_terminals", "matching", lambda a, out: len(a[0])),
    ("planarclust.decode", "min_cut_forced", "forced", None),
    ("planarclust.decode", "solve_lp", "decode_lp", None),
    ("planarclust.decode", "decode_rounding", "rounding", lambda a, out: float(out.certificate)),
    ("planarclust.decode", "decode_recursive", "recursive", None),
    ("planarclust.cut_oracle", "partition_from_cut", "partition", None),
    ("planarclust.decode", "partition_from_cut", "partition", None),
)

# (module, class, method, counter name)
COUNTERS = (
    ("planarclust.matching", "_DenseBlossom", "_augment_matching", "stages"),
    ("planarclust.matching", "_DenseBlossom", "_add_blossom", "blossoms"),
    ("planarclust.matching", "_DenseBlossom", "_expand_blossom", "expands"),
)

# a span is [name, start, end, parent index or -1, info]
END, INFO = 2, 4


class Tracer:
    """Spans and counters of traced rounds; a context manager installs the hooks."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []  # hook names whose attribute is missing
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; yields its info dict."""
        info = {}
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, info])
        self._stack.append(idx)
        try:
            yield info
        finally:
            self._stack.pop()
            self.spans[idx][END] = time.perf_counter()

    def _wrap(self, fn, name, read):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = time.perf_counter()
            if read is not None:
                span[INFO] = read(args, out)
            return out

        return wrapper

    def _count(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        self.absent = []
        for mod_name, attr, name, read in HOOKS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._undo.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, read))
        for mod_name, cls_name, meth, key in COUNTERS:
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if fn is None:
                self.absent.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._count(fn, key))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)
        return False

    def absent_spans(self) -> set[str]:
        """Span and counter names fed by at least one absent hook."""
        names = {f"{m}.{a}": n for m, a, n, _ in HOOKS}
        names.update({f"{m}.{c}.{meth}": k for m, c, meth, k in COUNTERS})
        return {names[h] for h in self.absent}


class _Layers:
    """Per-name totals over one round's spans; self time = span - children."""

    def __init__(self, spans: list, first: int, stop: int, counts: dict):
        self.n = Counter()
        self.total = defaultdict(float)
        self.self_total = defaultdict(float)
        self.info = defaultdict(list)
        self.counts = counts
        child = defaultdict(float)
        for name, start, end, parent, info in spans[first:stop]:
            if parent >= 0:
                child[parent] += end - start
        for i in range(first, stop):
            name, start, end, parent, info = spans[i]
            self.n[name] += 1
            self.total[name] += end - start
            self.self_total[name] += end - start - child[i]
            if info is not None:
                self.info[name].append(info)

    def calls(self, *names):
        return sum(self.n[x] for x in names)

    def secs(self, *names):
        return sum(self.total[x] for x in names)

    def self_secs(self, *names):
        return sum(self.self_total[x] for x in names)

    def field(self, name, key):
        return [d[key] for d in self.info[name] if d]

    def mean(self, name):
        vals = self.info[name]
        return sum(vals) / len(vals) if vals else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit, span/counter names it reads, value from _Layers)
LAYER_METRICS = (
    ("bound.batches", "count", (), lambda L: sum(L.field("bound", "batches"))),
    ("bound.oracle_calls", "count", ("oracle",), lambda L: L.calls("oracle")),
    ("bound.pool_rows", "count", (), lambda L: sum(L.field("bound", "pool_rows"))),
    ("bound.cuts_new_frac", "ratio", ("split",),
     lambda L: _ratio(sum(L.field("bound", "pool_rows")), sum(L.info["split"]))),
    ("bound.self_s", "s", ("oracle", "lp", "split"), lambda L: L.self_secs("bound")),
    ("lp.calls", "count", ("lp",), lambda L: L.calls("lp")),
    ("lp.s", "s", ("lp",), lambda L: L.secs("lp")),
    ("lp.rows_mean", "count", ("lp",), lambda L: L.mean("lp")),
    ("cut_oracle.calls", "count", ("oracle", "forced"), lambda L: L.calls("oracle", "forced")),
    ("cut_oracle.s", "s", ("oracle", "forced"), lambda L: L.secs("oracle", "forced")),
    ("cut_oracle.self_s", "s", ("oracle", "forced", "dijkstra", "matching"),
     lambda L: L.self_secs("oracle", "forced")),
    ("cut_oracle.dijkstra_s", "s", ("dijkstra",), lambda L: L.secs("dijkstra")),
    ("cut_oracle.dist_mb", "MB", ("dijkstra",), lambda L: max(L.info["dijkstra"], default=0) / 1e6),
    ("cut_oracle.split_s", "s", ("split",), lambda L: L.secs("split")),
    ("cut_oracle.forced_calls", "count", ("forced",), lambda L: L.calls("forced")),
    ("cut_oracle.forced_s", "s", ("forced",), lambda L: L.secs("forced")),
    ("matching.calls", "count", ("matching",), lambda L: L.calls("matching")),
    ("matching.s", "s", ("matching",), lambda L: L.secs("matching")),
    ("matching.terminals_mean", "count", ("matching",), lambda L: L.mean("matching")),
    ("matching.terminals_max", "count", ("matching",), lambda L: max(L.info["matching"], default=0)),
    ("matching.stages", "count", ("stages",), lambda L: L.counts.get("stages", 0)),
    ("matching.blossoms", "count", ("blossoms",), lambda L: L.counts.get("blossoms", 0)),
    ("matching.expands", "count", ("expands",), lambda L: L.counts.get("expands", 0)),
    ("decode.rounding_s", "s", ("rounding",), lambda L: L.secs("rounding")),
    ("decode.rounding_cert_frac", "ratio", ("rounding",), lambda L: L.mean("rounding")),
    ("decode.recursive_passes", "count", ("recursive",), lambda L: L.calls("recursive")),
    ("decode.recursive_s", "s", ("recursive",), lambda L: L.secs("recursive")),
    ("decode.lp_s", "s", ("decode_lp",), lambda L: L.secs("decode_lp")),
    ("graph.partition_calls", "count", ("partition",), lambda L: L.calls("partition")),
    ("graph.partition_s", "s", ("partition",), lambda L: L.secs("partition")),
)


def layer_metrics(tracer: Tracer, rounds: list) -> dict:
    """Median over traced rounds of every layer metric whose hooks exist."""
    absent_spans = tracer.absent_spans()
    per_round = []
    for rnd in rounds:
        if not rnd.traced:
            continue
        per_round.append(_Layers(tracer.spans, *rnd.span_range, rnd.counts))
    return {
        name: statistics.median(float(fn(L)) for L in per_round)
        for name, _unit, needs, fn in LAYER_METRICS
        if not absent_spans.intersection(needs)
    }


LAYER_UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS}
