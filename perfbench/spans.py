"""In-memory timing spans recorded from the benchmark's side of each call.

`Tracer.instrument` replaces the public functions and methods of the
package's modules with timing wrappers, in this process only, wherever each
function is bound in a module namespace (so `svcforge.perturb.resample` and
`svcforge.audio.resample` share one wrapper). Nested calls therefore give
parent/child spans. Nothing inside the package changes.

A span is (name, start, end, span_id, parent_id, op_id). Spans stay in a
list until the run ends; `aggregate` then turns them into per-operation
call counts, busy time (span time) and self time (span time minus the part
of it covered by child spans).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Collects spans and named counts, tagged with the current op id."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)  # (op_id, name) -> value
        self.op_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._count_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple:
        """Push a new span id; returns (span_id, parent_id, stack).

        A worker thread with no open span of its own is parented to the
        innermost span open in the main thread (the call that started it).
        """
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else 0
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def wrap(self, name: str, fn, on_return=None):
        """`fn` wrapped to record a span named `name`.

        `on_return(args, kwargs, result)` may return {count_name: value}
        to add to this operation's counts; it runs outside the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, stack = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((name, start, end, sid, parent, tracer.op_id))
            if on_return is not None:
                tracer.add_counts(on_return(args, kwargs, result))
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def add_counts(self, values: dict) -> None:
        with self._count_lock:
            for key, value in values.items():
                self.counts[(self.op_id, key)] += value

    def span(self, name: str):
        """Context manager recording one span, for the benchmark's own
        boundaries (for example one CLI invocation)."""
        return _Span(self, name)

    def instrument(self, modules, hooks=None, skip=()) -> int:
        """Wrap every public function and method defined in `modules`.

        `modules` maps a layer name to its module object. A function is
        named `<defining layer>.<name>`, a method `<defining layer>.<method>`,
        so methods of one protocol (`predict_eps`) share a name. Functions
        are rebound in every given module that imports them. Names in
        `skip` are left alone. Returns the number of callables wrapped.
        """
        hooks = hooks or {}
        layer_of = {mod.__name__: layer for layer, mod in modules.items()}
        wrappers = {}  # original function -> its wrapper
        n_methods = 0
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if _traceable(obj) and obj.__module__ in layer_of:
                    name = f"{layer_of[obj.__module__]}.{obj.__name__}"
                    if name in skip:
                        continue
                    if obj not in wrappers:
                        wrappers[obj] = self.wrap(name, obj, hooks.get(name))
                    setattr(mod, attr, wrappers[obj])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        name = f"{layer}.{mname}"
                        if mname.startswith("_") or not _traceable(meth) or name in skip:
                            continue
                        setattr(obj, mname, self.wrap(name, meth, hooks.get(name)))
                        n_methods += 1
        return len(wrappers) + n_methods

    def write_jsonl(self, path) -> None:
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, sid, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "id": sid, "parent": parent, "op": op}))
                fh.write("\n")


def _traceable(obj) -> bool:
    return inspect.isfunction(obj) and not getattr(obj, "__wrapped_by_tracer__", False)


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "stack", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid, self.parent, self.stack = self.tracer._open()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        self.stack.pop()
        self.tracer.spans.append((self.name, self.start, end, self.sid,
                                  self.parent, self.tracer.op_id))
        return False


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """span_id -> self time: duration minus the union of its children.

    Children from several threads may overlap each other; counting their
    union, not their sum, keeps self time within [0, duration].
    """
    children = defaultdict(list)
    for _name, start, end, _sid, parent, _op in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - covered_length(children.get(sid, ()), start, end)
        for _name, start, end, sid, _parent, _op in spans
    }


def aggregate(spans, counts=None) -> dict:
    """op_id -> {metric name: value} with `<name>.calls`, `.busy_s`,
    `.self_s` per span name, plus the named counts for that op."""
    selfs = self_times(spans)
    per_op = defaultdict(lambda: defaultdict(float))
    for name, start, end, sid, _parent, op in spans:
        row = per_op[op]
        row[f"{name}.calls"] += 1
        row[f"{name}.busy_s"] += end - start
        row[f"{name}.self_s"] += selfs[sid]
    for (op, name), value in (counts or {}).items():
        per_op[op][name] += value
    return {op: dict(row) for op, row in per_op.items()}


def median_over_ops(per_op: dict, ops, names) -> dict:
    """Median over `ops` of each metric in `names`; a metric an op never
    recorded counts as 0 for that op."""
    return {
        name: statistics.median(per_op.get(op, {}).get(name, 0.0) for op in ops)
        for name in names
    }
