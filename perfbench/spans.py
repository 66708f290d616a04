"""In-memory span tracer that wraps functions from outside the traced program.

A span covers one call into a wrapped function.  It records the span's
name, its layer, its start and end on one clock, the index of the span
that was open when it started (its parent) and whether it is the
outermost open span of its layer.  Spans stay in memory until the run
ends and are then written out in one go.

A span's self time is its duration minus the part of its interval that
its direct children cover; a layer's self time is the sum of the self
times of its spans.

The cost of tracing is estimated rather than taken from a difference of
pass times, which drift by far more than the tracer costs: ``calibrate``
times the wrapper around a no-op, and the tracer times its ``after``
hooks as they run (``hook_s``).
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from collections import Counter, defaultdict

NAME, LAYER, START, END, PARENT, OUTERMOST = range(6)


def union_length(intervals) -> float:
    """Total length covered by a collection of (lo, hi) intervals; empty ones count 0."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its direct children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = union_length((max(spans[c][START], lo), min(spans[c][END], hi)) for c in children.get(i, ()))
        out.append(hi - lo - covered)
    return out


def _called_from_package(prefix: str) -> bool:
    # frame 0 is this function, 1 the wrapper, 2 the wrapper's caller
    return sys._getframe(2).f_globals.get("__name__", "").startswith(prefix)


class Tracer:
    """Wraps registered functions while installed and records one span per call.

    ``wrap`` and ``count`` register a replacement for ``owner.attr``;
    ``install`` swaps the replacements in and ``uninstall`` restores the
    originals.  ``after`` hooks run on the result of each traced call and
    add computed counts to ``counters``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: defaultdict = defaultdict(float)
        self.maxima: dict = {}
        self.hook_s = 0.0  # time spent in ``after`` hooks
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._replacements: list = []  # (owner, attr, replacement)
        self._originals: list = []
        self.registered: dict = {}  # span name -> layer

    # -- registration --------------------------------------------------------

    def wrap(self, owners_attrs, fn, name, layer, after=None, only_from=None, kind=None):
        """Replace ``fn`` wherever ``owners_attrs`` bind it by a span-recording wrapper.

        only_from: record only calls made directly from modules whose name
        starts with this prefix (used for foreign functions such as scipy's).
        kind: "classmethod" or "staticmethod" to rewrap a class attribute.
        """
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only_from is not None and not _called_from_package(only_from):
                return fn(*args, **kwargs)
            stack = tracer._stack
            depth = tracer._depth
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else None, depth[layer] == 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            depth[layer] += 1
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                depth[layer] -= 1
                stack.pop()
            if after is not None:
                t_hook = clock()
                after(tracer, args, kwargs, result)
                tracer.hook_s += clock() - t_hook
            return result

        replacement = wrapper
        if kind == "classmethod":
            replacement = classmethod(wrapper)
        elif kind == "staticmethod":
            replacement = staticmethod(wrapper)
        for owner, attr in owners_attrs:
            self._replacements.append((owner, attr, replacement))
        self.registered[name] = layer

    def count(self, owner, attr, fn, counter, layer, only_from):
        """Replace ``owner.attr`` by a wrapper that counts calls made inside ``layer`` spans."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.in_layer(layer) and _called_from_package(only_from):
                tracer.counters[counter] += 1
            return fn(*args, **kwargs)

        self._replacements.append((owner, attr, counted))

    def high(self, key, value):
        """Keep the largest value seen under ``key``."""
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def install(self):
        for owner, attr, replacement in self._replacements:
            self._originals.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
            setattr(owner, attr, replacement)

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def in_layer(self, layer) -> bool:
        return self._depth[layer] > 0

    # -- reading -------------------------------------------------------------

    def never_called(self) -> list:
        seen = {s[NAME] for s in self.spans}
        return sorted(n for n in self.registered if n not in seen)

    def by_function(self) -> dict:
        selfs = self_times(self.spans)
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s, st in zip(self.spans, selfs):
            row = out[s[NAME]]
            row["calls"] += 1
            row["total_s"] += s[END] - s[START]
            row["self_s"] += st
        return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_s"]))

    def overhead_s(self, span_cost: float) -> float:
        """Estimated time tracing added: ``span_cost`` per span plus the hooks' measured time."""
        return len(self.spans) * span_cost + self.hook_s

    def write(self, path: str):
        """Spans as tab-separated rows: index, name, layer, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("index\tname\tlayer\tstart\tend\tparent\n")
            for i, s in enumerate(self.spans):
                parent = "" if s[PARENT] is None else s[PARENT]
                fh.write(f"{i}\t{s[NAME]}\t{s[LAYER]}\t{s[START]!r}\t{s[END]!r}\t{parent}\n")


def calibrate(calls: int = 20000, repeats: int = 5) -> float:
    """Median seconds one span-recording wrapper adds to a call, measured on a no-op."""
    def noop():
        return None

    costs = []
    for _ in range(repeats):
        ns = types.SimpleNamespace(f=noop)
        tracer = Tracer()
        tracer.wrap([(ns, "f")], noop, "calibrate.noop", "calibrate")
        tracer.install()
        t0 = time.perf_counter()
        for _ in range(calls):
            ns.f()
        traced = time.perf_counter() - t0
        tracer.uninstall()
        t0 = time.perf_counter()
        for _ in range(calls):
            ns.f()
        plain = time.perf_counter() - t0
        costs.append(max(traced - plain, 0.0) / calls)
    return statistics.median(costs)
