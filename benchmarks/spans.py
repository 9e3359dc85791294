"""In-memory span tracer that instruments clipbias from outside the package.

The tracer replaces a function at every module attribute that binds it
(``vectors.clip_batch``, ``optimizers.clip_batch``, ``diagnostics.clip_batch``
and so on) with a wrapper that records a span, and puts the originals back
on ``uninstall``. The package source is never edited.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``op`` the benchmark operation
that caused it. Spans stay in memory until the caller writes them out.

Work counters are updated by per-function callbacks after a span closes.
Each callback runs inside a ``trace.count`` span of its own, so what it
costs is excluded from every layer's self time and shows only in the
overall tracing overhead.
"""

import collections
import functools
import time

COUNT_SPAN = "trace.count"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.op = -1
        self._stack = []
        self._patches = []

    # ------------------------------------------------------------ recording

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``count(tracer, idx, args, kwargs, result)`` updates
        ``tracer.counts`` after span ``idx`` closes; it is skipped when
        ``fn`` raises.
        """
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                cidx = len(spans)
                cspan = [COUNT_SPAN, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.op]
                spans.append(cspan)
                stack.append(cidx)
                try:
                    count(self, idx, args, kwargs, result)
                finally:
                    cspan[2] = time.perf_counter_ns()
                    stack.pop()
            return result

        return traced

    def parent_name(self, idx):
        """Name of the span enclosing span ``idx``, or None at top level."""
        parent = self.spans[idx][3]
        return self.spans[parent][0] if parent >= 0 else None

    def take(self):
        """Hand over the recorded spans and counts and start afresh.

        Spans are handed over as tuples, which the garbage collector stops
        tracking, so that kept spans do not slow later collections."""
        spans, counts = [tuple(s) for s in self.spans], dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts

    # ------------------------------------------------------------ patching

    def patch_function(self, modules, name, fn, count=None):
        """Wrap ``fn`` at every attribute of ``modules`` that is ``fn``."""
        wrapped = self.wrap(name, fn, count)
        found = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped)
                    found += 1
        if not found:
            raise LookupError(f"{fn!r} is bound in none of the given modules")

    def patch_method(self, cls, attr, name, count=None):
        """Wrap a plain method or classmethod defined on ``cls``."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, count))
        else:
            replacement = self.wrap(name, original, count)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------- analysis


def self_times_ns(spans):
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover (overlapping children counted once)."""
    children = collections.defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def self_seconds_by_name(spans):
    """Total self time in seconds per span name."""
    totals = collections.defaultdict(int)
    for span, own in zip(spans, self_times_ns(spans)):
        totals[span[0]] += own
    return {name: ns / 1e9 for name, ns in totals.items()}
