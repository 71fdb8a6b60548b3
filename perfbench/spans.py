"""In-memory spans around calls into the package, and their self times.

A span is [name, start, end, parent index, unit id].  Spans are kept in a
list while the benchmark runs and reduced to per-name self times at the end;
nothing is written out during a measurement.
"""

from time import perf_counter


class Tracer:
    """Records one span around each call made through it."""

    def __init__(self):
        self.spans = []
        self.unit = None
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.unit])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    def call(self, name, fn, *args):
        idx = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(idx)


class NullTracer:
    """Same interface as Tracer; records nothing (the untraced runs)."""

    unit = None

    def begin(self, name):
        return None

    def end(self, idx):
        pass

    def call(self, name, fn, *args):
        return fn(*args)


def self_times(spans):
    """Map span name -> list of self times in seconds.

    Children of a span run one after another inside it, so the part of its
    interval they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent is not None:
            covered[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        out.setdefault(name, []).append(t1 - t0 - covered[i])
    return out


def durations_by_unit(spans, names, count):
    """Summed duration of the spans named in `names`, for each unit id that
    has exactly `count` of them (a unit cut short by the end of a pass is
    left out)."""
    total, seen = {}, {}
    for name, t0, t1, _, unit in spans:
        if name in names:
            total[unit] = total.get(unit, 0.0) + (t1 - t0)
            seen[unit] = seen.get(unit, 0) + 1
    return [t for unit, t in total.items() if seen[unit] == count]
