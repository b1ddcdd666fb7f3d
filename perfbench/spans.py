"""Spans and counters recorded around adsim's layer boundaries, from outside.

The tracer replaces the public names each layer exposes where their callers
look them up (module globals of ``adsim.cli`` and ``adsim.bench``, methods of
``EventLog`` and of the estimator folds) for the length of one job, and puts
the originals back afterwards. Stage-level calls get one span each, with a
parent id. Per-event calls are folded into a call count and busy time at the
same boundary, charged to the enclosing span as child time, so that every
span's self time excludes them. Everything stays in memory.
"""

from __future__ import annotations

import contextlib
import itertools
import time
import tracemalloc
from dataclasses import dataclass

import adsim.bench
import adsim.cli
from adsim.core import EventLog
from adsim.estimators import ClickWindowCtr, ImpressionWindowCtr, RelativeCtr, TimeWindowCtr

FOLDS = (TimeWindowCtr, ImpressionWindowCtr, ClickWindowCtr, RelativeCtr)

# (span name, owner, attribute): one span per call.
STAGES = (
    ("bench.load_config", adsim.cli, "load_config"),
    ("bench.run_scenario", adsim.cli, "run_scenario"),
    ("bench.simulate", adsim.bench, "simulate"),
    ("traffic.detect_scripted", adsim.bench, "detect_scripted"),
    ("bench.build_series", adsim.bench, "build_series"),
    ("bench.build_series", adsim.cli, "build_series"),
    ("core.EventLog.stripped", EventLog, "stripped"),
    ("core.write_log", adsim.cli, "write_log"),
    ("core.read_log", adsim.cli, "read_log"),
    ("bench.emit_csv", adsim.cli, "emit_csv"),
    ("bench.emit_plot", adsim.cli, "emit_plot"),
)

# (counter name, owner, attribute): per-event or per-tick calls, aggregated.
COUNTED = (
    ("core.EventLog.append", EventLog, "append"),
    ("auction.rank", adsim.bench, "rank"),
    ("auction.gsp_allocate", adsim.bench, "gsp_allocate"),
    ("traffic.organic_events", adsim.bench, "organic_events"),
    *(("estimators.observe", cls, "observe") for cls in FOLDS),
    *(("estimators.estimate", cls, "estimate") for cls in FOLDS),
)

# Units of work a counted call returns, recorded beside its call count.
_WORK = {
    "traffic.organic_events": lambda result: len(result[0]),
    "estimators.estimate": lambda result: not result.defined,
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    self_s: float  # duration minus child spans and counted calls inside it


class Counter:
    __slots__ = ("calls", "busy_s", "work")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.work = 0


@contextlib.contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each triple; restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """Spans and counters of one traced job.

    ``returns`` keeps the last return value and arguments of each stage, so
    that counts can be taken from them after the job, outside the timing.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = {}
        self.returns: dict[str, tuple] = {}
        self._stack: list[list] = []  # open spans: [id, parent, name, start, child_s]
        self._ids = itertools.count(1)

    def run(self, name, fn, *args):
        """Call ``fn(*args)`` as the root span, with every boundary wrapped."""
        wrappers = [(o, a, self._span(n, o.__dict__[a])) for n, o, a in STAGES]
        wrappers += [(o, a, self._counted(n, o.__dict__[a])) for n, o, a in COUNTED]
        with patched(wrappers):
            return self._span(name, fn)(*args)

    def _span(self, name, fn):
        stack, spans, returns, ids = self._stack, self.spans, self.returns, self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            rec = [next(ids), parent, name, clock(), 0.0]
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - rec[3]
                if stack:
                    stack[-1][4] += duration
                spans.append(Span(rec[0], parent, name, rec[3], end, duration - rec[4]))
            returns[name] = (result, args)
            return result

        return wrapper

    def _counted(self, name, fn):
        stack = self._stack
        counter = self.counters.setdefault(name, Counter())
        clock = time.perf_counter
        work = _WORK.get(name)

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            counter.calls += 1
            counter.busy_s += dt
            stack[-1][4] += dt
            if work is not None:
                counter.work += work(result)
            return result

        return wrapper

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)


ALLOC_STAGES = ("bench.simulate", "bench.build_series")


def alloc_peaks(peaks: dict[str, float], fn, *args):
    """Return ``fn(*args)``, recording in ``peaks`` the peak MB that each of
    ALLOC_STAGES allocates, as tracemalloc sees it.

    Tracing is on only inside those stages, in a pass of its own, because it
    slows every allocation.
    """
    peaks.update(dict.fromkeys(ALLOC_STAGES, 0.0))

    def probe(name, inner):
        def wrapper(*a, **kw):
            tracemalloc.start()
            try:
                return inner(*a, **kw)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peaks[name] = max(peaks[name], peak / 2**20)

        return wrapper

    wrappers = [
        (o, a, probe(n, o.__dict__[a])) for n, o, a in STAGES if n in ALLOC_STAGES
    ]
    with patched(wrappers):
        return fn(*args)
