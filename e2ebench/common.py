"""Shared helpers: process clocks and counters, spans, summary statistics.

Nothing here imports the program under test, so the helpers can be loaded
before ``src`` is on the path (and by the self-tests).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Sequence

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
#: Ignored by git; the program never writes here (it archives under
#: ``benchmarks/results/``).
OUT_DIR = os.path.join(HERE, "out")


def seconds_since_process_start() -> float:
    """Wall seconds since the kernel started this process.

    ``/proc/self/stat`` field 22 is the start time in clock ticks since
    boot, on the same clock as ``CLOCK_BOOTTIME``. Tick resolution is
    10 ms, well under the set-up times measured with it.
    """
    with open("/proc/self/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22; fields[0] is field 3
    start_s = start_ticks / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_s


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, 0 when the denominator is 0 (layer unused)."""
    return float(numerator) / float(denominator) if denominator else 0.0


def log(message: str) -> None:
    """Progress notes go to stderr; stdout's last line is the result."""
    print(f"[e2ebench] {message}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullSpan()


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs", "child_s")

    def __init__(self, span_id: int, parent: int, name: str, attrs: Dict) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        #: Time covered by direct children (single thread: they never overlap).
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> Dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """In-memory span recorder around the benchmark's calls into the program.

    Spans nest by call order on the one thread that records them (fork-pool
    workers record nothing). While ``active`` is false, :meth:`span` returns
    a shared no-op context, so the wrappers cost one attribute test.
    """

    def __init__(self) -> None:
        self.active = False
        #: Workload phase stamped on every span (``steady``, ``burst``, ...).
        self.phase = ""
        self.spans: List[Span] = []
        #: Calls seen by a wrapper, counted whether or not spans are on.
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[Span] = []

    def span(self, name: str, **attrs):
        if not self.active:
            return _NULL
        return self._record(name, attrs)

    @contextmanager
    def _record(self, name: str, attrs: Dict):
        parent = self._stack[-1] if self._stack else None
        attrs["phase"] = self.phase
        record = Span(len(self.spans), parent.id if parent else -1, name, attrs)
        self.spans.append(record)
        self._stack.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += record.duration

    def named(self, name: str, since: int = 0) -> List[Span]:
        return [s for s in self.spans[since:] if s.name == name]

    def total(self, name: str, since: int = 0, self_time: bool = False) -> float:
        spans = self.named(name, since)
        return sum(s.self_time if self_time else s.duration for s in spans)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record.as_dict(), default=_jsonable) + "\n")


def _jsonable(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (tuple, set)):
        return list(value)
    return str(value)


def wrap_callable(tracer: Tracer, owner, attribute: str, span_name: str,
                  attrs_of=None) -> None:
    """Replace ``owner.attribute`` with a version that records a span.

    ``attrs_of(args, kwargs)`` may supply span attributes (ids, batch size).
    Used only by the traced run; the untraced run never installs wrappers.
    """
    original = getattr(owner, attribute)

    def traced(*args, **kwargs):
        if not tracer.active:
            return original(*args, **kwargs)
        attrs = attrs_of(args, kwargs) if attrs_of is not None else {}
        with tracer.span(span_name, **attrs):
            return original(*args, **kwargs)

    traced.__wrapped__ = original
    setattr(owner, attribute, traced)

