"""In-memory span recorder for the traced benchmark run.

A Tracer wraps functions at the module attribute where callers look
them up. Each wrapper passes arguments and the return value through
unchanged and records one span (name, start, end, parent, peak RSS at
exit). Spans stay in memory until the run ends; `summarize` then folds
them into per-name totals with self time (a span minus its children).

Stdlib only. Timed runs use it for peak_rss_mb and never install
wrappers.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple, Union

SpanName = Union[str, Callable[[tuple, dict], str]]
OnReturn = Callable[["Tracer", tuple, dict, object], None]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans of one single-threaded run, kept as parallel arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.rss_mb = array("d")
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def wrap(self, fn: Callable, name: SpanName, on_return: Optional[OnReturn] = None) -> Callable:
        """A wrapper around fn that records a span per call.

        `name` is a span name or a function of (args, kwargs) returning
        one. `on_return` sees the call and its result after the span has
        closed, so its bookkeeping is not charged to the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name(args, kwargs) if callable(name) else name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self.rss_mb.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
                self.rss_mb[idx] = peak_rss_mb()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, table) -> List[Tuple[object, str, Callable]]:
        """Replace each (module, attribute, name, on_return) entry of
        `table` by a wrapper; returns what `uninstall` needs to undo it."""
        saved = []
        for module_name, attr, name, on_return in table:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(original, name, on_return))
            saved.append((module, attr, original))
        return saved


def uninstall(saved) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def summarize(tracer: Tracer) -> Dict[str, dict]:
    """Per span name: calls, total seconds, self seconds, max RSS at exit.

    Self time is the span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    n = len(tracer)
    durations = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child_time = [0.0] * n
    for i in range(n):
        parent = tracer.parents[i]
        if parent >= 0:
            child_time[parent] += durations[i]
    out: Dict[str, dict] = {}
    for i in range(n):
        entry = out.setdefault(tracer.names[i], {"calls": 0, "s": 0.0, "self_s": 0.0, "rss_mb": 0.0})
        entry["calls"] += 1
        entry["s"] += durations[i]
        entry["self_s"] += durations[i] - child_time[i]
        entry["rss_mb"] = max(entry["rss_mb"], tracer.rss_mb[i])
    return out
