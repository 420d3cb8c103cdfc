"""Forked worker processes: how many a job may use, starting and reaping
them, and one map over items in contiguous slices.

A worker is a fork of this process. It ends with os._exit, so it never
returns into its caller's stack, runs atexit handlers or flushes
inherited stdio. Everything here runs in this process alone when the
host cannot fork or another thread is alive: a forked child of a
threaded process can deadlock on a lock that thread held.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from functools import partial
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# a part of a file (load, infer) or of a dataset's record columns (save)
# is never smaller than this. Timed on 2 CPUs of a shared host, one part
# against two, best of 7 per size in several runs: a worker's fixed
# costs (fork, pipe or append, exit) are about 5 ms. Loads of 1.5 to
# 4.6 MB files were slower in two parts in 13 of 14 timings, up to twice
# as long; from 6 to 25 MB two parts ranged from 50 % slower to 35 %
# faster run to run, and from 49 MB on they were 15-37 % faster in every
# run. Saves were faster in two parts in every timing from 3.8 MB of
# columns on. So two parts start at 6 MiB, and more CPUs add parts only
# while each stays as large: no count above 2 was timed
_PART_BYTES = 3 << 20

# the cgroup v2 CPU quota, "<quota> <period>" in microseconds or "max
# <period>": the CPUs' worth of time this process may use, which can be
# fewer than the CPUs it may run on
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _usable_cpus() -> int:
    """The CPUs this process may run on (os.sched_getaffinity, else
    os.cpu_count()), capped by a cgroup v2 CPU quota rounded up."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this host
        cpus = os.cpu_count() or 1
    try:
        with open(_CPU_MAX, encoding="ascii") as fh:
            quota, period = fh.read().split()
        return max(1, min(cpus, -(-int(quota) // int(period))))
    except (OSError, ValueError):  # no quota ("max"), no cgroup v2, or not Linux
        return cpus


def _can_fork() -> bool:
    """Whether this host can fork and no other thread is alive."""
    return hasattr(os, "fork") and threading.active_count() == 1


def _part_count(size: int) -> int:
    """How many contiguous parts a job of `size` bytes is split into,
    each part but the first done by a forked worker: one per usable CPU,
    but no more than leaves each part _PART_BYTES, and 1 (this process
    alone) when this host cannot fork or another thread is alive."""
    if not _can_fork():
        return 1
    return max(1, min(_usable_cpus(), size // _PART_BYTES))


def _fork(work: Callable[[], None]) -> Optional[int]:
    """The pid of a forked worker that runs `work`, or None when the host
    refuses another process. The worker ends with os._exit, status 0 if
    `work` returned and 1 if it raised."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        status = 1
        try:
            work()
            status = 0
        finally:
            os._exit(status)
    return pid


def _reap(pid: Optional[int], kill: bool = False) -> bool:
    """Wait for a worker of _fork (with `kill`, ended first), and whether
    it exited with status 0; False for None, a worker never started, and
    for a worker whose status is lost."""
    if pid is None:
        return False
    try:
        if kill:
            os.kill(pid, signal.SIGKILL)
        return os.waitpid(pid, 0)[1] == 0
    except (ProcessLookupError, ChildProcessError):  # reaped unseen: the caller ignores SIGCHLD
        return False


def _send(pipe: int, fn: Callable, items: Sequence) -> None:
    """A worker's slice of forked_map: fn over `items`, pickled down `pipe`."""
    with open(pipe, "wb") as out:
        out.write(pickle.dumps(list(map(fn, items)), protocol=pickle.HIGHEST_PROTOCOL))


def forked_map(fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
    """list(map(fn, items)), its results and errors too, in up to one
    contiguous slice of `items` per usable CPU: forked workers run every
    slice but the first, which this process runs, and pickle their
    results back through pipes. A slice whose worker fails (fn raised in
    it, it died, or it never started) is run again by this process, in
    item order. With one slice, no fork or another thread alive, this
    process runs every item. A worker's changes to memory are lost, so
    fn's only effect this process sees is the result (and what it writes
    to files)."""
    n = min(_usable_cpus(), len(items)) if _can_fork() else 1
    if n <= 1:
        return list(map(fn, items))
    slices = [items[len(items) * k // n : len(items) * (k + 1) // n] for k in range(n)]
    workers = []  # (pid, read end of its pipe) of each slice but the first
    try:
        for part in slices[1:]:
            r, w = os.pipe()
            pid = _fork(partial(_send, w, fn, part))
            os.close(w)
            workers.append((pid, open(r, "rb")))
        results = list(map(fn, slices[0]))
        for k, ((pid, pipe), part) in enumerate(zip(workers, slices[1:])):
            data = pipe.read()
            ok = _reap(pid)
            workers[k] = (None, pipe)
            results.extend(pickle.loads(data) if ok else map(fn, part))
        return results
    finally:
        for pid, pipe in workers:
            pipe.close()
            _reap(pid, kill=True)
