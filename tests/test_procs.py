"""procs.forked_map: list(map(fn, items)), its results and errors, in
contiguous slices of which forked workers run all but the first."""

import os
import threading

import numpy as np
import pytest

from beamprint import procs

from conftest import no_child_left

ITEMS = {
    "empty": [],
    "one": [3],
    "short": [5, -2],
    "uneven": list(range(11)),
}


def _square(x):
    return {"x": x, "square": np.array([x * x, -x], dtype=np.int64)}


def _equal(got, want):
    assert [g["x"] for g in got] == [w["x"] for w in want]
    assert all(np.array_equal(g["square"], w["square"]) for g, w in zip(got, want))


def _logged(log, fn):
    """fn, which first appends its item and this process's pid to the
    file `log`: a worker's memory is lost, its writes to a file are not."""

    def run(x):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(fd, f"{x} {os.getpid()}\n".encode())
        os.close(fd)
        return fn(x)

    return run


def _slice_pids(log, items, n):
    """The pids that ran each of the n contiguous slices of `items`."""
    ran = dict(map(int, line.split()) for line in log.read_text().splitlines()) if log.exists() else {}
    bounds = [len(items) * j // n for j in range(n + 1)]
    return [{ran[x] for x in items[a:b]} for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("items", list(ITEMS.values()), ids=list(ITEMS))
def test_forked_map_equals_map(tmp_path, forced_parts, items, k):
    workers = forced_parts(k)
    log = tmp_path / "runs"
    _equal(procs.forked_map(_logged(log, _square), items), list(map(_square, items)))
    # a slice per CPU, but no more than the items: this process runs the
    # first, and a worker each other one
    n = max(min(k, len(items)), 1)
    owners = _slice_pids(log, items, n)
    if items:
        assert owners[0] == {os.getpid()} and all(len(pids) == 1 for pids in owners)
        assert len(set.union(*owners)) == n
    assert workers == [True] * (n - 1)
    no_child_left()


@pytest.mark.parametrize("dying", [[True, True], [False, True], [True, False]], ids=["every", "last", "first"])
def test_a_worker_that_dies_leaves_its_items_to_this_process(tmp_path, forced_parts, monkeypatch, dying):
    workers = forced_parts(3)
    fork = procs._fork
    started = []

    def forked(work):
        dies = dying[len(started)]
        started.append(dies)
        return fork(lambda: os._exit(1)) if dies else fork(work)

    monkeypatch.setattr(procs, "_fork", forked)
    log = tmp_path / "runs"
    items = ITEMS["uneven"]
    _equal(procs.forked_map(_logged(log, _square), items), list(map(_square, items)))
    assert workers == [not dies for dies in dying]
    # this process ran its own slice and every dead worker's
    owners = _slice_pids(log, items, 3)
    assert [pids == {os.getpid()} for pids in owners] == [True, *dying]
    no_child_left()


def test_a_worker_that_cannot_start_leaves_its_items_to_this_process(forced_parts, monkeypatch):
    forced_parts(3)
    monkeypatch.setattr(procs, "_fork", lambda work: None)
    items = ITEMS["uneven"]
    _equal(procs.forked_map(_square, items), list(map(_square, items)))
    no_child_left()


def _fails_at(bad):
    def run(x):
        if x in bad:
            raise ValueError(f"item {x}")
        return _square(x)

    return run


@pytest.mark.parametrize("bad", [{1}, {9}, {9, 4}], ids=["first-slice", "last-slice", "two-slices"])
def test_an_error_in_a_slice_is_the_error_map_raises(forced_parts, bad):
    # a worker whose fn raises exits 1, and this process runs its slice
    # again: the first error in item order is raised, as map raises it
    forced_parts(3)
    with pytest.raises(ValueError) as e:
        procs.forked_map(_fails_at(bad), ITEMS["uneven"])
    assert str(e.value) == f"item {min(bad)}"
    no_child_left()


@pytest.mark.parametrize("exception", [KeyboardInterrupt, MemoryError])
def test_an_exception_in_this_process_reaps_every_worker(forced_parts, exception):
    forced_parts(4)
    me = os.getpid()

    def run(x):
        if os.getpid() == me:
            raise exception()
        threading.Event().wait(0.2)  # the workers are still running
        return x

    with pytest.raises(exception):
        procs.forked_map(run, ITEMS["uneven"])
    no_child_left()


def _no_fork():
    raise AssertionError("forked")


def _thread_alive():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    return lambda: (stop.set(), thread.join())


@pytest.mark.parametrize("condition", ["no-fork", "thread-alive", "one-cpu"])
def test_forked_map_runs_serially(tmp_path, forced_parts, monkeypatch, condition):
    forced_parts(4)
    stop = None
    if condition == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", _no_fork)
    if condition == "thread-alive":
        stop = _thread_alive()
    elif condition == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    log = tmp_path / "runs"
    items = ITEMS["uneven"]
    try:
        _equal(procs.forked_map(_logged(log, _square), items), list(map(_square, items)))
    finally:
        if stop is not None:
            stop()
    assert _slice_pids(log, items, 1) == [{os.getpid()}]
    no_child_left()
