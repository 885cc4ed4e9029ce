import threading
from unittest import mock

import pytest

from remest import workers


@pytest.mark.parametrize("cpus, units, expected", [
    (1, 10 ** 6, 1),  # one CPU
    (8, 1, 1),
    (8, 0, 1),  # less work than one unit still runs
    (8, 3, 3),
    (3, 8, 3),
    (64, 10 ** 6, workers.MAX_WORKERS),
])
def test_count(monkeypatch, cpus, units, expected):
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    assert workers.count(units) == expected


def test_usable_cpus_is_positive():
    assert workers.usable_cpus() >= 1


@pytest.mark.parametrize("cpu_count, expected", [(None, 1), (3, 3)])
def test_usable_cpus_without_affinity_masks_reads_cpu_count(monkeypatch, cpu_count, expected):
    monkeypatch.delattr(workers.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(workers.os, "cpu_count", lambda: cpu_count)
    assert workers.usable_cpus() == expected


def test_physical_memory_is_positive_or_unknown(monkeypatch):
    memory = workers.physical_memory()
    assert memory is None or memory > 0
    monkeypatch.delattr(workers.os, "sysconf")  # a platform without sysconf
    assert workers.physical_memory() is None


def test_run_each_keeps_order_and_runs_the_first_item_in_the_caller():
    caller = threading.current_thread()
    before = set(threading.enumerate())
    items = list(range(5))
    # every item waits for all the others, so each must be running at once
    barrier = threading.Barrier(len(items), timeout=10)

    def fn(x):
        barrier.wait()
        return x * x, threading.current_thread()

    results = workers.run_each(fn, items)
    assert [value for value, _ in results] == [x * x for x in items]
    threads = [thread for _, thread in results]
    assert threads[0] is caller
    assert len(set(threads)) == len(items)
    assert not any(t.is_alive() for t in threads[1:])
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("items", [[7], range(1, 2)], ids=["list", "range"])
def test_one_item_starts_no_thread(items):
    before = threading.active_count()
    with mock.patch("concurrent.futures.ThreadPoolExecutor",
                    side_effect=AssertionError("started a thread")):
        got = workers.run_each(lambda x: (x, threading.current_thread()), items)
    assert got == [(x, threading.current_thread()) for x in items]
    assert threading.active_count() == before


def test_worker_error_is_raised_in_the_caller():
    caller = threading.current_thread()
    before = set(threading.enumerate())
    started = []

    def fn(x):
        started.append(threading.current_thread())
        if threading.current_thread() is not caller:
            raise RuntimeError(f"item {x} failed")
        return x

    with pytest.raises(RuntimeError, match=r"item [12] failed"):
        workers.run_each(fn, [0, 1, 2])
    assert len(started) == 3
    assert not any(t.is_alive() for t in started if t is not caller)
    assert set(threading.enumerate()) == before
