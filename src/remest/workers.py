"""How many workers a parallel step gets, how threads run them, and how
much memory the host has; the grid, the operator, both solvers and the
simulator each pass their own peak bytes to :func:`refuse_past_memory`."""

import os
import sys

MAX_WORKERS = 4


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def physical_memory():
    """The host's physical memory in bytes, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        return None


class PastMemoryError(MemoryError):
    """An allocation refused before it was made, by :func:`refuse_past_memory`."""


def refuse_past_memory(what: str, nbytes: int) -> None:
    """Refuse ``what``'s ``nbytes`` past numpy's index range (``sys.maxsize``;
    numpy raises) or the host's physical memory (numpy may map, then fault)."""
    limit, name = sys.maxsize, "numpy can index"
    if (memory := physical_memory()) is not None and memory < limit:
        limit, name = memory, "the host's physical memory"
    if nbytes > limit:
        raise PastMemoryError(f"{what}: {nbytes} bytes, more than {name} ({limit} bytes)")


def count(units: int) -> int:
    """One worker per unit of work, at least 1, at most usable CPUs and MAX_WORKERS."""
    return max(1, min(units, usable_cpus(), MAX_WORKERS))


def run_each(fn, items) -> list:
    """``[fn(x) for x in items]``, the first item in the calling thread and the
    others at once on threads started for this call. Every thread has ended
    when this returns or raises, and a worker's error is raised here."""
    if len(items) < 2:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor  # importing the CLI skips it
    with ThreadPoolExecutor(len(items) - 1) as pool:
        futures = [pool.submit(fn, x) for x in items[1:]]
        first = fn(items[0])
        return [first] + [f.result() for f in futures]
