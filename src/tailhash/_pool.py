"""Process-wide worker threads for the blocked numpy passes.

`affinity` splits its nearest-member passes here, one task per label.
numpy releases the interpreter lock inside their GEMMs and reductions, so
the tasks overlap on separate CPUs. Each
task writes only its own part of the output, so results do not depend on
the worker count. Tasks call numpy only: the tracing in ``perfbench`` assumes
that every span of the package nests on one thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without CPU affinity
        return os.cpu_count() or 1


WORKERS = _usable_cpus()
# a pass is split only when every worker gets at least this many full blocks;
# below that, the threads' allocator arenas and hand-offs cost more memory and
# time than the overlap saves
MIN_BLOCKS_PER_WORKER = 8

_lock = threading.Lock()
_executor: Optional[ThreadPoolExecutor] = None


def workers_for(n_blocks: float) -> int:
    """Workers to split a pass of ``n_blocks`` full blocks across; 1 = inline."""
    return max(1, min(WORKERS, int(n_blocks // MIN_BLOCKS_PER_WORKER)))


def _pool() -> ThreadPoolExecutor:
    global _executor
    with _lock:
        if _executor is None:
            # the calling thread is one of the workers
            _executor = ThreadPoolExecutor(max(1, WORKERS - 1),
                                           thread_name_prefix="tailhash")
        return _executor


def run(tasks: Sequence[Callable[[], None]], workers: int) -> None:
    """Run every task, in order, on at most ``workers`` threads at a time.

    The caller works through the list too, and returns once every task has
    finished; a task's exception is raised here, after the other threads
    have stopped taking new tasks.
    """
    if workers <= 1:
        for task in tasks:
            task()
        return
    pending = iter(tasks)
    take = threading.Lock()
    failed = threading.Event()

    def drain() -> None:
        while not failed.is_set():
            with take:
                task = next(pending, None)
            if task is None:
                return
            try:
                task()
            except BaseException:
                failed.set()
                raise

    helpers = [_pool().submit(drain) for _ in range(workers - 1)]
    try:
        drain()
    finally:
        errors = [f.exception() for f in helpers]
    for error in errors:
        if error is not None:
            raise error
