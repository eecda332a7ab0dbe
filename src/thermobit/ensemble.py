"""Deterministic parallel execution of Monte Carlo tasks.

Task i gets the stream derived from (master_seed, stream_offset + i).
Because every stream is a pure function of its key, the merged result
depends only on the seed and the task, never on the worker count or
completion order.  Every ensemble runs through `run_blocks`, the one
layout of trajectories into blocks and blocks onto streams.

Runs at worker_count > 1 share one process pool, kept alive for the
life of the process and reused by every later call with the same count;
a call with another count shuts it down and starts a new one, a pool
whose worker died is dropped so that the next call starts afresh, and
concurrent.futures' own exit hook shuts it down at interpreter exit.  The
workers start by the platform's default method.  Where that is fork (Linux
before Python 3.14), they see module state (module globals, class
attributes, monkeypatches) as it was when the pool was forked, not as it
is when a later ensemble runs.  One thread at a time may run ensembles.
"""

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np

from .streams import make_stream

__all__ = ["EnsembleWorkerError", "MAX_WORKERS", "run_parallel_ensemble", "run_blocks"]

# Far above the core count of any host this runs on; the cap stops a
# mistyped count such as 100000 from forking that many processes.
MAX_WORKERS = 256

_live = None  # (worker_count, executor) of the one pool kept alive


class EnsembleWorkerError(RuntimeError):
    """A task failed; carries the offending stream index."""

    def __init__(self, stream_index, cause):
        super().__init__(f"task failed at stream_index={stream_index}: {cause}")
        self.stream_index = stream_index
        self.cause_text = str(cause)

    def __reduce__(self):
        # Keep the two-argument constructor working across the process
        # boundary; the default exception reduce would replay __init__
        # with the formatted message only and break unpickling.
        return (self.__class__, (self.stream_index, self.cause_text))


def _run_one(task, master_seed, index):
    try:
        return task(make_stream(master_seed, index))
    except Exception as exc:  # noqa: BLE001 - re-raised with stream identity
        raise EnsembleWorkerError(index, exc) from exc


def _pool(worker_count):
    """The live pool of worker_count processes, started or replaced as needed."""
    global _live
    if _live is not None and _live[0] != worker_count:
        _live[1].shutdown()
        _live = None
    if _live is None:
        _live = (worker_count, ProcessPoolExecutor(max_workers=worker_count))
    return _live[1]


def run_parallel_ensemble(task, n_trajectories, master_seed, *,
                          worker_count=1, stream_offset=0):
    """Run `task(stream)` for n_trajectories streams; merge in index order.

    `task` must be picklable (a module-level function or functools.partial
    of one) when worker_count > 1.
    """
    global _live
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be >= 1")
    if not 1 <= worker_count <= MAX_WORKERS:
        raise ValueError(f"worker_count must lie in [1, {MAX_WORKERS}], got {worker_count}")

    run = partial(_run_one, task, master_seed)
    indices = range(stream_offset, stream_offset + n_trajectories)
    if worker_count == 1:
        return [run(i) for i in indices]
    pool = _pool(worker_count)
    try:
        return list(pool.map(run, indices, chunksize=-(-n_trajectories // (4 * worker_count))))
    except BrokenProcessPool:
        # A dead worker breaks the pool for good: reap it, let the next call start anew.
        pool.shutdown()
        _live = None
        raise


def _run_block(stream, task, n, block, stream_offset):
    return task(stream, min(block, n - (stream.stream_index - stream_offset) * block))


def run_blocks(task, n, block, master_seed, *, worker_count=1, stream_offset=0):
    """Run task(stream, rows) on ceil(n/block) blocks; join each output in block order.

    Block k uses make_stream(master_seed, stream_offset + k) and holds
    `block` rows, except the last, which holds the rest.  Every task
    returns a tuple of arrays; the result is the tuple of their
    concatenations along the last (row) axis.
    """
    sized = partial(_run_block, task=task, n=n, block=block, stream_offset=stream_offset)
    parts = run_parallel_ensemble(sized, -(-n // block), master_seed,
                                  worker_count=worker_count, stream_offset=stream_offset)
    return tuple(np.concatenate(column, axis=-1) for column in zip(*parts))
