"""Deterministic parallel execution of Monte Carlo tasks.

Task i gets the stream derived from (master_seed, stream_offset + i).
Because every stream is a pure function of its key, the merged result
depends only on the seed and the task, never on the worker count or
completion order.  Every ensemble runs through `run_blocks`, the one
layout of trajectories into blocks and blocks onto streams.
"""

from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from .streams import make_stream

__all__ = ["EnsembleWorkerError", "run_parallel_ensemble", "run_blocks"]


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


def run_parallel_ensemble(task, n_trajectories, master_seed, *,
                          worker_count=1, stream_offset=0):
    """Run `task(stream)` for n_trajectories streams; merge in index order.

    `task` must be picklable (a module-level function or functools.partial
    of one) when worker_count > 1.
    """
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be >= 1")
    if worker_count < 1:
        raise ValueError("worker_count must be >= 1")

    run = partial(_run_one, task, master_seed)
    indices = range(stream_offset, stream_offset + n_trajectories)
    if worker_count == 1:
        return [run(i) for i in indices]
    with ProcessPoolExecutor(max_workers=worker_count) as pool:
        return list(pool.map(run, indices, chunksize=-(-n_trajectories // (4 * worker_count))))


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
