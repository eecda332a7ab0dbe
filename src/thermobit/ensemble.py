"""Deterministic parallel execution of Monte Carlo tasks.

Task i gets the stream derived from (master_seed, stream_offset + i).
Because every stream is a pure function of its key, the merged result
depends only on the seed and the task, never on the worker count or
completion order.  Every ensemble runs through `run_blocks`, the one
layout of trajectories into blocks and blocks onto streams;
`run_parallel_ensemble` is run_blocks with one trajectory per block.

A share of blocks runs on one stream object, re-keyed (RngStream.rekey)
before each block, so a task must not keep its stream after it returns:
the share's next block would re-key it and draw from it.

At worker_count > 1 the blocks are split evenly by count into
min(worker_count, number of blocks) contiguous shares, whose block counts
differ by at most one, and each share is one pool task: the worker runs
its blocks in order and joins their columns, so an ensemble costs one
message each way per share (see `_shares`).  The pool is used even when
there is only one share.

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

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np

from .streams import _check_word, make_stream

__all__ = ["EnsembleWorkerError", "MAX_WORKERS", "run_parallel_ensemble", "run_blocks",
           "standard_error"]

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


def _pool(worker_count):
    """The live pool of worker_count processes, started or replaced as needed."""
    global _live
    if _live is not None and _live[0] != worker_count:
        _live[1].shutdown()
        _live = None
    if _live is None:
        _live = (worker_count, ProcessPoolExecutor(max_workers=worker_count))
    return _live[1]


def _check_counts(n, worker_count):
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1 <= worker_count <= MAX_WORKERS:
        raise ValueError(f"worker_count must lie in [1, {MAX_WORKERS}], got {worker_count}")


def _shares(n, block, worker_count):
    """Split the ceil(n/block) blocks of n rows evenly into contiguous shares.

    Returns c = min(worker_count, n_blocks) ranges of block numbers, in
    order, none empty, whose lengths differ by at most one.
    """
    n_blocks = -(-n // block)
    c = min(worker_count, n_blocks)
    return [range(k * n_blocks // c, (k + 1) * n_blocks // c) for k in range(c)]


def _dispatch(run_share, shares, worker_count):
    """[run_share(s) for s in shares], one pool task per share at worker_count > 1.

    Results come back in share order, and a failure is raised from the
    first failing share, so the lowest failing stream index wins.
    """
    global _live
    if worker_count == 1:
        return [run_share(share) for share in shares]
    pool = _pool(worker_count)
    try:
        futures = [pool.submit(run_share, share) for share in shares]
        return [future.result() for future in futures]
    except BrokenProcessPool:
        # A dead worker breaks the pool for good: reap it, let the next call start anew.
        pool.shutdown()
        _live = None
        raise


def _join(parts):
    """The tuple of each column's concatenation along the last (row) axis."""
    return tuple(np.concatenate(column, axis=-1) for column in zip(*parts))


def _run_block_share(task, n, block, master_seed, stream_offset, blocks):
    """Run the blocks in order on one stream, re-keyed for each; join their columns."""
    parts, stream = [], None
    for k in blocks:
        index = stream_offset + k
        try:
            if stream is None:
                stream = make_stream(master_seed, index)
            else:
                stream.rekey(index)
            parts.append(task(stream, min(block, n - k * block)))
        except Exception as exc:  # noqa: BLE001 - re-raised with stream identity
            raise EnsembleWorkerError(index, exc) from exc
    return _join(parts)


def run_blocks(task, n, block, master_seed, *, worker_count=1, stream_offset=0):
    """Run task(stream, rows) on ceil(n/block) blocks; join each output in block order.

    Block k draws from a stream in the state of make_stream(master_seed,
    stream_offset + k) and holds `block` rows, except the last, which
    holds the rest.  Every task returns a tuple of arrays; the result is
    the tuple of their concatenations along the last (row) axis.  At worker_count > 1 the
    blocks run in shares (see `_shares`), each joined in its worker.
    A seed with no stream is refused here, before any stream or pool.
    """
    _check_counts(n, worker_count)
    _check_word("master_seed", int(master_seed))
    run = partial(_run_block_share, task, n, block, master_seed, stream_offset)
    parts = _dispatch(run, _shares(n, block, worker_count), worker_count)
    return parts[0] if len(parts) == 1 else _join(parts)


def _boxed(task, stream, rows):
    """task(stream) as a one-element object array: a block of one row."""
    out = np.empty(1, dtype=object)
    out[0] = task(stream)
    return (out,)


def run_parallel_ensemble(task, n_trajectories, master_seed, *,
                          worker_count=1, stream_offset=0):
    """Run `task(stream)` for n_trajectories streams; merge in index order.

    This is run_blocks with one trajectory per block.  `task` must be
    picklable (a module-level function or functools.partial of one) when
    worker_count > 1.
    """
    (results,) = run_blocks(partial(_boxed, task), n_trajectories, 1, master_seed,
                            worker_count=worker_count, stream_offset=stream_offset)
    return results.tolist()


def standard_error(x, axis=None):
    """Standard error of the mean of x, or along axis: sample std / sqrt(n); 0.0 for n = 1."""
    x = np.asarray(x)
    count = x.size if axis is None else x.shape[axis]
    return x.std(axis=axis, ddof=1) / math.sqrt(count) if count > 1 else 0.0
