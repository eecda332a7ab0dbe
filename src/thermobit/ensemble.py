"""Deterministic parallel execution of Monte Carlo tasks.

Each task (one trajectory, or a block of them) gets the stream derived
from (master_seed, stream_offset + task index).  Because every stream
is a pure function of its key, the merged result list depends only on
the seed and the task, never on the worker count or completion order.
"""

from concurrent.futures import ProcessPoolExecutor

from .streams import make_stream

__all__ = ["EnsembleWorkerError", "run_parallel_ensemble"]


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


def _run_chunk(task, master_seed, indices):
    out = []
    for i in indices:
        try:
            out.append(task(make_stream(master_seed, i)))
        except Exception as exc:  # noqa: BLE001 - re-raised with stream identity
            raise EnsembleWorkerError(i, exc) from exc
    return out


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

    indices = range(stream_offset, stream_offset + n_trajectories)
    if worker_count == 1:
        return _run_chunk(task, master_seed, indices)

    chunk = max(1, -(-n_trajectories // (worker_count * 4)))
    chunks = [indices[k:k + chunk] for k in range(0, n_trajectories, chunk)]
    results = []
    with ProcessPoolExecutor(max_workers=worker_count) as pool:
        for part in pool.map(_run_chunk,
                             [task] * len(chunks),
                             [master_seed] * len(chunks),
                             chunks):
            results.extend(part)
    return results
