import math
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np
import pytest

from thermobit import ensemble
from thermobit.ensemble import (MAX_WORKERS, EnsembleWorkerError, run_blocks,
                                run_parallel_ensemble, standard_error)
from thermobit.streams import make_stream


def draw_one(stream):
    return float(stream.standard_normal())


def fail_at_index_three(stream):
    if stream.stream_index == 3:
        raise ValueError("boom")
    return 0.0


def block_keys(stream, rows, fail_at=None):
    """Each row's first normal, and a (2, rows) array of (stream index, row)."""
    if stream.stream_index == fail_at:
        raise ValueError("boom")
    keys = np.stack([np.full(rows, stream.stream_index), np.arange(rows)])
    return stream.standard_normal(rows), keys


def die_at(stream, rows, at):
    """Kill the worker process outright at block `at`, as a crash would."""
    if stream.stream_index == at:
        os._exit(1)
    return (stream.standard_normal(rows),)


def refuse_pool(*args, **kwargs):
    raise AssertionError("a process pool was constructed")


def refuse_stream(*args, **kwargs):
    raise AssertionError("a stream was built")


def fail_in(stream, rows, at):
    """Raise at every block whose stream index is in `at`."""
    if stream.stream_index in at:
        raise ValueError("boom")
    return (stream.standard_normal(rows),)


def pid_block(stream, rows):
    return (np.full(rows, os.getpid()),)


@pytest.fixture
def submitted(monkeypatch):
    """Wrap the executor that ensemble._pool returns; list every task submitted to it."""
    log = []
    real = ensemble._pool

    class Counting:
        def __init__(self, pool):
            self.pool = pool

        def submit(self, fn, *args):
            log.append(args)
            return self.pool.submit(fn, *args)

        def __getattr__(self, name):
            return getattr(self.pool, name)

    monkeypatch.setattr(ensemble, "_pool", lambda worker_count: Counting(real(worker_count)))
    return log


class TestRunParallelEnsemble:
    def test_single_worker_matches_direct_calls(self):
        got = run_parallel_ensemble(draw_one, 20, master_seed=60)
        want = [draw_one(make_stream(60, i)) for i in range(20)]
        assert got == want

    def test_worker_count_does_not_change_results(self):
        serial = run_parallel_ensemble(draw_one, 50, master_seed=61, worker_count=1)
        quad = run_parallel_ensemble(draw_one, 50, master_seed=61, worker_count=4)
        np.testing.assert_array_equal(serial, quad)

    def test_stream_offset_shifts_keys(self):
        shifted = run_parallel_ensemble(draw_one, 10, master_seed=62, stream_offset=100)
        want = [draw_one(make_stream(62, 100 + i)) for i in range(10)]
        assert shifted == want

    def test_failure_carries_stream_index(self):
        with pytest.raises(EnsembleWorkerError) as exc_info:
            run_parallel_ensemble(fail_at_index_three, 10, master_seed=63)
        assert exc_info.value.stream_index == 3

    def test_failure_propagates_from_worker_pool(self):
        with pytest.raises(EnsembleWorkerError):
            run_parallel_ensemble(fail_at_index_three, 10, master_seed=63, worker_count=2)

    def test_rejects_bad_counts(self, monkeypatch):
        with pytest.raises(ValueError):
            run_parallel_ensemble(draw_one, 0, master_seed=0)
        with pytest.raises(ValueError):
            run_parallel_ensemble(draw_one, 5, master_seed=0, worker_count=0)
        # Above the cap the count is refused before any process starts.
        monkeypatch.setattr(ensemble, "_pool", refuse_pool)
        with pytest.raises(ValueError, match="worker_count"):
            run_parallel_ensemble(draw_one, 5, master_seed=0, worker_count=MAX_WORKERS + 1)


class TestRunBlocks:
    @pytest.mark.parametrize("block", [256, 2048])
    @pytest.mark.parametrize("full_blocks", [1, 2])
    def test_block_layout(self, block, full_blocks):
        # n = full_blocks*block + 1: every block holds `block` rows but the
        # last, which holds the one left over.
        n, offset, seed = full_blocks * block + 1, 7, 64
        sizes = [block] * full_blocks + [1]
        runs = [run_blocks(block_keys, n, block, seed, worker_count=w, stream_offset=offset)
                for w in (1, 2, 3)]
        z, keys = runs[0]
        assert z.shape == (n,) and keys.shape == (2, n)
        np.testing.assert_array_equal(np.bincount(keys[0] - offset), sizes)
        np.testing.assert_array_equal(keys[1], np.concatenate([np.arange(r) for r in sizes]))
        want = [make_stream(seed, offset + k).standard_normal(r) for k, r in enumerate(sizes)]
        np.testing.assert_array_equal(z, np.concatenate(want))
        for run in runs[1:]:
            for got, ref in zip(run, runs[0], strict=True):
                np.testing.assert_array_equal(got, ref)

        for workers in (1, 2):
            with pytest.raises(EnsembleWorkerError) as exc_info:
                run_blocks(partial(block_keys, fail_at=offset + full_blocks), n, block, seed,
                           worker_count=workers, stream_offset=offset)
            assert exc_info.value.stream_index == offset + full_blocks


class TestPool:
    """One pool lives across ensembles: reused, replaced, or dropped when broken."""

    N, BLOCK, SEED = 1000, 100, 65

    def serial(self):
        return run_blocks(block_keys, self.N, self.BLOCK, self.SEED)

    def pooled(self, task=block_keys, workers=2):
        return run_blocks(task, self.N, self.BLOCK, self.SEED, worker_count=workers)

    def assert_equal(self, got, want):
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w)

    def test_calls_share_one_executor(self):
        want = self.serial()
        self.assert_equal(self.pooled(), want)
        pool = ensemble._live[1]
        self.assert_equal(self.pooled(), want)
        assert ensemble._live == (2, pool)

    def test_task_error_keeps_the_pool(self):
        self.pooled()
        pool = ensemble._live[1]
        with pytest.raises(EnsembleWorkerError) as exc_info:
            self.pooled(partial(block_keys, fail_at=4))
        assert exc_info.value.stream_index == 4
        self.assert_equal(self.pooled(), self.serial())
        assert ensemble._live == (2, pool)

    def test_dead_worker_gives_a_fresh_pool(self):
        self.pooled()
        pool = ensemble._live[1]
        with pytest.raises(BrokenProcessPool):
            self.pooled(partial(die_at, at=3))
        self.assert_equal(self.pooled(), self.serial())
        assert ensemble._live[1] is not pool

    def test_changing_the_count_stops_the_old_workers(self):
        self.pooled(workers=4)
        ensemble._pool(2)  # joins the four workers; starts none until work comes
        assert not multiprocessing.active_children()
        self.assert_equal(self.pooled(workers=2), self.serial())
        assert ensemble._live[0] == 2
        assert len(multiprocessing.active_children()) <= 2


class TestShares:
    """At worker_count > 1 each pool task is one contiguous share of the blocks."""

    def test_even_split_by_block_count(self):
        # Three blocks over two workers: one block (2048 rows), then two
        # (2049 rows).
        assert ensemble._shares(4097, 2048, 2) == [range(0, 1), range(1, 3)]
        assert [len(s) for s in ensemble._shares(6000, 256, 2)] == [12, 12]

    @pytest.mark.parametrize("n, block, workers", [
        (4097, 2048, 3), (4097, 2048, 8), (2305, 256, 11), (10, 256, 2), (5, 1, 256)])
    def test_more_workers_than_blocks_gives_a_block_each(self, n, block, workers):
        n_blocks = -(-n // block)
        assert ensemble._shares(n, block, workers) == [range(k, k + 1) for k in range(n_blocks)]

    @pytest.mark.parametrize("n, block", [(1, 1), (4097, 2048), (6000, 256), (700, 256),
                                          (12000, 256), (999, 7)])
    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 8])
    def test_shares_tile_the_blocks_in_order(self, n, block, workers):
        shares = ensemble._shares(n, block, workers)
        assert [k for share in shares for k in share] == list(range(-(-n // block)))
        assert all(shares) and len(shares) <= workers
        assert max(map(len, shares)) - min(map(len, shares)) <= 1

    @pytest.mark.parametrize("n, block, workers", [
        (1000, 100, 2), (1000, 100, 3), (300, 100, 8), (50, 100, 2)])
    def test_one_task_per_share(self, submitted, n, block, workers):
        run_blocks(block_keys, n, block, 66, worker_count=workers)
        assert len(submitted) <= min(workers, -(-n // block))
        assert submitted == [(share,) for share in ensemble._shares(n, block, workers)]

    def test_parallel_ensemble_sends_shares_of_indices(self, submitted):
        got = run_parallel_ensemble(draw_one, 50, master_seed=67, worker_count=4,
                                    stream_offset=9)
        # Blocks of one trajectory each, numbered from 0; block k uses stream 9 + k.
        assert submitted == [(range(0, 12),), (range(12, 25),), (range(25, 37),),
                             (range(37, 50),)]
        assert got == [draw_one(make_stream(67, 9 + i)) for i in range(50)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("at, want", [
        ({9}, 9),        # the last share's own index
        ({7, 2}, 2),     # failures in two shares: the lower index wins
        ({8, 6}, 6),     # at 2 workers one share holds both: it runs 6 first
    ])
    def test_failure_reports_the_lowest_stream_index(self, workers, at, want):
        offset = 40
        with pytest.raises(EnsembleWorkerError) as exc_info:
            run_blocks(partial(fail_in, at={offset + k for k in at}), 1000, 100, 69,
                       worker_count=workers, stream_offset=offset)
        assert exc_info.value.stream_index == offset + want

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("at", [0, 1, 2, 3])
    def test_a_failing_block_reports_its_own_index(self, workers, at):
        # Five blocks; at 2 workers the shares are (0, 1) and (2, 3, 4), so
        # blocks 0 and 2 start a share there and 1 and 3 run re-keyed.
        offset = 40
        with pytest.raises(EnsembleWorkerError) as exc_info:
            run_blocks(partial(fail_in, at={offset + at}), 500, 100, 71,
                       worker_count=workers, stream_offset=offset)
        assert exc_info.value.stream_index == offset + at

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("offset", [2**64 - 3, 2**64 - 2])
    def test_stream_index_out_of_range_reports_its_block(self, workers, offset):
        # Block 2**64 - offset is the first with no key: a re-keyed block
        # (3 of share (2, 3, 4), or 2 at one worker) or the first of a share.
        with pytest.raises(EnsembleWorkerError) as exc_info:
            run_blocks(partial(fail_in, at=()), 500, 100, 72, worker_count=workers,
                       stream_offset=offset)
        assert exc_info.value.stream_index == 2**64
        assert "stream_index must lie in [0, 2**64)" in exc_info.value.cause_text

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_is_refused_before_any_stream_or_pool(self, monkeypatch,
                                                                    workers, seed):
        # Every block shares the seed, so a bad one is no block's error: it
        # is refused once, up front, as a plain ValueError.
        monkeypatch.setattr(ensemble, "_pool", refuse_pool)
        monkeypatch.setattr(ensemble, "make_stream", refuse_stream)
        with pytest.raises(ValueError, match=r"master_seed must lie in \[0, 2\*\*64\), got "):
            run_blocks(partial(fail_in, at=()), 300, 256, seed, worker_count=workers)

    def test_one_share_still_runs_in_a_worker(self):
        (pids,) = run_blocks(pid_block, 10, 256, 70, worker_count=2)
        assert pids.shape == (10,) and len(set(pids)) == 1
        assert pids[0] != os.getpid()


class TestStandardError:
    def test_matches_formula_bit_for_bit(self):
        x = make_stream(3, 0).standard_normal(size=1001)
        assert standard_error(x) == x.std(ddof=1) / math.sqrt(x.size)

    def test_along_axis(self):
        x = make_stream(3, 1).standard_normal(size=(5, 300))
        np.testing.assert_array_equal(standard_error(x, axis=1),
                                      x.std(axis=1, ddof=1) / math.sqrt(300))

    def test_single_value_is_zero(self):
        assert standard_error(np.array([2.5])) == 0.0
