from functools import partial

import numpy as np
import pytest

from thermobit.ensemble import EnsembleWorkerError, run_blocks, run_parallel_ensemble
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

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            run_parallel_ensemble(draw_one, 0, master_seed=0)
        with pytest.raises(ValueError):
            run_parallel_ensemble(draw_one, 5, master_seed=0, worker_count=0)


class TestRunBlocks:
    @pytest.mark.parametrize("block", [256, 2048])
    @pytest.mark.parametrize("full_blocks", [1, 2])
    def test_block_layout(self, block, full_blocks):
        # n = full_blocks*block + 1: every block holds `block` rows but the
        # last, which holds the one left over.
        n, offset, seed = full_blocks * block + 1, 7, 64
        sizes = [block] * full_blocks + [1]
        runs = [run_blocks(block_keys, n, block, seed, worker_count=w, stream_offset=offset)
                for w in (1, 2)]
        z, keys = runs[0]
        assert z.shape == (n,) and keys.shape == (2, n)
        np.testing.assert_array_equal(np.bincount(keys[0] - offset), sizes)
        np.testing.assert_array_equal(keys[1], np.concatenate([np.arange(r) for r in sizes]))
        want = [make_stream(seed, offset + k).standard_normal(r) for k, r in enumerate(sizes)]
        np.testing.assert_array_equal(z, np.concatenate(want))
        for got, ref in zip(runs[1], runs[0]):
            np.testing.assert_array_equal(got, ref)

        for workers in (1, 2):
            with pytest.raises(EnsembleWorkerError) as exc_info:
                run_blocks(partial(block_keys, fail_at=offset + full_blocks), n, block, seed,
                           worker_count=workers, stream_offset=offset)
            assert exc_info.value.stream_index == offset + full_blocks
