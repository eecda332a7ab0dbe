"""Reproducible parallel random-number streams.

Every Monte Carlo task owns one counter-based stream, keyed by
(master_seed, stream_index); ensemble.run_blocks gives block k of an
ensemble the stream stream_offset + k.  The same key always reproduces
the same sequence, whichever worker consumes it, so results merge in
stream-index order and stay byte-identical across worker counts.

Streams are backed by numpy's Philox counter-based bit generator with
the 128-bit key set to master_seed << 64 | stream_index.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RngStream", "make_stream"]

_UINT64_MASK = (1 << 64) - 1


@dataclass
class RngStream:
    """A dedicated random stream for one task (a block of trajectories or one).

    The output sequence is a pure function of (master_seed, stream_index,
    draw count).  A stream must be owned by a single consumer at a time;
    it is cheap to construct, so never share one across tasks.
    """

    master_seed: int
    stream_index: int
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 <= self.master_seed <= _UINT64_MASK:
            raise ValueError("master_seed must fit in an unsigned 64-bit int")
        if not 0 <= self.stream_index <= _UINT64_MASK:
            raise ValueError("stream_index must fit in an unsigned 64-bit int")
        key = (self.master_seed << 64) | self.stream_index
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, size=None):
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)


def make_stream(master_seed, index):
    """Derive the stream for task `index` under `master_seed`."""
    return RngStream(int(master_seed), int(index))
