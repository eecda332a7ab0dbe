"""Reproducible parallel random-number streams.

Every Monte Carlo task draws from one counter-based stream, keyed by
(master_seed, stream_index); ensemble.run_blocks gives block k of an
ensemble the stream stream_offset + k.  The same key always reproduces
the same sequence, whichever worker consumes it, so results merge in
stream-index order and stay byte-identical across worker counts.

Streams are backed by numpy's Philox counter-based bit generator with
the 128-bit key set to master_seed << 64 | stream_index.  numpy fills an
array in C order, so draws into consecutive arrays (standard_normal's
`out`, a buffer refilled in place) equal one draw of their concatenation.

`signs` gives the double well's fixed-time walks their noise: random
signs, 32 from each 32-bit Philox word, at about a tenth of a normal's
cost.  A draw keeps no spare bits across calls, so draws of whole
words (a multiple of 32 signs, as every full 32-step chunk of the walk
is) also equal one draw of their concatenation.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RngStream", "make_stream"]

_UINT64_MASK = (1 << 64) - 1


def _check_word(name, value):
    if not 0 <= value <= _UINT64_MASK:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")


@dataclass
class RngStream:
    """A dedicated random stream for one task (a block of trajectories or one).

    The output sequence is a pure function of (master_seed, stream_index,
    draw count).  A stream must be owned by a single consumer at a time.
    A new stream costs about 20 us (numpy 2.4, x86-64), most of it
    building the Generator and its Philox; `rekey` turns a used stream
    into a fresh one under another index for about 5 us, so a run of
    blocks (ensemble._run_block_share) builds one stream and re-keys it
    for each block.
    """

    master_seed: int
    stream_index: int
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        _check_word("master_seed", self.master_seed)
        _check_word("stream_index", self.stream_index)
        key = (self.master_seed << 64) | self.stream_index
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def rekey(self, stream_index):
        """Make this stream equal to a fresh make_stream(master_seed, stream_index).

        Philox's whole state is its key and a 256-bit counter, so this is
        a reset: counter 0, key (stream_index, master_seed) as two 64-bit
        words, an empty buffer and no spare 32-bit half, exactly the
        state a new Philox(key=...) starts in.
        """
        stream_index = int(stream_index)
        _check_word("stream_index", stream_index)
        self.stream_index = stream_index
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64),
                      "key": np.array([stream_index, self.master_seed], dtype=np.uint64)},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def standard_normal(self, size=None, out=None):
        """Normals of shape `size`, or written into `out` (C-contiguous float64 of that shape)."""
        return self._gen.standard_normal(size, out=out)

    def signs(self, size, out=None):
        """Independent +-1.0 of equal odds, of shape `size`, or written into `out` (float64).

        One bit each, from integers(0, 2, dtype=bool), which unpacks 32
        from each 32-bit word and drops a draw's unused bits.
        """
        bits = self._gen.integers(0, 2, size, dtype=bool)
        if out is None:
            out = np.empty(bits.shape)
        np.multiply(bits, 2.0, out=out)
        out -= 1.0
        return out

    def uniform(self, size=None):
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)


def make_stream(master_seed, index):
    """Derive the stream for task `index` under `master_seed`."""
    return RngStream(int(master_seed), int(index))
