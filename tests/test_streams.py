import math

import numpy as np
import pytest

from thermobit.doublewell import _CHUNK
from thermobit.streams import make_stream


def test_same_key_reproduces_sequence():
    a = make_stream(42, 0).standard_normal(1000)
    b = make_stream(42, 0).standard_normal(1000)
    np.testing.assert_array_equal(a, b)


def test_different_streams_are_uncorrelated():
    a = make_stream(42, 0).standard_normal(10_000)
    b = make_stream(42, 1).standard_normal(10_000)
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.05
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = make_stream(1, 0).standard_normal(100)
    b = make_stream(2, 0).standard_normal(100)
    assert not np.array_equal(a, b)


def test_output_independent_of_consumption_pattern():
    # Drawing in chunks must give the same sequence as one big draw.
    one_shot = make_stream(42, 7).standard_normal(300)
    chunked = make_stream(42, 7)
    parts = [chunked.standard_normal(100) for _ in range(3)]
    np.testing.assert_array_equal(one_shot, np.concatenate(parts))


@pytest.mark.parametrize("rows", [1, 5, 2048])
@pytest.mark.parametrize("kind", ["standard_normal", "signs"])
def test_draws_into_a_reused_buffer_equal_one_draw(kind, rows):
    # The double well's walk refills one buffer, _CHUNK steps at a time and
    # the last chunk through a shorter view of it, and must draw what one
    # (steps, rows) draw would.  A sign draw drops its last word's unused
    # bits, so every full chunk must take whole 32-bit words.
    steps = 2 * _CHUNK + 6
    assert _CHUNK * rows % 32 == 0
    one_shot = getattr(make_stream(42, 8), kind)((steps, rows))
    stream, buf, parts = make_stream(42, 8), np.empty(_CHUNK * rows), []
    for start in range(0, steps, _CHUNK):
        chunk = buf[:min(_CHUNK, steps - start) * rows].reshape(-1, rows)
        assert getattr(stream, kind)(chunk.shape, out=chunk) is chunk
        parts.append(chunk.copy())
    np.testing.assert_array_equal(one_shot, np.concatenate(parts))


def test_signs_are_fair_unit_signs():
    n = 10 ** 6
    z = make_stream(42, 9).signs(n)
    assert z.dtype == np.float64 and z.shape == (n,)
    assert np.all(np.abs(z) == 1.0)
    # Mean 0 and variance 1 - mean^2, each within 5 SE (1/sqrt(n) for the mean).
    assert abs(z.mean()) < 5.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 25.0 / n


@pytest.mark.parametrize("seed,index", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64)])
def test_key_range_validated(seed, index):
    with pytest.raises(ValueError):
        make_stream(seed, index)


def draw(kind, stream):
    if kind == "normal":
        return stream.standard_normal(6).tolist()
    if kind == "uniform":
        return stream.uniform(6).tolist()
    if kind == "signs":
        return stream.signs(67).tolist()
    return stream.integers(0, 2, size=67).tolist()


# What the stream drew before its re-key: nothing, one 64-bit word of the
# four-word Philox buffer, or an odd count of 32-bit halves (a spare half kept).
USES = {
    "fresh": lambda stream: None,
    "one normal": lambda stream: stream.standard_normal(),
    "three bits": lambda stream: stream.integers(0, 2, size=3),
    "mixed": lambda stream: (stream.uniform(5), stream.integers(0, 2, size=1)),
}


@pytest.mark.parametrize("kind", ["normal", "uniform", "integers", "signs"])
@pytest.mark.parametrize("use", list(USES))
@pytest.mark.parametrize("seed, index", [(0, 0), (2**64 - 1, 2**64 - 1), (5, 2**64 - 1)])
def test_rekeyed_stream_draws_what_a_fresh_stream_draws(seed, index, use, kind):
    stream = make_stream(seed, 1)
    USES[use](stream)
    stream.rekey(index)
    assert (stream.master_seed, stream.stream_index) == (seed, index)
    assert draw(kind, stream) == draw(kind, make_stream(seed, index))


@pytest.mark.parametrize("index", [-1, 2**64])
def test_rekey_range_validated(index):
    stream = make_stream(0, 3)
    with pytest.raises(ValueError, match="stream_index"):
        stream.rekey(index)
