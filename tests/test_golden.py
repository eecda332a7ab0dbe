"""Golden outputs: the CSV bytes of fixed runs, and the first draws of two streams.

A change that is meant to leave every draw and every CSV byte as it was
(a faster kernel, a new stream loop, another block split) must pass this
module unchanged.  The table was taken with numpy 2.4 on x86-64; another
numpy release or CPU may round exp, log or sqrt differently in the last
bit, which would show here first.
"""

import hashlib

import numpy as np
import pytest

from thermobit import cli
from thermobit.streams import make_stream

# (CSV base name, argv, sha256 of the CSV) at --master-seed 7.
GOLDEN = [
    ("capacitor_write", ["capacitor", "write", "--n", "700"],
     "0719d69aa5f6cbf59daf0833b80390b4878e72f2e559675f0446c5001082e1cb"),
    ("capacitor_erase", ["capacitor", "erase", "--duration-tau", "0.1", "--n", "700"],
     "bd38111af96cbe4d88ed9ad0a8862aabf4f93c22a3eab41b50da591279bf918d"),
    ("capacitor_mi_curve", ["capacitor", "mi-curve", "--n", "700"],
     "594859e1ff417fee28e4ee8d477cae8d5067f7042be0bf304e533153df0facaf"),
    ("capacitor_mi_curve", ["capacitor", "mi-curve", "--n", "700",
                            "--durations-tau", "0,0.02,3"],
     "fb5bc5f4b9e701bd154d34215affe3ac3e568e9c89587cd248f9c27b7b7b7f92"),
    ("doublewell_relax", ["doublewell", "relax", "--n", "4097"],
     "896fca7225ce69b47e87e1380246b5d0d0769a0dd1755c22e05d419ff0ba26b6"),
    ("doublewell_heated", ["doublewell", "heated", "--t-total", "0.5", "--n", "4097"],
     "e5a55ce0aae3d60f2d05666093b65b39544e0b4bd2301ea82b7e91e786dce103"),
    ("doublewell_escape", ["doublewell", "escape", "--n", "4097"],
     "c38f1a664db6bc27e4d748befd90e866e2c7d81084aff9fe1b6a41a211ac7261"),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("base, argv, digest", GOLDEN, ids=[" ".join(g[1]) for g in GOLDEN])
def test_csv_bytes(tmp_path, capsys, base, argv, digest, workers):
    assert cli.main(argv + ["--master-seed", "7", "--workers", str(workers),
                            "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / f"{base}.csv").read_bytes()).hexdigest() == digest


# The first draws of a fresh stream, one fresh stream per kind of draw.
CANARY = {
    (7, 0): (
        [0.8092421975343789, 0.26472064784364424, 0.45459694192449634, 2.2796848461357904],
        [1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1],
        [0.5844961951513712, 0.8909583303714613, 0.31891907377157325, 0.7174138773495484],
    ),
    (2**64 - 1, 2**64 - 1): (
        [0.6313842391058808, -1.1589078121430747, -1.4343318739191726, 1.0477275891445663],
        [0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1],
        [0.4268615279451663, 0.5715123063997486, 0.9912623766802293, 0.705613252119883],
    ),
}


@pytest.mark.parametrize("key", list(CANARY))
def test_stream_canary(key):
    normals, bits, uniforms = CANARY[key]
    assert make_stream(*key).standard_normal(4).tolist() == normals
    got_bits = make_stream(*key).integers(0, 2, size=16)
    assert got_bits.dtype == np.int64 and got_bits.tolist() == bits
    assert make_stream(*key).uniform(4).tolist() == uniforms
