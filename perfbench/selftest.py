"""Self-tests of the benchmark: oracles, span arithmetic, repeatable counts.

Run from the root of a checkout (about two minutes, most of it the
repeat-count test):

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("barrier, expected", [(2.0, 2.303), (3.0, 4.233)])
def test_quadrature_mfpt(barrier, expected):
    assert oracles.quadrature_mfpt(barrier) == pytest.approx(expected, abs=5e-4)


def test_quadrature_mfpt_is_converged():
    coarse = oracles.quadrature_mfpt(3.0, n=50_001)
    assert oracles.quadrature_mfpt(3.0) == pytest.approx(coarse, rel=1e-6)


def test_read_error_at_one_tau():
    from scipy.stats import norm
    from thermobit.capacitor import partial_erase_error_prob
    from thermobit.ou import CellParams

    mu = math.exp(-1.0)
    expected = norm.cdf(-mu / math.sqrt(1.0 - mu * mu))
    assert oracles.ou_read_error(1.0, 1.0) == pytest.approx(expected, rel=1e-12)
    assert oracles.ou_read_error(1.0, 1.0) == pytest.approx(
        partial_erase_error_prob(1.0, 1.0, CellParams.reduced()), rel=1e-12)
    assert oracles.ou_read_error(1.0, 0.0) == 0.0
    assert oracles.ou_read_error(1.0, 50.0) == pytest.approx(0.5, abs=1e-15)


def test_heat_oracles():
    assert oracles.erase_heat(0.5, 50.0) == pytest.approx((0.25 - 1.0) / 2)
    assert oracles.erase_heat(1.0, 0.3) == 0.0
    assert oracles.erase_heat(2.0, 0.0) == 0.0
    assert oracles.write_heat(0.5) == pytest.approx(0.375)


@pytest.mark.parametrize("k, n, p", [(0, 50, 0.01), (7, 500, 0.02), (260, 500, 0.5),
                                     (999, 1000, 0.99)])
def test_binomial_tails(k, n, p):
    from scipy.stats import binom

    below, above = oracles.binom_tails(k, n, p)
    assert below == pytest.approx(binom.cdf(k, n, p), rel=1e-9)
    assert above == pytest.approx(binom.sf(k - 1, n, p), rel=1e-9)


def test_binomial_consistent_rejects_far_counts():
    assert oracles.binomial_consistent(250, 500, 0.49, 0.51)
    assert not oracles.binomial_consistent(320, 500, 0.49, 0.51)
    assert not oracles.binomial_consistent(1, 500, 0.0, 0.0)


def test_self_time_of_synthetic_tree():
    # 0 root [0, 10]: children 1 [1, 4] and 2 [3, 6] overlap, 3 [8, 12]
    # runs past the root's end; 4 [2, 3] is a grandchild under 1.
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = layers.self_times(start, end, parent)
    # Root covered by [1, 6] and [8, 10]: 7 of its 10.
    assert list(got) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_self_time_of_sequential_children():
    got = layers.self_times([0.0, 0.5, 2.0], [4.0, 1.5, 3.0], [-1, 0, 0])
    assert list(got) == pytest.approx([2.0, 1.0, 1.0])


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {"traj_per_s", "setup_s", "peak_rss_mb"}


def _run(workload, seed, trace, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        proc = _run(workload, 7, 1)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    for result in results:
        assert result["correct"] and result["failed"] == 0
    counted = {k for k, unit in layers.PER_LAYER_UNITS.items() if unit in ("count", "bytes")}
    counts = [{k: r["metrics"][k]["value"] for k in counted} for r in results]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("cap_short_pool", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
