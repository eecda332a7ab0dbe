"""Acceptance gate: one test per verification criterion.

Each criterion prints a single PASS/FAIL line with its measured detail
and asserts the pinned tolerance coded in the verification module.  Run
with `pytest -v tests/test_acceptance.py` (or `thermobit verify` for
the same checks without pytest).  The last tests pin the quadrature
oracle that criterion 6 compares against.
"""

import math
import os

import pytest

from thermobit import oracles, verification

MASTER_SEED = 12345

# Each criterion's detail at MASTER_SEED.  A change that keeps the numbers
# (a refactor, a change of units) must print these strings unchanged.
DETAILS = {
    "1 equipartition": "relative variance errors 0.0032, 0.0026 (tol 0.015)",
    "2 erase dissipation": "u0=0.5: mean=-0.3721 theory=-0.3750 (1.33 SE); "
                           "u0=1.0: mean=-0.0053 theory=+0.0000 (2.33 SE); "
                           "u0=2.0: mean=+1.4984 theory=+1.5000 (0.72 SE)",
    "3 write positivity": "mean=+0.3747 theory=+0.3750 (0.14 SE); "
                          "min control cost 0.6931 kT (floor 0.6931)",
    "4 incomplete erasure info": "p_e CI [0.3413, 0.3472] vs theory 0.3462 (in); "
                                 "info dev 0.0018 bits (tol 0.01); "
                                 "info(20 tau) = 1.18e-05 bits (tol 1e-3)",
    "5 passive double-well erasure": "terminal p1 = 0.5084 (tol 0.5 +- 0.02); "
                                     "max |mean_U(t) - mean_U(0)| = 0.0341 kT (tol 0.05)",
    "6 Kramers scaling": "T(3kT)=4.651, T(2kT)=2.577, ratio 1.8045 +- 0.0449 vs quadrature "
                         "1.8377 (-0.74 SE, tol 3); e = 2.718 for reference",
    "7 ice-cube violation": "Q = 7.385e+23 kT (oracle 7.385e+23, rel err 0.00e+00); "
                            "order 1e23.9; violation factor 1.07e+24",
    "8 exact formulas": "worst relative error 0.00e+00 over 7 identities",
    "9 determinism": "all subcommands byte-identical for workers 1/4/8",
    "10 ledger identity": "max |Q_env + dE_cap| = 0.000e+00 over 100000 write/erase pairs",
}


@pytest.mark.parametrize("name", [name for name, _fn in verification.CRITERIA])
def test_criterion(name):
    result = verification.run_one(name, master_seed=MASTER_SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"{result.name}: {status} [{result.elapsed:.1f}s] {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.detail == DETAILS[name]


@pytest.mark.parametrize("barrier, expected", [(2.0, 2.30327), (3.0, 4.23278)])
def test_quadrature_mfpt_matches_nested_quad(barrier, expected):
    # Reference values from an independent nested scipy.integrate.quad.
    assert oracles.escape_mfpt(barrier) == pytest.approx(expected, rel=1e-5)


def test_quadrature_mfpt_high_barrier_kramers_limit():
    # The first passage to the barrier top is half the well-to-well Kramers
    # time 2*pi*gamma/sqrt(U''_min*|U''_max|) * e^(E/kT), with U'' = 8E and
    # -4E in reduced units; 2*T/T_kramers is 1.043 at E = 10 and 1.020 at E = 20.
    barrier = 20.0
    kramers = 2.0 * math.pi / math.sqrt(8.0 * barrier * 4.0 * barrier) * math.exp(barrier)
    ratio = 2.0 * oracles.escape_mfpt(barrier) / kramers
    assert ratio == pytest.approx(1.0, abs=0.03)


def _fake_main(calls, fail):
    """Stand in for cli.main: record each run, write one CSV of its argv sans --workers."""
    def main(argv):
        calls.append(argv)
        if argv[:2] == fail:
            return 3
        out = argv[argv.index("--output-dir") + 1]
        os.makedirs(out)
        cut = argv.index("--workers") if "--workers" in argv else len(argv)
        with open(os.path.join(out, "run.csv"), "w") as fh:
            fh.write(" ".join(argv[:argv.index("--output-dir")] + argv[cut + 2:]))
        return 0
    return main


def test_determinism_forks_one_pool_per_worker_count(monkeypatch):
    calls = []
    monkeypatch.setattr(verification.cli, "main", _fake_main(calls, fail=None))
    assert verification.check_determinism(MASTER_SEED) == (
        True, "all subcommands byte-identical for workers 1/4/8")
    counts = [int(argv[argv.index("--workers") + 1]) for argv in calls if "--workers" in argv]
    # One switch per count: the live pool is replaced twice, not twice per subcommand.
    assert counts == sorted(counts) and sorted(set(counts)) == [1, 4, 8]
    assert len(calls) == 3 * len(verification._DETERMINISM_RUNS)


def test_determinism_reports_a_failed_run_once(monkeypatch):
    calls = []
    monkeypatch.setattr(verification.cli, "main", _fake_main(calls, fail=["capacitor", "erase"]))
    ok, detail = verification.check_determinism(MASTER_SEED)
    assert not ok
    assert detail == "capacitor erase --n 300 --duration-tau 5: exit 3"
    assert sum(argv[:2] == ["capacitor", "erase"] for argv in calls) == 1
