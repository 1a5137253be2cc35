"""End-to-end acceptance run: one check per shipped claim, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines;
any assertion failure marks that line FAIL through pytest itself. All
claims are exact congruences, so every check is pass/fail on an integer
valuation bound with zero tolerance.
"""

import time
from fractions import Fraction

from supercong.cli import emit_report
from supercong.congruence_suite import (
    DEFAULT_SEED,
    Family,
    probe_conjecture_7_1,
    reproduce_table_1,
    run_lemma_batch,
    run_telescope_fuzz,
    run_theorem_batch,
    run_wz_fuzz,
    telescope_cases,
    theorem_grid,
    verify_corollary,
    verify_family,
    wz_fuzz_cases,
)
from supercong.dwork import dash_iter
from supercong.exact_core import INFINITE, residue, valuation
from supercong.hyper_wz import half_pole_index, pochhammer
from supercong.padic_gamma import pochhammer_factorization


def test_acceptance_01_theorem_grid():
    """Central congruence over 13 rows x 2 admissible primes x r in {1, 2}."""
    t0 = time.perf_counter()
    reports = run_theorem_batch(theorem_grid())
    elapsed = time.perf_counter() - t0
    assert len(reports) == 52
    assert all(rep.skipped_reason is None for rep in reports)
    assert all(rep.passed is True for rep in reports)
    assert all(rep.required_exponent == dict(rep.params)["r"] + 3 for rep in reports)
    assert elapsed < 120.0
    print(f"ACCEPTANCE 01 theorem-grid: PASS (52/52 at v >= r+3 in {elapsed:.1f}s)")


def test_acceptance_02_corollary():
    """Quarter-point corollary at exponent r+3, including p=3 by the same congruence."""
    for p, r in [(7, 1), (11, 1), (19, 1), (7, 3)]:
        rep = verify_corollary(p, r)
        assert rep.passed is True, (p, r)
        assert rep.required_exponent == r + 3
    for r in (1, 3):
        rep = verify_corollary(3, r)
        assert rep.passed is True, r
        assert rep.observed_valuation >= r + 3
    print("ACCEPTANCE 02 corollary: PASS (p in {3,7,11,19}, one congruence for every p)")


def test_acceptance_03_power_families():
    """GZ_1_5 at p in {5,13} and C2_1_9 at p in {5,7}, r in {1,2}."""
    for p in (5, 13):
        for r in (1, 2):
            rep = verify_family(Family.GZ_1_5, p, r)
            assert rep.passed is True, (p, r)
            assert rep.required_exponent == r + 3
    for p in (5, 7):
        for r in (1, 2):
            rep = verify_family(Family.C2_1_9, p, r)
            assert rep.passed is True, (p, r)
            assert rep.required_exponent == r + 3
    print("ACCEPTANCE 03 power-of-p families: PASS (GZ_1_5 and C2_1_9, 8 cases)")


def test_acceptance_04_gamma_families():
    """Gamma-valued families at their stated exponents."""
    for p in (13, 17):
        rep = verify_family(Family.VH_1_2, p, 1)
        assert rep.passed is True and rep.required_exponent == 3, p
    for p in (7, 11):
        rep = verify_family(Family.SW_1_3, p, 1)
        assert rep.passed is True and rep.required_exponent == 4, p
    rep = verify_family(Family.PTW_1_4, 7, 1, alpha=Fraction(2, 3))
    assert rep.passed is True and rep.required_exponent == 4
    # integer alpha with residue of -alpha at least (p+1)/2
    rep = verify_family(Family.PTW_1_4, 7, 1, alpha=3)
    assert rep.passed is True and rep.required_exponent == 4
    print("ACCEPTANCE 04 gamma families: PASS (VH_1_2 e3, SW_1_3 e4, PTW_1_4 e4)")


def test_acceptance_05_lemma_suite():
    """All 12 supporting checks on the criterion-1 grid, plus the exact
    Pochhammer oracle for the factorization at working precision 2."""
    grid = theorem_grid()
    reports = run_lemma_batch(grid)
    assert len(reports) == 12 * 52
    assert all(rep.skipped_reason is None for rep in reports)
    assert all(rep.passed is True for rep in reports)

    unit_cases = 0
    for params, p, r in grid:
        if valuation(dash_iter(params.alpha, p, r), p) != 0:
            continue  # non-unit iterate: covered by the ratio form above
        unit_cases += 1
        exponent, unit = pochhammer_factorization(params.alpha, p, r, 2)
        assert exponent == sum(p ** (j - 1) for j in range(1, r + 1))
        exact = pochhammer(params.alpha, p**r)
        assert valuation(exact, p) == exponent
        assert residue(exact / Fraction(p) ** exponent, p, 2) == unit
    assert unit_cases >= 40
    print(f"ACCEPTANCE 05 lemma suite: PASS (624/624; {unit_cases} exact factorizations)")


def test_acceptance_06_wz_residual():
    """Pair identity residual is exactly zero on 200 seeded cases."""
    reports = run_wz_fuzz(200, DEFAULT_SEED)
    assert len(reports) == 200
    assert all(rep.observed_valuation == INFINITE for rep in reports)
    assert all(rep.passed is True for rep in reports)
    for x, k in wz_fuzz_cases(200, DEFAULT_SEED):
        assert 0 < abs(x.numerator) <= 1000 and x.denominator <= 1000
        assert 0 <= k <= 25
        pole = half_pole_index(x)
        assert pole is None or pole > k
    print("ACCEPTANCE 06 pair identity: PASS (200/200 exactly zero)")


def test_acceptance_07_telescoping():
    """Windowed telescoping identity is exact on 50 seeded cases."""
    reports = run_telescope_fuzz(50, DEFAULT_SEED)
    assert len(reports) == 50
    assert all(rep.observed_valuation == INFINITE for rep in reports)
    assert all(rep.passed is True for rep in reports)
    for _, a, n in telescope_cases(50, DEFAULT_SEED):
        assert 1 <= a <= 12 and 1 <= n <= 60
    print("ACCEPTANCE 07 telescoping: PASS (50/50 exactly zero)")


def test_acceptance_08_table_reproduction():
    """Tabulated dash iterates of alpha and 1/2+alpha, 13 rows x r in {1,2}."""
    reports = reproduce_table_1()
    assert len(reports) == 26
    assert all(rep.passed is True for rep in reports)
    print("ACCEPTANCE 08 iterate table: PASS (26/26)")


def test_acceptance_09_conjecture_probe():
    """Informational observation beyond the proven exponent; no verdict."""
    observations = {}
    for p in (13, 17):
        rep = probe_conjecture_7_1(p, 1)
        assert rep.informational is True
        assert rep.passed is None
        assert rep.observed_valuation is not None
        observations[p] = rep.observed_valuation
    print(
        "ACCEPTANCE 09 conjecture probe: PASS "
        f"(observed v={observations[13]} at p=13, v={observations[17]} at p=17, target 6)"
    )


def test_acceptance_10_determinism():
    """Report streams are byte-identical across parallelism degrees."""
    serial = emit_report(run_theorem_batch(theorem_grid(), parallelism=1))
    parallel = emit_report(run_theorem_batch(theorem_grid(), parallelism=8))
    assert serial == parallel
    print("ACCEPTANCE 10 determinism: PASS (parallelism 1 vs 8 byte-identical)")
