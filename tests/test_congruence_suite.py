import concurrent.futures
import dataclasses
import random
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercong import congruence_suite
from supercong.congruence_suite import (
    DEFAULT_SEED,
    TERM_GUARD,
    THEOREM_ROWS,
    Family,
    LemmaCheck,
    ResourceGuardError,
    VerificationReport,
    admissible_primes,
    canonical_sort,
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
    verify_lemma,
    verify_theorem,
    wz_fuzz_cases,
)
from supercong.dwork import DashParams, dash_iter, dash_iterates
from supercong.exact_core import INFINITE, PrimeRequiredError, is_prime, residue, valuation
from supercong.hyper_wz import (
    PochhammerPoleError,
    half_pole_index,
    harmonic,
    sum_F,
    sum_G_boundary,
    term_G,
    wz_residual,
)
from supercong.padic_gamma import PrecisionCapError

HALF = Fraction(1, 2)


def test_theorem_reference_values():
    rep = verify_theorem(DashParams(1, 4, 3), 7, 1)
    assert rep.claim == "theorem"
    assert rep.params == (("c", 1), ("d", 4), ("s", 3), ("p", 7), ("r", 1))
    assert rep.required_exponent == 4
    assert rep.observed_valuation == 4
    assert rep.passed is True
    assert rep.skipped_reason is None
    assert rep.informational is False

    rep = verify_theorem(DashParams(1, 2, 1), 5, 1)
    assert rep.passed is True
    assert rep.observed_valuation == 4


def test_theorem_skip_reasons():
    rep = verify_theorem(DashParams(1, 4, 3), 13, 1)
    assert rep.skipped_reason == "p=13 is not congruent to 3 mod 4"
    assert rep.passed is None
    assert rep.observed_valuation is None
    assert rep.required_exponent is None

    # 1/2 + 3/4 = 5/4 dies mod 5, so p=5 falls outside the hypotheses
    rep = verify_theorem(DashParams(3, 4, 1), 5, 1)
    assert rep.skipped_reason == "1/2+alpha^(*1) = 0 mod p"

    rep = verify_theorem(DashParams(1, 4, 3), 3, 1)
    assert rep.skipped_reason == "p=3 is below 5"


def test_admissible_primes_reference_map():
    expected = {
        (DashParams(1, 2, 1), 1): [5, 7],
        (DashParams(1, 3, 1), 1): [7, 13],
        (DashParams(2, 3, 1), 1): [13, 19],
        (DashParams(1, 6, 1), 1): [7, 13],
        (DashParams(5, 6, 1), 1): [7, 13],
        (DashParams(1, 3, 2), 1): [5, 11],
        (DashParams(1, 3, 2), 2): [11, 17],
        (DashParams(2, 3, 2), 1): [11, 17],
        (DashParams(2, 3, 2), 2): [5, 11],
        (DashParams(1, 6, 5), 1): [5, 11],
        (DashParams(5, 6, 5), 1): [5, 11],
        (DashParams(1, 4, 1), 1): [5, 13],
        (DashParams(3, 4, 1), 1): [13, 17],
        (DashParams(1, 4, 3), 1): [7, 11],
        (DashParams(3, 4, 3), 1): [7, 11],
    }
    for (params, r), primes in expected.items():
        assert admissible_primes(params, r) == primes


def test_admissible_primes_options():
    assert admissible_primes(DashParams(1, 2, 1), 1, count=3) == [5, 7, 11]
    assert admissible_primes(DashParams(1, 2, 1), 1, p_min=11) == [11, 13]
    with pytest.raises(ValueError):
        admissible_primes(DashParams(1, 2, 1), 1, count=3, p_max=8)
    with pytest.raises(ValueError, match="count must be positive"):
        admissible_primes(DashParams(1, 2, 1), 1, count=-1)
    with pytest.raises(ValueError, match="r must be positive"):
        admissible_primes(DashParams(1, 4, 3), 0)


def test_theorem_grid_shape():
    tasks = theorem_grid()
    assert len(tasks) == 52
    assert len(set(tasks)) == 52
    assert all(params in THEOREM_ROWS for params, _, _ in tasks)
    assert (DashParams(1, 4, 3), 7, 1) in tasks
    assert (DashParams(3, 4, 1), 13, 2) in tasks
    assert all(r in (1, 2) for _, _, r in tasks)


def test_theorem_grid_rejects_bad_r_values_and_prime_range():
    # each is refused before any task is built, not when the task runs
    with pytest.raises(ValueError, match="r values must be positive"):
        theorem_grid(r_values=(0,), count=1)
    with pytest.raises(ValueError, match="r values must be positive"):
        theorem_grid(r_values=(1, -2), count=1)
    with pytest.raises(ValueError, match="r values must be distinct"):
        theorem_grid(r_values=(1, 1), count=1)
    with pytest.raises(ValueError, match="empty prime range"):
        theorem_grid(count=1, p_min=100, p_max=50)
    assert len(theorem_grid(r_values=(2, 1), count=1)) == 26


def test_corollary_reference_values():
    rep = verify_corollary(7, 1)
    assert rep.passed is True
    assert rep.required_exponent == 4
    assert rep.observed_valuation == 4

    assert verify_corollary(7, 3).observed_valuation == 6

    # p=3 is checked by the stated congruence like any p = 3 mod 4, observing r+5
    rep = verify_corollary(3, 1)
    assert rep.passed is True
    assert rep.observed_valuation == 6
    assert verify_corollary(3, 3).observed_valuation == 8
    assert verify_corollary(3, 5).observed_valuation == 10
    assert verify_corollary(3, 7).observed_valuation == 12
    # 19 683 terms, just under the term guard: under a second with the binary-splitting kernel
    assert verify_corollary(3, 9, force=True).observed_valuation == 14


def test_probe_reference_value_at_r_3():
    # p^r = 68 921 is past the term guard; the GZ_1_5 sum has 34 461 terms and takes
    # about a second when each merge of the series kernel cancels a common factor
    assert probe_conjecture_7_1(41, 3, force=True).observed_valuation == 8


def test_corollary_skip_reasons():
    assert verify_corollary(13, 1).skipped_reason == "p=13 is not 3 mod 4"
    assert verify_corollary(7, 2).skipped_reason == "r=2 is even"


def test_family_reference_values():
    rep = verify_family(Family.VH_1_2, 13, 1)
    assert rep.claim == "family.VH_1_2"
    assert rep.passed is True
    assert rep.required_exponent == 3
    assert rep.observed_valuation == 3

    rep = verify_family(Family.SW_1_3, 7, 1)
    assert rep.passed is True
    assert rep.observed_valuation == 4

    rep = verify_family(Family.PTW_1_4, 7, 1, alpha=Fraction(2, 3))
    assert rep.passed is True
    assert rep.observed_valuation == 4
    assert ("alpha", "2/3") in rep.params

    # integer alpha is fine as long as <-alpha>_p is large enough
    rep = verify_family(Family.PTW_1_4, 7, 1, alpha=3)
    assert rep.passed is True
    assert rep.observed_valuation == 4

    rep = verify_family(Family.GZ_1_5, 5, 2)
    assert rep.passed is True
    assert rep.required_exponent == 5
    assert rep.observed_valuation == 6

    rep = verify_family(Family.C2_1_9, 5, 1)
    assert rep.passed is True
    assert rep.observed_valuation == 4


def test_family_accepts_string_names():
    assert verify_family("C2_1_9", 5, 1).passed is True
    with pytest.raises(ValueError):
        verify_family("no-such-family", 5, 1)


def test_family_skip_reasons():
    assert verify_family(Family.VH_1_2, 7, 1).skipped_reason == "p=7 is not 1 mod 4"
    assert verify_family(Family.VH_1_2, 13, 2).skipped_reason == "r=2 is not 1"
    assert verify_family(Family.SW_1_3, 13, 1).skipped_reason == "p=13 is not 3 mod 4"
    assert verify_family(Family.GZ_1_5, 7, 1).skipped_reason == "p=7 is not 1 mod 4"
    assert verify_family(Family.C2_1_9, 3, 1).skipped_reason == "p=3 is below 5"
    rep = verify_family(Family.PTW_1_4, 11, 1, alpha=7)
    assert rep.skipped_reason == "residue of -alpha is 4, below (p+1)/2"
    rep = verify_family(Family.PTW_1_4, 7, 1, alpha=Fraction(1, 7))
    assert rep.skipped_reason == "alpha is not a p-adic integer"
    rep = verify_family(Family.PTW_1_4, 2, 1, alpha=Fraction(2, 3))
    assert rep.skipped_reason == "p=2 is even"


def test_family_alpha_misuse():
    with pytest.raises(ValueError):
        verify_family(Family.PTW_1_4, 7, 1)
    with pytest.raises(ValueError):
        verify_family(Family.GZ_1_5, 5, 1, alpha=Fraction(1, 4))


def test_all_lemmas_pass_at_reference_tuple():
    for check in LemmaCheck:
        rep = verify_lemma(check, DashParams(1, 4, 3), 7, 1)
        assert rep.claim == f"lemma.{check.value}"
        assert rep.skipped_reason is None
        assert rep.passed is True


def test_lemma_string_names():
    rep = verify_lemma("pochhammer-unit", DashParams(1, 4, 3), 7, 1)
    assert rep.passed is True
    with pytest.raises(ValueError):
        verify_lemma("no-such-check", DashParams(1, 4, 3), 7, 1)
    assert len(LemmaCheck) == 12


def test_dash_max_multiple_degenerate_case():
    """The claimed maximum can be 0 when no multiple of p falls in range."""
    rep = verify_lemma(LemmaCheck.DASH_MAX_MULTIPLE, DashParams(1, 6, 5), 5, 2)
    assert rep.passed is True
    assert rep.observed_valuation == INFINITE
    # r = 1 leaves nothing to quantify over
    rep = verify_lemma(LemmaCheck.DASH_MAX_MULTIPLE, DashParams(1, 4, 3), 7, 1)
    assert rep.observed_valuation == INFINITE


def max_multiple_oracle(iterates_of, params, p, r):
    # the dash-max-multiple check as it was before it stepped alpha^(*r) p^(r - j) down by
    # one division by p per j, with its iterates taken from iterates_of; kept as its oracle
    iterates = iterates_of(params.alpha, p, r)
    asr = iterates[r]
    as_int = congruence_suite._as_int

    def holds(j: int) -> bool:
        bound = as_int(asr * p ** (r - j) - iterates[j], "candidate range end")
        claimed = as_int(asr * p ** (r - j) - iterates[j + 1] * p, "claimed maximum")
        # claimed = 0 is the degenerate case: no multiple of p in [1, bound]
        return claimed == p * (bound // p)

    return 1, congruence_suite._exact(all(holds(j) for j in range(r - 1)))


def test_dash_max_multiple_matches_its_oracle(monkeypatch):
    # the iterates are true ones, or one of them (often the first or the r-th) is moved by
    # 1 or 1/2, so that the check also fails and raises; the observation, or the error's
    # type and message, must agree
    rng = random.Random(2027)
    primes = [p for p in range(5, 200) if is_prime(p)]

    def observe(check, *args):
        try:
            return check(*args)
        except ValueError as exc:
            return type(exc), str(exc)

    seen = Counter()
    for _ in range(240):
        params, p, r = rng.choice(THEOREM_ROWS), rng.choice(primes), rng.randint(1, 300)
        at, shift = rng.choice((0, r, rng.randint(0, r))), rng.choice((0, 0, 1, Fraction(1, 2)))

        def iterates_of(x, p, n, at=at, shift=shift):
            iterates = dash_iterates(x, p, n)
            iterates[at] += shift
            return iterates

        monkeypatch.setattr(congruence_suite, "dash_iterates", iterates_of)
        observed = observe(congruence_suite._check_dash_max_multiple, params, p, r)
        assert observed == observe(max_multiple_oracle, iterates_of, params, p, r), (params, p, r)
        # a report's observation, or what the first _as_int refused
        seen[observed if observed[0] == 1 else observed[1].split(" is ")[0]] += 1
    assert seen[(1, INFINITE)] > 100 and seen[(1, 0)] > 5, seen
    assert seen["candidate range end"] > 5 and seen["claimed maximum"] > 5, seen
    assert len(seen) == 4, seen


def test_pochhammer_unit_nonunit_iterate_path():
    # the first two tuples have alpha^(*r) = 5/6 at p=5, a non-unit, so the
    # ratio form rather than the unit factorization is exercised; the third
    # is a unit tuple at r=2 for contrast
    for params, p, r in [
        (DashParams(1, 6, 5), 5, 1),
        (DashParams(5, 6, 5), 5, 2),
        (DashParams(2, 3, 1), 19, 2),
    ]:
        rep = verify_lemma(LemmaCheck.POCHHAMMER_UNIT, params, p, r)
        assert rep.skipped_reason is None
        assert rep.passed is True


def test_pochhammer_unit_beyond_p_to_the_r_plus_m():
    # (1/4)_{37^2} needs Gamma_p only mod 37^2, although 37^(2+2) exceeds the cap
    rep = verify_lemma(LemmaCheck.POCHHAMMER_UNIT, DashParams(1, 4, 1), 37, 2)
    assert rep.passed is True
    assert rep.observed_valuation == rep.required_exponent == 40


def test_lemma_skip_reasons():
    rep = verify_lemma(LemmaCheck.DASH_CLOSED_FORM, DashParams(1, 4, 3), 13, 1)
    assert rep.skipped_reason == "p=13 is not congruent to 3 mod 4"
    rep = verify_lemma(LemmaCheck.DASH_CLOSED_FORM, DashParams(1, 3, 2), 2, 1)
    assert rep.skipped_reason == "p=2 is even"
    rep = verify_lemma(LemmaCheck.HARMONIC_SQUARE_SCALED, DashParams(1, 4, 3), 3, 1)
    assert rep.skipped_reason == "p=3 is below 5"
    rep = verify_lemma(LemmaCheck.POCHHAMMER_UNIT, DashParams(1, 3, 1), 3, 1)
    assert rep.skipped_reason == "alpha is not a p-adic integer"
    rep = verify_lemma(LemmaCheck.POCHHAMMER_UNIT, DashParams(1, 3, 1), 2, 1)
    assert rep.skipped_reason == "p=2 is even"
    # theorem-shaped hypotheses carry over to the checks that use them
    rep = verify_lemma(LemmaCheck.SUM_F_DASH_POINT, DashParams(3, 4, 1), 5, 1)
    assert rep.skipped_reason == "1/2+alpha^(*1) = 0 mod p"


def test_probe_reference_values():
    rep = probe_conjecture_7_1(13, 1)
    assert rep.informational is True
    assert rep.passed is None
    assert rep.required_exponent == 6
    assert rep.observed_valuation == 6

    assert probe_conjecture_7_1(17, 1).observed_valuation == 6

    assert probe_conjecture_7_1(5, 1).skipped_reason == "p=5 is not above 5"
    assert probe_conjecture_7_1(7, 1).skipped_reason == "p=7 is not 1 mod 4"


def test_table_reproduction():
    reports = reproduce_table_1()
    assert len(reports) == 26
    assert all(rep.claim == "table1" for rep in reports)
    assert all(rep.passed for rep in reports)
    assert all(rep.observed_valuation == INFINITE for rep in reports)


def test_claim_validation():
    # every claim needs a prime p and a positive level before anything is computed
    params = DashParams(1, 4, 3)
    with pytest.raises(PrimeRequiredError):
        verify_family(Family.C2_1_9, 6, 1)
    with pytest.raises(ValueError):
        verify_family(Family.C2_1_9, 5, 0)
    with pytest.raises(PrimeRequiredError):
        verify_lemma(LemmaCheck.HARMONIC_PRIME, params, 6, 1)
    with pytest.raises(ValueError):
        verify_lemma(LemmaCheck.HARMONIC_PRIME, params, 7, 0)


def test_claim_observed_and_holds():
    # the observation is v_p(lhs - rhs), and a report's verdict is derived from it
    observed = valuation(Fraction(77, 3) - Fraction(2, 3), 5)
    assert observed == 2
    assert VerificationReport("t", (), 2, observed).passed is True
    assert VerificationReport("t", (), 3, observed).passed is False
    equal = valuation(Fraction(1, 4) - Fraction(1, 4), 7)
    assert equal == INFINITE
    assert VerificationReport("t", (), 9, equal).passed is True


@given(
    lhs=st.fractions(min_value=-1000, max_value=1000, max_denominator=100),
    rhs=st.fractions(min_value=-1000, max_value=1000, max_denominator=100),
    p=st.sampled_from([3, 5, 7]),
)
def test_claim_monotone_in_exponent(lhs, rhs, p):
    observed = valuation(lhs - rhs, p)
    verdicts = [VerificationReport("t", (), m, observed).passed for m in range(1, 6)]
    assert verdicts == [observed >= m for m in range(1, 6)]
    # once a claim fails at some exponent it fails at every higher one
    assert verdicts == sorted(verdicts, reverse=True)


def test_report_validation():
    params = (("p", 7),)
    # a skipped report carries no observation
    with pytest.raises(ValueError):
        VerificationReport("t", params, 4, 4, "some reason")
    # verified and informational reports need both numbers
    with pytest.raises(ValueError):
        VerificationReport("t", params, 4, None)
    with pytest.raises(ValueError):
        VerificationReport("t", params, None, 4, informational=True)
    # the verdict is derived from the numbers, not stored
    assert "passed" not in {field.name for field in dataclasses.fields(VerificationReport)}
    rep = VerificationReport("t", params, 4, 4)
    assert (rep.outcome, rep.passed) == ("PASS", True)
    rep = dataclasses.replace(rep, observed_valuation=3)
    assert (rep.outcome, rep.passed) == ("FAIL", False)
    rep = VerificationReport("t", params, 4, 3, informational=True)
    assert (rep.outcome, rep.passed) == ("INFO", None)
    rep = VerificationReport("t", params, skipped_reason="some reason")
    assert (rep.outcome, rep.passed) == ("SKIP", None)
    # an error report carries its message and nothing else
    with pytest.raises(ValueError):
        VerificationReport("t", params, 4, 4, error="ResourceGuardError: too big")
    with pytest.raises(ValueError):
        VerificationReport("t", params, skipped_reason="some reason", error="too big")
    rep = VerificationReport("t", params, error="too big")
    assert (rep.outcome, rep.passed) == ("ERROR", None)


def test_canonical_sort_is_by_claim_then_params():
    reps = [
        VerificationReport("b", (("p", 7),), 1, 1),
        VerificationReport("a", (("p", 11),), 1, 1),
        VerificationReport("a", (("p", 7),), 1, 1),
    ]
    ordered = canonical_sort(reps)
    assert [rep.claim for rep in ordered] == ["a", "a", "b"]
    assert ordered[0].params == (("p", 7),)
    assert canonical_sort(ordered) == ordered


def test_batch_results_independent_of_parallelism():
    tasks = [
        (DashParams(1, 4, 3), 7, 1),
        (DashParams(1, 2, 1), 5, 1),
        (DashParams(1, 4, 3), 13, 1),
    ]
    serial = run_theorem_batch(tasks, parallelism=1)
    threaded = run_theorem_batch(tasks, parallelism=2)

    def strip(rep):
        return (rep.claim, rep.params, rep.required_exponent, rep.observed_valuation, rep.passed)

    assert [strip(rep) for rep in serial] == [strip(rep) for rep in threaded]
    assert sum(rep.skipped_reason is not None for rep in serial) == 1


def test_batches_reject_parallelism_below_one():
    tasks = [(DashParams(1, 4, 3), 7, 1)]
    for run_batch, parallelism in ((run_theorem_batch, 0), (run_lemma_batch, -5)):
        with pytest.raises(ValueError, match="parallelism must be at least 1"):
            run_batch(tasks, parallelism=parallelism)


@pytest.mark.parametrize("count, parallelism, pools", [(3, 64, [3]), (1, 8, [])])
def test_pool_never_starts_more_workers_than_tasks(monkeypatch, count, parallelism, pools):
    # a fork pool starts all its workers at once; this fake records the size and starts none
    built = []

    class RecordingPool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    # _run_tasks imports the pool where it forks one, so patch the name that import reads
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    tasks = [(DashParams(1, 4, 3), 7, 1), (DashParams(1, 2, 1), 5, 1), (DashParams(1, 4, 3), 11, 1)]
    reports = run_theorem_batch(tasks[:count], parallelism)
    assert [rep.outcome for rep in reports] == ["PASS"] * count
    assert built == pools


def test_lemma_batch_over_single_tuple():
    reports = run_lemma_batch([(DashParams(1, 4, 3), 7, 1)])
    assert len(reports) == 12
    assert all(rep.passed for rep in reports)
    assert reports == canonical_sort(reports)


def test_wz_fuzz_cases_seeded_and_bounded():
    cases = wz_fuzz_cases(40)
    assert cases == wz_fuzz_cases(40)
    assert cases != wz_fuzz_cases(40, seed=DEFAULT_SEED + 1)
    assert len(cases) == 40
    with pytest.raises(ValueError, match="count must be nonnegative"):
        wz_fuzz_cases(-3)
    for x, k in cases:
        assert x != 0
        assert abs(x) <= 1000
        assert x.denominator <= 1000
        assert 0 <= k <= 25
        pole = half_pole_index(x)
        assert pole is None or pole > k


def test_telescope_cases_seeded_and_bounded():
    cases = telescope_cases(20)
    assert cases == telescope_cases(20)
    assert len(cases) == 20
    with pytest.raises(ValueError, match="count must be nonnegative"):
        telescope_cases(-1)
    for x, a, n in cases:
        assert 1 <= a <= 12
        assert 1 <= n <= 60
        assert not (x.denominator == 1 and 0 <= -x < a)
        pole = half_pole_index(x)
        assert pole is None or pole >= n + a - 1


def test_wz_fuzz_cases_drop_inadmissible_draws():
    # seed 38 draws a zero numerator and x = -5/2 with k = 13, a pole of (1/2 + x)_(k+1)
    for x, k in wz_fuzz_cases(50, seed=38):
        pole = half_pole_index(x)
        assert x != 0 and (pole is None or pole > k)


class _QueuedDraws:
    """Stands in for random.Random in a case generator: randint returns the queued draws."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def randint(self, low, high):
        return next(self._draws)


def _first_case(generator, draws, fallback):
    # the first case the generator keeps when its rng yields draws, then an admissible fallback
    rng = SimpleNamespace(Random=lambda seed: _QueuedDraws([*draws, *fallback]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(congruence_suite, "random", rng)
        return generator(1)[0]


def _runs_without_pole(*evaluators):
    try:
        for evaluate in evaluators:
            evaluate()
    except PochhammerPoleError:
        return False
    return True


@st.composite
def wz_draws(draw):
    # x = 0, x = -j - 1/2 with j near k, or any x the generator can draw
    k = draw(st.integers(0, 25))
    j = draw(st.integers(max(0, k - 2), k + 2))
    num, den = draw(
        st.tuples(st.just(0), st.integers(1, 1_000))
        | st.just((-(2 * j + 1), 2))
        | st.tuples(st.integers(-1_000, 1_000), st.integers(1, 1_000))
    )
    return num, den, k


@st.composite
def telescope_draws(draw):
    # a negative integer near -a, a half pole near N + a - 1, or any alpha the generator can draw
    a, n = draw(st.integers(1, 12)), draw(st.integers(1, 60))
    m, den = draw(st.integers(max(0, a - 2), a + 2)), draw(st.integers(1, 3))
    j = draw(st.integers(max(0, n + a - 3), n + a + 1))
    num, den = draw(
        st.just((-m * den, den))
        | st.just((-(2 * j + 1), 2))
        | st.tuples(st.integers(-60, 60), st.integers(1, 20))
    )
    return num, den, a, n


@settings(max_examples=300)
@given(wz_draws())
def test_wz_fuzz_keeps_a_draw_exactly_when_the_residual_is_defined(draws):
    num, den, k = draws
    x = Fraction(num, den)
    kept = _first_case(wz_fuzz_cases, draws, (1, 1, 0)) == (x, k)
    assert kept == _runs_without_pole(lambda: wz_residual(x, k)), (x, k)


@settings(max_examples=300)
@given(telescope_draws())
def test_telescope_keeps_a_draw_exactly_when_both_sums_are_defined(draws):
    num, den, a, n = draws
    x = Fraction(num, den)
    kept = _first_case(telescope_cases, draws, (1, 1, 1, 1)) == (x, a, n)
    evaluators = (lambda: sum_F(x, n), lambda: sum_F(x + a, n), lambda: sum_G_boundary(x, a, n))
    assert kept == _runs_without_pole(*evaluators), (x, a, n)
    # and each G term on its own, so a check that the generator shares with sum_G_boundary
    # cannot be wrong in both places at once
    assert kept == _runs_without_pole(*(partial(term_G, x + l, n) for l in range(a))), (x, a, n)


def test_run_wz_fuzz_small():
    reports = run_wz_fuzz(25)
    assert len(reports) == 25
    assert all(rep.passed for rep in reports)
    assert all(rep.observed_valuation == INFINITE for rep in reports)
    assert all(rep.claim == "wz.residual" for rep in reports)


def test_run_telescope_fuzz_small():
    reports = run_telescope_fuzz(10)
    assert len(reports) == 10
    assert all(rep.passed for rep in reports)
    assert all(rep.observed_valuation == INFINITE for rep in reports)


def test_resource_guard():
    with pytest.raises(ResourceGuardError, match="force"):
        verify_theorem(DashParams(1, 2, 1), 211, 2)
    with pytest.raises(ResourceGuardError):
        verify_corollary(31, 3)
    with pytest.raises(ResourceGuardError):
        verify_family(Family.GZ_1_5, 149, 2)
    with pytest.raises(ResourceGuardError):
        probe_conjecture_7_1(149, 2)
    assert 211**2 > TERM_GUARD  # the guard is what these runs trip


def test_force_overrides_the_resource_guard(monkeypatch):
    # 7^2 = 49 terms exceed a guard lowered to 48, and force runs them
    monkeypatch.setattr(congruence_suite, "TERM_GUARD", 48)
    params = DashParams(1, 4, 3)
    with pytest.raises(ResourceGuardError, match="49 terms"):
        verify_theorem(params, 7, 2)
    assert verify_theorem(params, 7, 2, force=True).outcome == "PASS"


def test_term_guard_never_builds_or_prints_a_huge_power():
    # 7^6201 has 5 241 digits, past str()'s 4 300-digit limit, whose ValueError is no
    # capacity error and once took the whole batch down with it
    params = DashParams(1, 4, 3)
    passed, stopped = run_theorem_batch([(params, 7, 1), (params, 7, 6201)])
    assert passed.outcome == "PASS"
    assert stopped.error.startswith("ResourceGuardError: 7^6201 terms exceeds")
    # building 7^10000001 alone took 14 s
    t0 = time.perf_counter()
    with pytest.raises(ResourceGuardError, match="7\\^10000001 terms"):
        verify_corollary(7, 10_000_001)
    assert time.perf_counter() - t0 < 0.5
    # r = 17 is past the guard's bit length, and a p^r that prints still prints in full
    with pytest.raises(ResourceGuardError, match=f"^{7**17} terms exceeds the"):
        verify_corollary(7, 17)


@pytest.mark.parametrize(
    "check", [check for check in LemmaCheck if check.value.startswith("dash-")]
)
def test_dash_orbit_checks_run_past_the_term_guard(check):
    # 151^2 terms exceed the guard, but a dash orbit check costs O(max(r, period))
    assert 151**2 > TERM_GUARD
    assert verify_lemma(check, DashParams(1, 4, 3), 151, 2).outcome == "PASS"


def test_capacity_error_becomes_a_batch_report():
    tasks = [(DashParams(1, 2, 1), 5, 1), (DashParams(1, 2, 1), 211, 2)]
    for parallelism in (1, 2):
        passed, stopped = run_theorem_batch(tasks, parallelism)
        assert passed.passed is True
        assert stopped.params == (("c", 1), ("d", 2), ("s", 1), ("p", 211), ("r", 2))
        assert stopped.error.startswith("ResourceGuardError: 44521 terms")
        assert stopped.passed is None and stopped.observed_valuation is None
        assert stopped.elapsed_ms > 0
    # a single call still raises, with the report a batch would keep
    with pytest.raises(PrecisionCapError) as caught:
        verify_lemma(LemmaCheck.POCHHAMMER_UNIT, DashParams(1, 4, 1), 1009, 1)
    assert caught.value.report.claim == "lemma.pochhammer-unit"
    assert caught.value.report.error.startswith("PrecisionCapError: p^M = 1018081")
    assert caught.value.report.elapsed_ms > 0


def test_nonprime_and_bad_r_rejected():
    with pytest.raises(PrimeRequiredError):
        verify_theorem(DashParams(1, 4, 3), 9, 1)
    with pytest.raises(ValueError):
        verify_theorem(DashParams(1, 4, 3), 7, 0)
    with pytest.raises(PrimeRequiredError):
        verify_corollary(15, 1)
    with pytest.raises(PrimeRequiredError):
        probe_conjecture_7_1(21, 1)


def test_internal_contract_errors():
    # no tabulated claim reaches these raises; they guard the helpers' own contracts
    with pytest.raises(ValueError, match="^x is not an integer: 1/2$"):
        congruence_suite._as_int(Fraction(1, 2), "x")
    with pytest.raises(ValueError, match="^class of p mod 5 is not determined by s mod 4$"):
        congruence_suite._effective_class(Fraction(1, 5), 4, 3)


def test_corollary_is_four_times_theorem_at_quarter():
    """4 * (theorem rhs at alpha=1/4) matches the corollary rhs mod p^(r+3)."""
    alpha = Fraction(1, 4)
    for p, r in [(7, 1), (11, 1), (7, 3)]:
        asr = dash_iter(alpha, p, r)
        n_h = asr * p - dash_iter(alpha, p, r - 1)
        assert n_h.denominator == 1
        rhs_thm = asr * p**r - asr**3 / dash_iter(HALF + alpha, p, r) * p ** (r + 2) * harmonic(
            n_h.numerator, 2
        )
        rhs_cor = 3 * p**r + Fraction(27, 4) * p ** (3 * r) * harmonic((p**r - 3) // 4, 2)
        assert valuation(4 * rhs_thm - rhs_cor, p) >= r + 3


def test_sum_decomposes_through_dash_point():
    """sum_F(alpha, p^r) equals the dash-point sum minus the boundary sum."""
    for params, p, r in [
        (DashParams(1, 4, 3), 7, 1),
        (DashParams(2, 3, 1), 13, 1),
        (DashParams(1, 2, 1), 5, 2),
    ]:
        alpha = params.alpha
        n = p**r
        a = residue(-alpha, p, r)
        asr = dash_iter(alpha, p, r)
        assert alpha + a == asr * n
        assert sum_F(alpha, n) == sum_F(asr * n, n) - sum_G_boundary(alpha, a, n)


@settings(max_examples=20)
@given(st.permutations(list(range(6))))
def test_canonical_sort_is_permutation_invariant(order):
    base = [
        VerificationReport("a", (("p", 5),), 1, 1),
        VerificationReport("a", (("p", 7),), 1, 1),
        VerificationReport("b", (("p", 5),), 1, 1),
        VerificationReport("b", (("p", 7),), 1, 1),
        VerificationReport("c", (("p", 5),), 1, 1),
        VerificationReport("c", (("p", 7),), 1, 1),
    ]
    shuffled = [base[i] for i in order]
    assert canonical_sort(shuffled) == base


@pytest.mark.parametrize("r", [1, 2])
def test_wrong_g_window_fails_theorem_and_lemma(monkeypatch, r):
    # negative control: a right side off by p^(r+2) must be seen at exactly r + 2
    params, p = DashParams(1, 4, 3), 7
    g_window = congruence_suite._g_window
    monkeypatch.setattr(
        congruence_suite, "_g_window", lambda *args: g_window(*args) + p ** (r + 2)
    )
    for rep in (verify_theorem(params, p, r), verify_lemma("sum-g-window", params, p, r)):
        assert rep.outcome == "FAIL", rep.claim
        assert rep.observed_valuation == r + 2


@pytest.mark.parametrize("r", [1, 2])
def test_wrong_sum_f_fails_dash_point_lemma(monkeypatch, r):
    params, p = DashParams(1, 4, 3), 7
    sum_f = congruence_suite.sum_F
    monkeypatch.setattr(congruence_suite, "sum_F", lambda *args: sum_f(*args) + p ** (r + 2))
    rep = verify_lemma("sum-f-dash-point", params, p, r)
    assert rep.outcome == "FAIL"
    assert rep.observed_valuation == r + 2


@pytest.mark.parametrize(
    "family, p, alpha, observed",
    [(Family.VH_1_2, 13, None, 2), (Family.SW_1_3, 7, None, 3), (Family.PTW_1_4, 7, "2/3", 3)],
)
def test_shifted_sum_fails_gamma_side_family(monkeypatch, family, p, alpha, observed):
    # negative control: the Gamma_p side is known only mod p^m, so a sum off by
    # p^(m-1) must be seen at m - 1 and not hidden by the cap at m
    assert verify_family(family, p, 1, alpha).outcome == "PASS"
    m = observed + 1
    sum_f = congruence_suite.sum_F
    monkeypatch.setattr(congruence_suite, "sum_F", lambda *args: sum_f(*args) + p ** (m - 1))
    rep = verify_family(family, p, 1, alpha)
    assert (rep.outcome, rep.required_exponent, rep.observed_valuation) == ("FAIL", m, observed)


@pytest.mark.parametrize("r, required, observed", [(1, 3, 1), (2, 2, 0)])
def test_scaled_pochhammer_fails_pochhammer_unit(monkeypatch, r, required, observed):
    # r = 1 takes the unit branch; at r = 2 alpha^(*2) = 5/6 is not a unit at p = 5
    params, p = DashParams(5, 6, 5), 5
    assert verify_lemma(LemmaCheck.POCHHAMMER_UNIT, params, p, r).outcome == "PASS"
    pochhammer = congruence_suite.pochhammer
    monkeypatch.setattr(congruence_suite, "pochhammer", lambda *args: p * pochhammer(*args))
    rep = verify_lemma(LemmaCheck.POCHHAMMER_UNIT, params, p, r)
    assert (rep.outcome, rep.observed_valuation) == ("FAIL", observed)
    assert rep.required_exponent == required


@pytest.mark.parametrize("shifted", [None, 3, 6])
def test_shifted_harmonic_fails_both_harmonic_halves_lemmas(monkeypatch, shifted):
    # shifting H^(2)_n at every n, or only at one of n = (p - 1)/2 and n = p - 1
    params, p = DashParams(1, 4, 3), 7
    checks = {LemmaCheck.HARMONIC_PRIME: 0, LemmaCheck.HARMONIC_SQUARE_SCALED: 2}
    assert all(verify_lemma(check, params, p, 1).outcome == "PASS" for check in checks)
    harmonic_ = congruence_suite.harmonic
    monkeypatch.setattr(
        congruence_suite, "harmonic", lambda n, k: harmonic_(n, k) + (shifted in (None, n))
    )
    for check, observed in checks.items():
        rep = verify_lemma(check, params, p, 1)
        assert (rep.outcome, rep.observed_valuation) == ("FAIL", observed), check


def test_flipped_sign_fails_its_table_row_only(monkeypatch):
    rows = list(congruence_suite._TABLE_1)
    d, s, alpha, expected = rows[5]
    rows[5] = (d, s, alpha, lambda e: expected(-e))
    monkeypatch.setattr(congruence_suite, "_TABLE_1", tuple(rows))
    reports = reproduce_table_1()
    failed = [rep for rep in reports if rep.outcome == "FAIL"]
    assert [dict(rep.params)["r"] for rep in failed] == [1, 2]
    assert all(dict(rep.params)["row"] == "06" for rep in failed)
    assert all(rep.observed_valuation == 0 for rep in failed)
    assert sum(rep.outcome == "PASS" for rep in reports) == 24


@pytest.mark.parametrize(
    "p, r, patched, observed",
    [(7, 1, "harmonic", 3), (3, 1, "sum_F", 3), (3, 3, "sum_F", 5)],
)
def test_shifted_side_fails_corollary(monkeypatch, p, r, patched, observed):
    # at p = 3 a shifted sum fails the stated congruence as at any other p
    assert verify_corollary(p, r).outcome == "PASS"
    original = getattr(congruence_suite, patched)
    shift = 1 if patched == "harmonic" else p ** (r + 2)
    monkeypatch.setattr(congruence_suite, patched, lambda *args: original(*args) + shift)
    rep = verify_corollary(p, r)
    assert (rep.outcome, rep.observed_valuation) == ("FAIL", observed)


@pytest.mark.parametrize("family, p", [(Family.GZ_1_5, 5), (Family.C2_1_9, 7)])
@pytest.mark.parametrize("r", [1, 2])
def test_shifted_sum_fails_power_of_p_family(monkeypatch, family, p, r):
    assert verify_family(family, p, r).outcome == "PASS"
    sum_f = congruence_suite.sum_F
    monkeypatch.setattr(congruence_suite, "sum_F", lambda *args: sum_f(*args) + p ** (r + 2))
    rep = verify_family(family, p, r)
    assert (rep.outcome, rep.observed_valuation) == ("FAIL", r + 2)


@pytest.mark.parametrize(
    "family, p, alpha, precision",
    [
        (Family.SW_1_3, 7, None, 5),
        (Family.SW_1_3, 11, None, 5),
        (Family.PTW_1_4, 7, "2/3", 5),
        (Family.VH_1_2, 5, None, 4),
        (Family.VH_1_2, 13, None, 4),
        (Family.VH_1_2, 17, None, 4),
        (Family.VH_1_2, 29, None, 4),
        (Family.VH_1_2, 5, None, 5),
        (Family.VH_1_2, 13, None, 5),
    ],
)
def test_gamma_side_gap_past_the_stated_exponent(monkeypatch, family, p, alpha, precision):
    # each Gamma_p right side holds to exactly p^4: SW_1_3 and PTW_1_4 at their stated
    # exponent 4, VH_1_2 one power above its stated 3
    gap = congruence_suite._gamma_side_gap
    monkeypatch.setattr(
        congruence_suite, "_gamma_side_gap", lambda *args: gap(*args[:-1], precision)
    )
    rep = verify_family(family, p, 1, alpha)
    assert (rep.required_exponent, rep.observed_valuation) == (precision, 4)
    assert rep.outcome == ("PASS" if precision == 4 else "FAIL")


@pytest.mark.parametrize("r", [1, 2])
def test_shifted_closed_form_fails_every_dash_identity(monkeypatch, r):
    params, p = DashParams(1, 4, 3), 7
    checks = (LemmaCheck.DASH_CLOSED_FORM, LemmaCheck.DASH_ITERATES, LemmaCheck.DASH_LEAST_RESIDUE)
    assert all(verify_lemma(check, params, p, r).outcome == "PASS" for check in checks)
    closed_form = congruence_suite.dash_closed_form
    monkeypatch.setattr(
        congruence_suite, "dash_closed_form", lambda *args: closed_form(*args) + 1
    )
    for check in checks:
        rep = verify_lemma(check, params, p, r)
        assert (rep.outcome, rep.observed_valuation) == ("FAIL", 0), check


@pytest.mark.parametrize("wrong_period", [lambda n: 2 * n, lambda n: n + 1])
@pytest.mark.parametrize("r", [1, 2])
def test_wrong_period_fails_dash_period(monkeypatch, wrong_period, r):
    # twice the period revisits alpha too early; one more step never returns to it
    params, p = DashParams(1, 4, 3), 7
    assert verify_lemma(LemmaCheck.DASH_PERIOD, params, p, r).outcome == "PASS"
    period = congruence_suite.dash_period
    monkeypatch.setattr(
        congruence_suite, "dash_period", lambda d, s: wrong_period(period(d, s))
    )
    rep = verify_lemma(LemmaCheck.DASH_PERIOD, params, p, r)
    assert (rep.outcome, rep.observed_valuation) == ("FAIL", 0)


@pytest.mark.parametrize(
    "params, p, r",
    [(DashParams(1, 4, 3), 7, 2), (DashParams(1, 4, 3), 7, 3), (DashParams(1, 3, 2), 11, 2)],
)
def test_shifted_maximum_fails_dash_max_multiple(monkeypatch, params, p, r):
    # at r = 1 there is no j to check, so the control needs r >= 2
    assert verify_lemma(LemmaCheck.DASH_MAX_MULTIPLE, params, p, r).outcome == "PASS"
    as_int = congruence_suite._as_int
    monkeypatch.setattr(
        congruence_suite,
        "_as_int",
        lambda q, what: as_int(q, what) + (what == "claimed maximum"),
    )
    rep = verify_lemma(LemmaCheck.DASH_MAX_MULTIPLE, params, p, r)
    assert (rep.outcome, rep.observed_valuation) == ("FAIL", 0)


@pytest.mark.parametrize("p", [7, 11])
def test_shifted_iterate_fails_half_shift_ratio(monkeypatch, p):
    # at r = 2 the shifted iterate trips the theorem's hypotheses, so the control stays at r = 1
    params = DashParams(1, 4, 3)
    assert verify_lemma(LemmaCheck.HALF_SHIFT_RATIO, params, p, 1).outcome == "PASS"
    dash_iter_ = congruence_suite.dash_iter
    monkeypatch.setattr(
        congruence_suite,
        "dash_iter",
        lambda x, p, n: dash_iter_(x, p, n) + (x == params.alpha),
    )
    rep = verify_lemma(LemmaCheck.HALF_SHIFT_RATIO, params, p, 1)
    assert (rep.outcome, rep.observed_valuation) == ("FAIL", 0)


@pytest.mark.parametrize("r", [1, 2])
def test_shifted_harmonic_fails_harmonic_shift(monkeypatch, r):
    params, p = DashParams(1, 4, 3), 7
    assert verify_lemma(LemmaCheck.HARMONIC_SHIFT, params, p, r).outcome == "PASS"
    harmonic_ = congruence_suite.harmonic
    monkeypatch.setattr(
        congruence_suite, "harmonic", lambda n, k, x=1: harmonic_(n, k, x) + (x == 1)
    )
    rep = verify_lemma(LemmaCheck.HARMONIC_SHIFT, params, p, r)
    assert (rep.outcome, rep.observed_valuation) == ("FAIL", 2)


@pytest.mark.parametrize("r", [1, 2])
def test_late_window_and_tail_fail_harmonic_shift(monkeypatch, r):
    # the window and the tail are the sums at x != 1; start each one step late
    params, p = DashParams(1, 4, 3), 7
    assert verify_lemma(LemmaCheck.HARMONIC_SHIFT, params, p, r).outcome == "PASS"
    harmonic_ = congruence_suite.harmonic
    monkeypatch.setattr(
        congruence_suite, "harmonic", lambda n, k, x=1: harmonic_(n, k, x + (x != 1))
    )
    rep = verify_lemma(LemmaCheck.HARMONIC_SHIFT, params, p, r)
    assert (rep.outcome, rep.observed_valuation) == ("FAIL", 0)


def test_wrong_sides_fail_both_fuzzers(monkeypatch):
    sum_g = congruence_suite.sum_G_boundary
    monkeypatch.setattr(congruence_suite, "wz_residual", lambda x, k: 1)
    monkeypatch.setattr(congruence_suite, "sum_G_boundary", lambda *args: sum_g(*args) + 1)
    for reports in (run_wz_fuzz(3), run_telescope_fuzz(3)):
        assert [(rep.outcome, rep.observed_valuation) for rep in reports] == [("FAIL", 0)] * 3
