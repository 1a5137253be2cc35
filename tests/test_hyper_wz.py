"""Rising factorials, harmonic numbers, the WZ pair and its telescoping sums."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supercong import (
    PochhammerPoleError,
    Rational,
    half_pole_index,
    harmonic,
    hyper_wz,
    is_prime,
    pochhammer,
    sum_F,
    sum_G_boundary,
    term_F,
    term_G,
    valuation,
    wz_residual,
)

rationals = st.fractions(min_value=-60, max_value=60, max_denominator=24)


def no_half_pole_below(x, k):
    j = half_pole_index(x)
    return j is None or j >= k


def test_pochhammer_reference_values():
    assert pochhammer(Rational(1, 4), 2) == Rational(5, 16)
    assert pochhammer(Rational(22, 7), 0) == 1
    assert pochhammer(Rational(-3, 5), 0) == 1
    assert pochhammer(Rational(1, 2), 3) == Rational(15, 8)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        pochhammer(Rational(1, 4), -1)


def test_harmonic_reference_values():
    assert harmonic(3, 2) == Rational(49, 36)
    assert harmonic(0, 2) == 0
    assert harmonic(4, 2) == Rational(205, 144)
    with pytest.raises(ValueError):
        harmonic(-1, 2)
    with pytest.raises(ValueError):
        harmonic(3, 0)


def test_half_pole_index():
    assert half_pole_index(Rational(-1, 2)) == 0
    assert half_pole_index(Rational(-7, 2)) == 3
    assert half_pole_index(Rational(1, 2)) is None
    assert half_pole_index(Rational(1, 4)) is None
    assert half_pole_index(Rational(3)) is None


def test_term_f_reference_values():
    for x in (Rational(1, 4), Rational(-5, 3), Rational(7)):
        assert term_F(x, 0) == x
    assert term_F(Rational(1, 4), 1) == Rational(3, 128)
    assert term_F(Rational(1, 2), 1) == Rational(5, 32)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        term_F(Rational(1, 4), -1)


def test_term_g_reference_values():
    for x in (Rational(1, 4), Rational(-5, 3), Rational(7)):
        assert term_G(x, 0) == 0
    assert term_G(Rational(1, 4), 1) == 1
    assert term_G(Rational(1), 1) == 1


def test_pole_handling():
    with pytest.raises(PochhammerPoleError):
        term_F(Rational(-1, 2), 1)
    with pytest.raises(PochhammerPoleError):
        term_G(Rational(0), 1)
    with pytest.raises(PochhammerPoleError):
        term_F(Rational(-3, 2), 2)
    term_F(Rational(-3, 2), 1)  # pole at j = 1 is outside (1/2+x)_1
    with pytest.raises(PochhammerPoleError):
        sum_F(Rational(-5, 2), 4)
    sum_F(Rational(-5, 2), 3)  # k stays below the pole index


def test_wz_residual_reference_values():
    assert wz_residual(Rational(1, 4), 3) == 0
    assert wz_residual(Rational(22, 7), 10) == 0
    assert wz_residual(Rational(-2, 3), 0) == 0


def test_sum_f_reference_values():
    for x in (Rational(1, 4), Rational(-5, 3)):
        assert sum_F(x, 1) == x
    assert sum_F(Rational(1, 4), 2) == Rational(35, 128)
    # the truncated quartic-summand congruence at p = 5, halved form
    assert valuation(sum_F(Rational(1, 2), 5) - Rational(5, 2), 5) >= 4
    with pytest.raises(ValueError, match="N must be positive"):
        sum_F(Rational(1, 4), 0)


def test_sum_f_matches_term_sum():
    for x in (Rational(1, 4), Rational(3, 4), Rational(-7, 3), Rational(2)):
        for n in (1, 2, 5, 9):
            assert sum_F(x, n) == sum(term_F(x, k) for k in range(n))


def test_kernel_scalings_are_the_family_summands():
    # 4 F(1/4, k) is the corollary and GZ_1_5 summand, 2 F(1/2, k) the C2_1_9 summand,
    # 4 (sum_F at d = x = 1/4) the VH/SW summand, (sum_F at d = x = alpha)/alpha the PTW one
    quarter, half, one = Rational(1, 4), Rational(1, 2), Rational(1)

    def quartic_sum(alpha, upper, slope, intercept):
        # the hand-written family loop, kept as the reference: the sum of
        # (slope*k + intercept) ((alpha)_k/(1)_k)^4 for k = 0..upper
        total = Rational(0)
        ratio = Rational(1)
        for k in range(upper + 1):
            if k:
                ratio *= Rational(alpha + k - 1, k) ** 4
            total += (slope * k + intercept) * ratio
        return total

    def gz(k):
        num = (8 * k + 1) * pochhammer(quarter, k) ** 3 * pochhammer(half, k)
        return num / (pochhammer(one, k) ** 3 * pochhammer(Rational(3, 4), k))

    def c2(k):
        return (4 * k + 1) * (pochhammer(half, k) / pochhammer(one, k)) ** 4

    def vh(k):
        return (8 * k + 1) * (pochhammer(quarter, k) / pochhammer(one, k)) ** 4

    def ptw(alpha, k):
        return (2 * k + alpha) / alpha * (pochhammer(alpha, k) / pochhammer(one, k)) ** 4

    alphas = (Rational(2, 3), Rational(3, 5), Rational(-7, 4))
    for k in range(30):
        assert 4 * term_F(quarter, k) == gz(k)
        assert 2 * term_F(half, k) == c2(k)
    for n in (1, 5, 30):
        assert 4 * sum_F(quarter, n) == sum(gz(k) for k in range(n))
        assert 2 * sum_F(half, n) == sum(c2(k) for k in range(n))
        assert 4 * sum_F(quarter, n, quarter) == sum(vh(k) for k in range(n))
        for alpha in alphas:
            assert sum_F(alpha, n, alpha) / alpha == sum(ptw(alpha, k) for k in range(n))
    # the four family call sites against the reference loop
    for p in (5, 13, 29, 97):
        assert 4 * sum_F(quarter, (p + 3) // 4, quarter) == quartic_sum(quarter, (p - 1) // 4, 8, 1)
        assert 4 * sum_F(quarter, (3 * p + 3) // 4, quarter) == quartic_sum(
            quarter, (3 * p - 1) // 4, 8, 1
        )
        assert 2 * sum_F(half, p) == quartic_sum(half, p - 1, 4, 1)
        for alpha in alphas:
            assert sum_F(alpha, p, alpha) / alpha == quartic_sum(alpha, p - 1, 2 / alpha, 1)


def test_sum_g_boundary_reference_values():
    assert sum_G_boundary(Rational(1, 4), 0, 5) == 0
    assert sum_G_boundary(Rational(1, 4), 1, 1) == 1
    a = 5  # <-1/4> mod 7
    lhs = sum_G_boundary(Rational(1, 4), a, 7)
    assert lhs == sum_F(Rational(21, 4), 7) - sum_F(Rational(1, 4), 7)
    with pytest.raises(ValueError, match="a must be nonnegative"):
        sum_G_boundary(Rational(1, 4), -1, 3)
    with pytest.raises(ValueError, match="N must be positive"):
        sum_G_boundary(Rational(1, 4), 1, 0)


def test_sum_g_boundary_matches_term_sum():
    cases = [
        (Rational(1, 4), 5, 7),
        (Rational(-7, 3), 4, 6),
        (Rational(5), 3, 4),
        # G(-9 + l, 5) is 0 at l = 5, 6 and 7, the integers -4..-2 inside [-(N-1), -1]
        (Rational(-9), 8, 5),
        # G(-5 + l, 4) is 0 from l = 2 on; N + 2x = 0 at x = -2. The term ratio no
        # longer divides by N + 2x, but the case stays as a regression guard
        (Rational(-5), 5, 4),
    ]
    for alpha, a, n in cases:
        expected = sum(term_G(alpha + l, n) for l in range(a))
        assert sum_G_boundary(alpha, a, n) == expected


def test_sum_g_boundary_pole_rejection():
    with pytest.raises(PochhammerPoleError):
        sum_G_boundary(Rational(-2), 4, 3)  # l = 2 hits x = 0
    with pytest.raises(PochhammerPoleError):
        sum_G_boundary(Rational(-5, 2), 2, 4)  # (1/2+x)_N vanishes at l = 0


# negative integer alpha gives zero tails (G(x, N) = 0 for integer x in [-(N-1), -1]) and hits
# x = 0; half-integers hit the (1/2 + x)_N poles
boundary_alphas = st.one_of(
    st.integers(min_value=-12, max_value=-1).map(Rational),
    st.integers(min_value=-16, max_value=4).map(lambda k: Rational(2 * k + 1, 2)),
    rationals,
)


@settings(max_examples=150)
@given(
    boundary_alphas, st.integers(min_value=0, max_value=10), st.integers(min_value=1, max_value=12)
)
def test_sum_g_boundary_matches_term_sum_property(alpha, a, n):
    try:
        expected = sum(term_G(alpha + l, n) for l in range(a))
    except PochhammerPoleError:
        with pytest.raises(PochhammerPoleError):
            sum_G_boundary(alpha, a, n)
    else:
        assert sum_G_boundary(alpha, a, n) == expected


def test_harmonic_prime_square_vanishing():
    # order-2 harmonic numbers at p-1 and (p-1)/2 are divisible by p for p >= 5
    for p in range(5, 98):
        if not is_prime(p):
            continue
        assert valuation(harmonic(p - 1, 2), p) >= 1
        assert valuation(harmonic((p - 1) // 2, 2), p) >= 1


def test_harmonic_prime_square_needs_p_at_least_5():
    assert valuation(harmonic(2, 2), 3) == 0


@given(rationals, st.integers(min_value=0, max_value=30))
def test_pochhammer_recurrence(x, n):
    assert pochhammer(x, n + 1) == pochhammer(x, n) * (x + n)


@given(st.integers(min_value=0, max_value=120), st.integers(min_value=1, max_value=3))
def test_harmonic_additivity(n, m):
    assert harmonic(n + 1, m) == harmonic(n, m) + Rational(1, (n + 1) ** m)


def direct_sum(x, N, d):
    return sum(
        (2 * k + x) * pochhammer(x, k) ** 3 * pochhammer(d, k)
        / (pochhammer(1, k) ** 3 * pochhammer(1 + x - d, k))
        for k in range(N)
    )


@settings(max_examples=60)
@given(rationals, st.integers(min_value=1, max_value=30), rationals)
def test_sum_f_matches_direct_pochhammer_sum(x, N, d):
    b = 1 + x - d
    pole = b.denominator == 1 and 0 <= -b < N - 1
    if pole:
        with pytest.raises(PochhammerPoleError):
            sum_F(x, N, d)
    else:
        assert sum_F(x, N, d) == direct_sum(x, N, d)


@given(rationals, st.integers(min_value=2, max_value=30), st.data())
def test_sum_f_rejects_every_zero_factor(x, N, data):
    # choose d so that 1 + x - d + j = 0 for some j < N - 1
    j = data.draw(st.integers(min_value=0, max_value=N - 2))
    with pytest.raises(PochhammerPoleError):
        sum_F(x, N, 1 + x + j)


@given(rationals, st.integers(min_value=0, max_value=12))
def test_wz_residual_vanishes(x, k):
    assume(x != 0)
    assume(no_half_pole_below(x, k + 1) and no_half_pole_below(x + 1, k))
    assert wz_residual(x, k) == 0


@settings(max_examples=40)
@given(rationals, st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=18))
def test_telescoping_is_exact(alpha, a, n):
    if alpha.denominator == 1 and 0 <= -alpha < a:
        assume(False)
    j = half_pole_index(alpha)
    assume(j is None or j >= n + a - 1)
    lhs = sum_F(alpha + a, n) - sum_F(alpha, n)
    assert lhs == sum_G_boundary(alpha, a, n)


def loop_well_poised_sum(u, c, uppers, lowers, n):
    # the term-by-term Fraction loop that summed the well-poised series before binary
    # splitting, kept verbatim as the differential oracle of hyper_wz._well_poised_sum
    D = math.lcm(*(q.denominator for q in uppers + lowers))
    tops, bottoms = [int(a * D) for a in uppers], [int(b * D) for b in lowers]
    total = Fraction(0)
    for i in range(n - 1):
        total += (u + 2 * i) * c
        num = den = 1
        for a, b in zip(tops, bottoms):
            num *= a + i * D
            den *= b + i * D
        c *= Fraction(num, den)
    return total + (u + 2 * n - 2) * c


def loop_sum_F(x, N, d):
    return loop_well_poised_sum(x, 1, (x, x, x, d), (1, 1, 1, 1 + x - d), N)


def loop_sum_G_boundary(alpha, a, N):
    if a == 0:
        return Fraction(0)
    half = Fraction(1, 2)
    core = pochhammer(alpha, N) ** 3 * pochhammer(half, N)
    core /= pochhammer(1, N) ** 3 * pochhammer(half + alpha, N)
    uppers, lowers = (alpha + N,) * 3 + (half + alpha,), (alpha + 1,) * 3 + (half + alpha + N,)
    return N**3 * loop_well_poised_sum(N + 2 * alpha, core / alpha**3, uppers, lowers, a)


def random_rational(rng):
    return Fraction(rng.randint(-60, 60), rng.randint(1, 24))


def sum_f_oracle_cases():
    rng = random.Random(2026)
    cases = [(Fraction(-7, 3), 1, Fraction(1, 2)), (Fraction(-7, 3), 2, Fraction(-7, 3))]
    for n in range(200):
        x = random_rational(rng)
        N = rng.randint(200, 1500) if n % 25 == 0 else rng.choice((1, 2, rng.randint(3, 60)))
        # d = x + N puts 1 + x - d at -(N - 1): the lower factor at N - 1 is zero, and the
        # last term does not need it; d = 1 + x + j with j < N - 1 is a pole
        pole = 1 + x + rng.randrange(N)
        d = rng.choice((Fraction(1, 2), x, random_rational(rng), x + N, pole))
        cases.append((x, N, d))
    # a zero upper factor x + j or d + j with N well past j
    zero_uppers = [
        (Fraction(-5), 40, Fraction(1, 2)),
        (Fraction(-12), 300, Fraction(1, 2)),
        (Fraction(-3), 64, Fraction(-3)),
        (Fraction(1, 3), 50, Fraction(-7)),
    ]
    return cases + zero_uppers + [
        (Fraction(1, 3), 1500, Fraction(1, 2)),
        (Fraction(-5, 7), 1500, Fraction(-5, 7)),
    ]


def zero_upper_inside(uppers, n):
    # an upper factor a + j vanishes at some j < n - 2, so its leaf j + 1 is not the last
    # one, and the merge that splits it from the last leaf has P1 = 0 and cancels g = |Q2|
    return any(a.denominator == 1 and 0 <= -a < n - 2 for a in map(Fraction, uppers))


def test_sum_f_matches_the_loop_oracle():
    cases = sum_f_oracle_cases()
    assert sum(x < 0 for x, _, _ in cases) > 50
    assert sum(1 + x - d == 1 - N for x, N, d in cases) > 20
    poles = zero_merges = 0
    for x, N, d in cases:
        try:
            expected = loop_sum_F(x, N, d)
        except ZeroDivisionError:
            with pytest.raises(PochhammerPoleError):
                sum_F(x, N, d)
            poles += 1
        else:
            assert sum_F(x, N, d) == expected, (x, N, d)
            zero_merges += zero_upper_inside((x, x, x, d), N)
    assert poles > 10
    assert zero_merges > 8


def test_sum_g_boundary_matches_the_loop_oracle():
    rng = random.Random(2028)
    # G(-9 + l, 5) and G(-5 + l, 4) have zero terms inside the range; in the last three
    # the upper factor alpha + N + l vanishes at l = -alpha - N, well before l = a - 2
    cases = [(Fraction(-9), 8, 5), (Fraction(-5), 5, 4), (Fraction(1, 4), 1, 1)]
    cases += [(Fraction(-40), 30, 20), (Fraction(-100), 90, 30), (Fraction(-300), 280, 25)]
    while len(cases) < 200:
        integer = rng.random() < 0.25
        alpha = Fraction(rng.randint(-12, -1)) if integer else random_rational(rng)
        a = rng.randint(300, 1200) if len(cases) % 40 == 0 else rng.randint(0, 40)
        cases.append((alpha, a, rng.randint(1, 30)))
    poles = zero_merges = 0
    for alpha, a, N in cases:
        try:
            expected = loop_sum_G_boundary(alpha, a, N)
        except ZeroDivisionError:
            with pytest.raises(PochhammerPoleError):
                sum_G_boundary(alpha, a, N)
            poles += 1
        else:
            assert sum_G_boundary(alpha, a, N) == expected, (alpha, a, N)
            zero_merges += zero_upper_inside((alpha + N,) * 3 + (Fraction(1, 2) + alpha,), a)
    assert 10 < poles < 80
    assert zero_merges > 5


def test_kernel_cancels_common_factors_at_every_merge(monkeypatch):
    # without the gcd at each merge the unreduced denominator Q ud of sum_F(1/4, 29^2) has
    # 34 537 bits against the reduced 8 035; with it, 9 604. For sum_F(1/3, 17^3) it has
    # 45 032 bits against the reduced 38 789
    calls = []

    def recording_fraction(*args):
        calls.append(args)
        return Fraction(*args)

    monkeypatch.setattr(hyper_wz, "Fraction", recording_fraction)
    for x, n in ((Fraction(1, 4), 29**2), (Fraction(1, 3), 17**3)):
        result = sum_F(x, n)
        _, unreduced = [args for args in calls if len(args) == 2][-1]
        assert unreduced.bit_length() <= 1.5 * result.denominator.bit_length(), (x, n)


def test_kernel_takes_one_gcd_per_merge(monkeypatch):
    # 4 913 terms split into 256 ranges of at most _LEAF = 32 terms, each summed in one
    # loop, so 255 merges take a gcd; with one-term ranges it took 4 912. A sum of _LEAF
    # terms is one loop and merges nothing
    gcds = []

    def counting_gcd(*args):
        gcds.append(args)
        return math.gcd(*args)

    monkeypatch.setattr(hyper_wz, "math", SimpleNamespace(gcd=counting_gcd, lcm=math.lcm))
    for n, merges in ((17**3, 255), (hyper_wz._LEAF, 0), (hyper_wz._LEAF + 1, 1)):
        gcds.clear()
        sum_F(Fraction(1, 3), n)
        assert len(gcds) == merges, n


LEAF = hyper_wz._LEAF
# sums that end just inside, at and past one, two and three ranges of _LEAF terms
LEAF_EDGES = (LEAF - 1, LEAF, LEAF + 1, 2 * LEAF, 2 * LEAF + 1, 3 * LEAF - 1)


def leaf_ranges(l, r):
    # the ranges [l, r) that the kernel sums in one loop each, in order
    if r - l <= LEAF:
        return [(l, r)]
    m = (l + r) // 2
    return leaf_ranges(l, m) + leaf_ranges(m, r)


def off_lattice_rational(rng):
    # neither an integer nor a half-integer, so no factor or pole check can vanish
    return Fraction(3 * rng.randint(-20, 20) + rng.choice((1, 2)), 3 * rng.choice((1, 5, 7)))


def test_kernel_matches_the_loop_oracles_at_the_leaf_edges():
    rng = random.Random(2030)
    assert [len(leaf_ranges(0, n)) for n in LEAF_EDGES] == [1, 1, 2, 2, 3, 4]
    for n in LEAF_EDGES:
        for _ in range(3):
            # d = x + n makes the lower factor at n - 1 zero, which the kernel never forms
            x = off_lattice_rational(rng)
            for d in (Fraction(1, 2), x, x + n):
                assert sum_F(x, n, d) == loop_sum_F(x, n, d), (x, n, d)
            alpha, N = off_lattice_rational(rng), rng.randint(1, 30)
            assert sum_G_boundary(alpha, n, N) == loop_sum_G_boundary(alpha, n, N), (alpha, n, N)
            # a negative integer x at or below -n is no pole
            m = rng.randint(1, 4)
            for x in (1, rng.randint(2, 40), -off_lattice_rational(rng) - 9, -n - rng.randint(0, 9)):
                assert harmonic(n, m, x) == loop_harmonic(n, m, x), (n, m, x)


def test_kernel_matches_the_loop_oracle_with_a_zero_factor_at_a_leaf_edge():
    # term i holds the upper factors at i - 1, so an upper factor 1 - i makes P zero from
    # term i on; put it at the first and at the last term of each range the kernel loops over
    n = 4 * LEAF
    leaves = leaf_ranges(0, n)
    assert len(leaves) == 4
    for l, r in leaves:
        for i in (max(l, 1), r - 1):
            zero = Fraction(1 - i)
            for x, d in ((zero, Fraction(1, 2)), (Fraction(1, 3), zero)):
                assert sum_F(x, n, d) == loop_sum_F(x, n, d), (x, n, d)


def loop_harmonic(n, m, x):
    # the harmonic-shift window's term-by-term Fraction loop from before the kernel, with x
    # for alpha; at x = 1 it sums H_n term for term. Kept as harmonic's differential oracle
    return sum((1 / (Fraction(x) + l) ** m for l in range(n)), Fraction(0))


def test_harmonic_matches_the_loop_oracle():
    rng = random.Random(2029)
    # every order at n = 0, where even x = 0 sums to 0, and one long sum past 3^8 terms
    cases = [(0, m, x) for m in range(1, 5) for x in (1, 0, Fraction(-7, 3))]
    cases += [(3**8 + 5, 2, 1), (3**8, 2, Fraction(-13, 4))]
    while len(cases) < 300:
        n, m = rng.randint(0, 60), rng.randint(1, 4)
        # a non-positive integer x is a pole when -x < n, and only then; harmonic keeps an
        # int x an int, so integers come as both types
        k = rng.randint(0, 70)
        x = rng.choice((random_rational(rng), Fraction(-k), -k, k))
        cases.append((n, m, x))
    assert sum(x < 0 and x.denominator > 1 for _, _, x in cases) > 20
    assert sum(type(x) is int for _, _, x in cases) > 100
    poles = 0
    for n, m, x in cases:
        try:
            expected = loop_harmonic(n, m, x)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                harmonic(n, m, x)
            poles += 1
        else:
            assert harmonic(n, m, x) == expected, (n, m, x)
    assert poles > 40, poles
