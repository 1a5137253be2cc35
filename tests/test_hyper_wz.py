"""Rising factorials, harmonic numbers, the WZ pair and its telescoping sums."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supercong import (
    PochhammerPoleError,
    Rational,
    half_pole_index,
    harmonic,
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


def test_sum_g_boundary_matches_term_sum():
    cases = [
        (Rational(1, 4), 5, 7),
        (Rational(-7, 3), 4, 6),
        (Rational(5), 3, 4),
        # G(-9 + l, 5) is 0 at l = 5, 6 and 7, the integers -4..-2 inside [-(N-1), -1]
        (Rational(-9), 8, 5),
        # G(-5 + l, 4) is 0 from l = 2 on; the step from x = -2 has N + 2x = 0 in its ratio
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
