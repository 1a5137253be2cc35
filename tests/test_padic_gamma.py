"""Morita Gamma values, the ratio law, and the rising-factorial unit split."""

import random
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from supercong import (
    PRECISION_CAP,
    PadicDenominatorError,
    PrecisionCapError,
    PrimeRequiredError,
    Rational,
    dash_iter,
    gamma_quotient,
    pochhammer,
    pochhammer_factorization,
    residue,
    valuation,
)
from supercong.padic_gamma import _block_levels, _gamma_residue

rationals = st.fractions(min_value=-200, max_value=200, max_denominator=50)
primes = st.sampled_from([3, 5, 7, 11, 13])
moduli = st.sampled_from(
    [(p, M) for p in (2, 3, 5, 7, 11, 13) for M in range(1, 17) if p**M <= 10**5]
)


def gamma(x, p, M):
    """Gamma_p(x) mod p^M through the one Gamma_p entry point."""
    return gamma_quotient([x], [], p, M)


def test_gamma_int_reference_values():
    assert gamma(Rational(0), 5, 3) == 1
    assert gamma(Rational(1), 5, 3) == 124
    assert gamma(Rational(3), 5, 2) == 23


def test_gamma_rational_reference_values():
    assert gamma(Rational(2), 7, 2) == 1
    assert gamma(Rational(1, 2), 5, 1) == 3


def test_gamma_is_invariant_under_full_modulus_shifts():
    for x in (Rational(1, 2), Rational(3, 4), Rational(11)):
        assert gamma(x, 7, 2) == gamma(x + 49, 7, 2)


def test_gamma_input_validation():
    with pytest.raises(PadicDenominatorError):
        gamma(Rational(1, 5), 5, 2)
    assert 101**3 > PRECISION_CAP
    with pytest.raises(PrecisionCapError):
        gamma(Rational(1, 2), 101, 3)
    with pytest.raises(ValueError):
        gamma(Rational(1, 2), 5, 0)


def gamma_ratio(x, p, M):
    """Gamma_p(x+1)/Gamma_p(x) mod p^M through the shared quotient."""
    return gamma_quotient([x + 1], [x], p, M)


def test_gamma_ratio_reference_values():
    assert gamma_ratio(Rational(3), 7, 2) == 46
    assert gamma_ratio(Rational(7), 7, 1) == 6
    assert gamma_ratio(Rational(0), 5, 2) == 24


def test_gamma_quotient_of_several_values():
    # Gamma_p(1/2) Gamma_p(1/4) / Gamma_p(3/4), the Gamma factor of VH_1_2 and SW_1_3
    pm = 7**3
    num = gamma(Rational(1, 2), 7, 3) * gamma(Rational(1, 4), 7, 3)
    got = gamma_quotient([Rational(1, 2), Rational(1, 4)], [Rational(3, 4)], 7, 3)
    assert got * gamma(Rational(3, 4), 7, 3) % pm == num % pm
    assert gamma_quotient([], [], 7, 3) == 1
    assert gamma_quotient([Rational(2, 3)], [Rational(2, 3)], 5, 2) == 1
    with pytest.raises(PrecisionCapError):
        gamma_quotient([Rational(1, 2)], [], 101, 3)
    # p and M are checked even when there is no factor to evaluate
    with pytest.raises(PrimeRequiredError):
        gamma_quotient([], [], 4, 2)
    with pytest.raises(PrecisionCapError):
        gamma_quotient([], [], 101, 3)


@given(st.integers(min_value=0, max_value=300), primes, st.integers(min_value=1, max_value=3))
def test_gamma_values_are_units(n, p, M):
    value = gamma(Rational(n), p, M)
    assert 0 <= value < p**M
    assert gcd(value, p) == 1


@given(rationals, primes, st.integers(min_value=1, max_value=3))
def test_ratio_law(x, p, M):
    assume(x.denominator % p != 0)
    got = gamma_ratio(x, p, M)
    if residue(x, p, 1) != 0:
        assert got == residue(-x, p, M)
    else:
        # x = 0 mod p: the ratio is -1, known to precision min(M, v_p(x)+1)
        level = M if x == 0 else min(M, valuation(x, p) + 1)
        assert (got + 1) % p**level == 0


@given(rationals, st.integers(min_value=-40, max_value=40), primes,
       st.integers(min_value=1, max_value=3))
def test_lipschitz_continuity(x, t, p, M):
    assume(x.denominator % p != 0)
    assert gamma(x, p, M) == gamma(x + t * p**M, p, M)


def direct_gamma(n, p, M):
    """Gamma_p(n) mod p^M as (-1)^n times every unit below n, multiplied one by one."""
    pm = p**M
    acc = 1
    for j in range(1, n):
        if j % p:
            acc = acc * j % pm
    return acc if n % 2 == 0 else -acc % pm


@pytest.mark.parametrize("p, M", [(2, 1), (2, 5), (3, 6), (5, 3), (7, 4), (13, 3)])
def test_block_evaluation_matches_the_direct_product(p, M):
    for n in sorted({0, 1, p - 1, p, p + 1, p**M - 1}):
        assert gamma(Rational(n), p, M) == direct_gamma(n, p, M)
    # one polynomial of M coefficients per block level, and no table of p^M values
    levels = _block_levels(p, M)
    assert len(levels) == M - 1 and all(len(poly) == M for poly in levels)


@given(moduli, st.data())
def test_block_evaluation_matches_the_direct_product_at_random(modulus, data):
    p, M = modulus
    n = data.draw(st.integers(min_value=0, max_value=p**M - 1))
    assert gamma(Rational(n), p, M) == direct_gamma(n, p, M)


def test_functional_equation_past_the_cap():
    # 101^4 > PRECISION_CAP, so this reaches the evaluator behind gamma_quotient directly
    p, M = 101, 4
    pm = p**M
    rng = random.Random(p)
    units = [n for n in rng.sample(range(1, pm - 1), 60) if n % p][:50]
    assert len(units) == 50
    for n in units:
        assert _gamma_residue(n + 1, p, M) == -n * _gamma_residue(n, p, M) % pm


@pytest.mark.parametrize("p, M", [(31, 4), (97, 3)])
def test_reflection_formula(p, M):
    # Gamma_p(x) Gamma_p(1 - x) = (-1)^x0 with x0 in {1, ..., p}, x0 = x mod p, for odd p
    # (Robert, A Course in p-adic Analysis, ch. 7); it uses no product of units
    rng = random.Random(p * M)
    checked = 0
    while checked < 40:
        x = Rational(rng.randint(-10**6, 10**6), rng.randint(1, 1000))
        if x.denominator % p == 0:
            continue
        x0 = residue(x, p, 1) or p
        product = gamma(x, p, M) * gamma(1 - x, p, M)
        assert product % p**M == (-1) ** x0 % p**M
        checked += 1


def test_factorization_reference_values():
    assert pochhammer_factorization(Rational(1, 2), 5, 1, 2) == (1, 2)
    assert pochhammer_factorization(Rational(1), 7, 1, 1) == (1, 6)
    assert pochhammer_factorization(Rational(1, 4), 7, 2, 2) == (8, 30)


def test_factorization_unit_matches_exact_rising_factorial():
    cases = [
        (Rational(1, 2), 5, 1, 2),
        (Rational(1), 7, 1, 1),
        (Rational(1, 4), 7, 2, 2),
        (Rational(3, 4), 7, 1, 3),
        (Rational(2, 3), 13, 1, 2),
    ]
    for x, p, r, M in cases:
        E, unit = pochhammer_factorization(x, p, r, M)
        exact = pochhammer(x, p**r)
        assert valuation(exact, p) == E
        assert residue(exact / Rational(p) ** E, p, M) == unit


def test_factorization_preconditions():
    # the first dash iterate of 1/6 at p = 5 is 5/6: its p-power joins E = 1 + 1
    assert pochhammer_factorization(Rational(1, 6), 5, 1, 2)[0] == 2
    # the first dash iterate of -3 at p = 5 is 0, and (-3)_5 = 0 has no split
    with pytest.raises(ValueError):
        pochhammer_factorization(Rational(-3), 5, 1, 1)
    with pytest.raises(PrecisionCapError):
        pochhammer_factorization(Rational(1, 2), 101, 1, 3)  # 101^3 > cap
    with pytest.raises(PadicDenominatorError):
        pochhammer_factorization(Rational(1, 5), 5, 1, 1)
    with pytest.raises(ValueError, match="r must be positive"):
        pochhammer_factorization(Rational(1, 4), 7, 0, 2)


@given(st.sampled_from([3, 5, 7]), st.integers(min_value=1, max_value=2), rationals)
def test_factorization_agrees_with_exact_pochhammer(p, r, x):
    assume(x.denominator % p != 0)
    assume(dash_iter(x, p, r) != 0)
    E, unit = pochhammer_factorization(x, p, r, 2)
    exact = pochhammer(x, p**r)
    assert valuation(exact, p) == E
    assert residue(exact / Rational(p) ** E, p, 2) == unit
