"""Dash operation: single steps, iterates, closed form, orbits."""

import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from supercong import (
    DashParams,
    NonInvertibleError,
    PadicDenominatorError,
    Rational,
    dash,
    dash_closed_form,
    dash_iter,
    dash_iterates,
    dash_period,
    residue,
)
from supercong import dwork

PRIMES = [3, 5, 7, 11, 13, 17, 19]

rationals = st.fractions(min_value=-500, max_value=500, max_denominator=48)
primes = st.sampled_from(PRIMES)


def valid_params():
    from math import gcd

    triples = [
        (c, d, s)
        for d in range(2, 13)
        for c in range(1, d + 1)
        for s in range(1, d + 1)
        if gcd(c * s, d) == 1
    ]
    return st.sampled_from(triples)


def test_least_residue_reference_values():
    assert residue(Rational(-1, 4), 7, 1) == 5
    assert residue(Rational(-1, 4), 13, 1) == 3
    assert residue(Rational(0), 11, 2) == 0


def test_dash_reference_values():
    assert dash(Rational(1, 4), 7) == Rational(3, 4)
    assert dash(Rational(1, 4), 13) == Rational(1, 4)
    assert dash(Rational(0), 7) == 0
    assert dash(Rational(1), 7) == 1
    assert dash(Rational(1, 2), 5) == Rational(1, 2)


def test_dash_rejects_non_p_adic_input():
    with pytest.raises(PadicDenominatorError):
        dash(Rational(1, 7), 7)


def test_dash_iter_reference_values():
    assert dash_iter(Rational(1, 4), 7, 2) == Rational(1, 4)
    assert dash_iter(Rational(22, 7), 5, 0) == Rational(22, 7)
    assert dash_iter(Rational(5, 6), 7, 1) == Rational(5, 6)
    with pytest.raises(ValueError):
        dash_iter(Rational(1, 4), 7, -1)


def test_dash_iterates_lists_every_step():
    assert dash_iterates(Rational(22, 7), 5, 0) == [Rational(22, 7)]
    assert dash_iterates(Rational(1, 4), 7, 2) == [Rational(1, 4), Rational(3, 4), Rational(1, 4)]
    assert dash_iterates(Rational(1, 6), 5, 3) == [
        Rational(1, 6), Rational(5, 6), Rational(1, 6), Rational(5, 6)
    ]
    with pytest.raises(ValueError):
        dash_iterates(Rational(1, 4), 7, -1)


def test_dash_closed_form_reference_values():
    assert dash_closed_form(DashParams(1, 4, 3), 1) == Rational(3, 4)
    assert dash_closed_form(DashParams(1, 3, 2), 1) == Rational(2, 3)
    for n in range(7):
        assert dash_closed_form(DashParams(3, 8, 1), n) == Rational(3, 8)
    with pytest.raises(ValueError, match="iteration count"):
        dash_closed_form(DashParams(1, 4, 3), -1)


def test_dash_period_reference_values():
    assert dash_period(4, 3) == 2
    assert dash_period(9, 1) == 1
    assert dash_period(7, 3) == 6
    with pytest.raises(NonInvertibleError):
        dash_period(9, 3)
    with pytest.raises(ValueError, match="d must be >= 2"):
        dash_period(1, 1)


def test_params_validation():
    with pytest.raises(ValueError):
        DashParams(5, 4, 3)  # c > d
    with pytest.raises(ValueError):
        DashParams(2, 4, 1)  # gcd(c, d) > 1
    with pytest.raises(ValueError):
        DashParams(1, 4, 2)  # gcd(s, d) > 1
    with pytest.raises(ValueError):
        DashParams(1, 1, 1)  # d too small
    with pytest.raises(ValueError, match="s must lie in"):
        DashParams(1, 4, 5)  # s > d


@given(valid_params())
def test_orbit_closes_with_minimal_period(triple):
    c, d, s = triple
    alpha = DashParams(c, d, s).alpha
    period = dash_period(d, s)
    for p in [p for p in PRIMES if p % d == s % d and d % p != 0]:
        assert dash_iter(alpha, p, period) == alpha
        assert all(dash_iter(alpha, p, n) != alpha for n in range(1, period))


@given(rationals, primes)
def test_dash_step_subtracts_a_least_residue(x, p):
    assume(x.denominator % p != 0)
    shift = p * dash(x, p) - x
    assert shift == residue(-x, p, 1)
    assert 0 <= shift < p


@given(valid_params(), st.integers(min_value=0, max_value=6))
def test_closed_form_matches_iteration_for_every_matching_prime(triple, n):
    c, d, s = triple
    params = DashParams(c, d, s)
    expected = dash_closed_form(params, n)
    matching = [p for p in PRIMES if p % d == s % d and d % p != 0]
    for p in matching:
        assert dash_iter(params.alpha, p, n) == expected


@given(valid_params(), st.sampled_from([5, 7, 11, 13]), st.integers(min_value=1, max_value=3))
def test_iterate_equals_base_plus_residue_over_prime_power(triple, p, r):
    # x^(*r) = (x + <-x> mod p^r) / p^r, with no class restriction on p
    c, d, s = triple
    alpha = DashParams(c, d, s).alpha
    assume(d % p != 0)
    a = residue(-alpha, p, r)
    assert dash_iter(alpha, p, r) == (alpha + a) / p**r


@given(valid_params(), st.integers(min_value=0, max_value=4))
def test_iteration_is_periodic_with_the_group_order(triple, n):
    c, d, s = triple
    params = DashParams(c, d, s)
    period = dash_period(d, s)
    assert dash_closed_form(params, n + period) == dash_closed_form(params, n)
    matching = [p for p in PRIMES if p % d == s % d and d % p != 0]
    if matching:
        p = matching[0]
        assert dash_iter(params.alpha, p, n + period) == dash_iter(params.alpha, p, n)


@given(st.integers(min_value=0, max_value=200), st.sampled_from([5, 7, 11]))
def test_integers_are_eventually_fixed(n, p):
    # every nonnegative integer dashes into {0, 1} and stays there
    y = Rational(n)
    for _ in range(10):
        y = dash(y, p)
    assert y in (Rational(0), Rational(1))
    assert dash(y, p) == y


def test_dash_iter_matches_the_step_by_step_walk():
    # dash_iter reads the n-th iterate off the orbit's cycle; dash_iterates walks all n steps
    rng = random.Random(2_026)
    for _ in range(600):
        p = rng.choice(PRIMES)
        den = rng.choice([d for d in range(1, 49) if d % p != 0])
        x = Rational(rng.randint(-3_000, 3_000), den)  # x > 1, negative x and integers
        n = rng.randint(0, 4 * dash_period(den, p) + 12) if den > 1 else rng.randint(0, 40)
        assert dash_iter(x, p, n) == dash_iterates(x, p, n)[-1], (x, p, n)


def test_dash_iter_allows_a_preperiod_and_skips_the_closed_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("dash_iter must find the cycle by iteration")

    monkeypatch.setattr(dwork, "dash_closed_form", refuse)
    # 5/4 = 1/2 + 3/4 steps into the cycle 1/4 -> 3/4 -> 1/4 at p = 7
    assert dash_iterates(Rational(5, 4), 7, 3) == [Rational(k, 4) for k in (5, 3, 1, 3)]
    assert dash_iter(Rational(5, 4), 7, 10**18) == Rational(1, 4)
    assert dash_iter(Rational(5, 4), 7, 10**18 + 1) == Rational(3, 4)
    assert dash_iter(Rational(-9), 5, 10**18) == 0  # an integer ends at a fixed point
    with pytest.raises(ValueError, match="iteration count"):
        dash_iter(Rational(5, 4), 7, -1)
