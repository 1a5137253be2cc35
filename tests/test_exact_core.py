"""Valuations, residues, congruences (as valuation bounds) and modular inverses."""

import pickle

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from supercong import (
    INFINITE,
    NonInvertibleError,
    PadicDenominatorError,
    PrimeRequiredError,
    Rational,
    is_prime,
    mod_inverse,
    residue,
    valuation,
)

PRIMES = [3, 5, 7, 11, 13]

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
primes = st.sampled_from(PRIMES)


def test_valuation_reference_values():
    assert valuation(Rational(49, 3), 7) == 2
    assert valuation(Rational(0), 5) == INFINITE
    assert valuation(Rational(205, 144), 5) == 1
    assert valuation(Rational(1, 7), 7) == -1
    assert valuation(Rational(-50), 5) == 2


def test_valuation_rejects_composite_modulus():
    with pytest.raises(PrimeRequiredError):
        valuation(Rational(1), 6)
    with pytest.raises(PrimeRequiredError):
        valuation(Rational(1), 1)


def test_is_prime_small_table():
    hits = [n for n in range(2, 30) if is_prime(n)]
    assert hits == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_infinite_is_greater_than_every_integer():
    assert INFINITE > 10**9
    assert INFINITE >= 10**9
    assert not INFINITE < 10**9
    assert INFINITE == INFINITE
    assert INFINITE != 5
    assert 5 < INFINITE


def test_infinite_survives_pickling():
    clone = pickle.loads(pickle.dumps(INFINITE))
    assert clone == INFINITE


def test_residue_reference_values():
    assert residue(Rational(1, 4), 7, 2) == 37
    assert residue(Rational(0), 5, 3) == 0
    assert residue(Rational(-1, 4), 7, 1) == 5


def test_residue_rejects_denominator_divisible_by_p():
    with pytest.raises(PadicDenominatorError):
        residue(Rational(1, 7), 7, 1)


def test_congruent_reference_values():
    # a = b (mod p^m) is the bound v_p(a - b) >= m; exact equality clears every m
    assert valuation(Rational(205, 144) - 0, 5) >= 1
    assert valuation(Rational(1) - Rational(1), 7) >= 100
    assert valuation(Rational(1, 4) - Rational(3, 4), 7) < 1


def test_mod_inverse_reference_values():
    assert mod_inverse(4, 49) == 37
    assert mod_inverse(1, 9) == 1
    assert mod_inverse(3, 7) == 5
    with pytest.raises(ValueError, match="modulus must be positive"):
        mod_inverse(3, 0)


def test_mod_inverse_rejects_shared_factor():
    with pytest.raises(NonInvertibleError):
        mod_inverse(6, 9)


@given(rationals, rationals, primes)
def test_valuation_is_additive_on_products(q, q2, p):
    assume(q != 0 and q2 != 0)
    assert valuation(q * q2, p) == valuation(q, p) + valuation(q2, p)


@given(rationals, rationals, primes)
def test_valuation_ultrametric_inequality(q, q2, p):
    assume(q != 0 and q2 != 0 and q + q2 != 0)
    va, vb = valuation(q, p), valuation(q2, p)
    assert valuation(q + q2, p) >= min(va, vb)
    if va != vb:
        assert valuation(q + q2, p) == min(va, vb)


@given(rationals, primes, st.integers(min_value=1, max_value=4))
def test_residue_is_the_unique_fixed_point(q, p, m):
    assume(q.denominator % p != 0)
    t = residue(q, p, m)
    assert 0 <= t < p**m
    assert valuation(q - t, p) >= m
    other = (t + 1) % p**m
    assert valuation(q - other, p) < m


@given(rationals, rationals, primes, st.integers(min_value=1, max_value=5))
def test_congruent_weakens_as_the_exponent_drops(q, q2, p, m):
    # on p-adic integers, equal residues mod p^m is the valuation bound, and
    # it survives reduction to every lower exponent
    assume(q.denominator % p != 0 and q2.denominator % p != 0)
    same = residue(q, p, m) == residue(q2, p, m)
    assert same == (valuation(q - q2, p) >= m)
    if same:
        for lower in range(1, m):
            assert residue(q, p, lower) == residue(q2, p, lower)


@given(rationals, rationals)
def test_rational_arithmetic_round_trips(a, b):
    assume(b != 0)
    assert (a + b) - b == a
    assert (a * b) / b == a


def test_basic_queries_at_one_prime_power():
    # valuation, residue and congruence at p = 7, working modulus 7^2 = 49
    assert valuation(Rational(49, 3), 7) == 2
    assert residue(Rational(1, 4), 7, 2) == 37
    assert valuation(Rational(1, 4) - 37, 7) >= 2
    with pytest.raises(PrimeRequiredError):
        residue(Rational(1, 4), 6, 2)
    with pytest.raises(ValueError):
        residue(Rational(1, 4), 7, 0)
