"""Exact rational arithmetic with p-adic valuations and residues.

Everything downstream (dash iterates, Gamma_p, hypergeometric sums) reduces to the
three operations here: valuation, residue, mod_inverse. A congruence a = b (mod p^m)
is the bound valuation(a - b, p) >= m. All values are fractions.Fraction, and
valuations are ints, or math.inf (INFINITE) for zero; no other float appears.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction


class PrimeRequiredError(ValueError):
    """An argument that must be prime is not."""


class PadicDenominatorError(ValueError):
    """p divides the denominator, so the value is not a p-adic integer."""


class NonInvertibleError(ValueError):
    """gcd(n, modulus) != 1, no modular inverse exists."""


INFINITE = math.inf

Valuation = int | float


def is_prime(n: int) -> bool:
    """Deterministic trial division, adequate for desk-scale inputs."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(q: Rational, p: int) -> Valuation:
    """p-adic valuation of q; INFINITE for q = 0, possibly negative otherwise."""
    if not is_prime(p):
        raise PrimeRequiredError(f"valuation needs a prime, got {p}")
    q = Fraction(q)
    if q == 0:
        return INFINITE
    return _int_valuation(q.numerator, p) - _int_valuation(q.denominator, p)


def mod_inverse(n: int, modulus: int) -> int:
    """Inverse of n modulo modulus, in [0, modulus)."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    try:
        return pow(n, -1, modulus)
    except ValueError as exc:
        raise NonInvertibleError(f"{n} is not invertible mod {modulus}") from exc


def residue(q: Rational, p: int, m: int) -> int:
    """Least nonnegative residue of q modulo p^m, the unique t in [0, p^m) with v_p(q - t) >= m."""
    if not is_prime(p):
        raise PrimeRequiredError(f"residue needs a prime, got {p}")
    if m < 1:
        raise ValueError(f"exponent must be positive, got {m}")
    q = Fraction(q)
    if q.denominator % p == 0:
        raise PadicDenominatorError(f"{q} is not a p-adic integer for p = {p}")
    pm = p**m
    return q.numerator * mod_inverse(q.denominator, pm) % pm
