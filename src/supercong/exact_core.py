"""Exact rational arithmetic with p-adic valuations and residues.

Everything downstream (dash iterates, Gamma_p, hypergeometric sums) reduces to the
three operations here: valuation, residue, mod_inverse. A congruence a = b (mod p^m)
is the bound valuation(a - b, p) >= m. All values are fractions.Fraction; there is
no floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction


class PrimeRequiredError(ValueError):
    """An argument that must be prime is not."""


class PadicDenominatorError(ValueError):
    """p divides the denominator, so the value is not a p-adic integer."""


class NonInvertibleError(ValueError):
    """gcd(n, modulus) != 1, no modular inverse exists."""


class _Infinite:
    """The valuation of zero. Compares greater than every integer, equal to itself."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Infinite)

    def __ne__(self, other: object) -> bool:
        return not isinstance(other, _Infinite)

    def __lt__(self, other: object) -> bool:
        if isinstance(other, (int, _Infinite)):
            return False
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, (int, _Infinite)):
            return isinstance(other, _Infinite)
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, (int, _Infinite)):
            return not isinstance(other, _Infinite)
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, (int, _Infinite)):
            return True
        return NotImplemented

    def __hash__(self) -> int:
        return hash("padic-valuation-infinite")

    def __repr__(self) -> str:
        return "INFINITE"

    def __reduce__(self):
        # unpickle to the module singleton so identity checks survive process pools
        return (_infinite_instance, ())


def _infinite_instance() -> _Infinite:
    return INFINITE


INFINITE = _Infinite()

Valuation = int | _Infinite


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
