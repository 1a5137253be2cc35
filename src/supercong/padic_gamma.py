"""Morita's p-adic Gamma function to a chosen modular precision p^M.

Gamma_p(0) = 1 and Gamma_p(n) = (-1)^n * prod of j for 0 < j < n, p not dividing j.
Rational arguments are evaluated through their least residue mod p^M, which is
correct mod p^M because Gamma_p is 1-Lipschitz in the p-adic metric. Every value
is read through gamma_quotient, the one public entry point: a single Gamma_p(x)
is gamma_quotient([x], [], p, M).

The product of the units below n is not multiplied out term by term. The units
in a block [t p^(L+1), (t+1) p^(L+1)) multiply to a polynomial G_L(t), whose t^k
coefficient is divisible by p^((L+1)k), so mod p^M it has degree below M:

    G_0(t) = prod_{0<j<p} (p t + j),   G_(L+1)(t) = prod_{0<=j<p} G_L(p t + j).

Gamma_p(n) then takes one partial product per base-p digit of n, of at most p - 1
block values: O(p M^2) per value after an O(p M^3) setup, cached per (p, M).
PRECISION_CAP bounds p^M rather than that work, on purpose: moving it to a bound
on the work would change which claims raise PrecisionCapError. The unit-part
factorization of (x)_{p^r} into dash iterates and Gamma_p ratios lives here too.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from .exact_core import (
    PadicDenominatorError,
    PrimeRequiredError,
    Rational,
    is_prime,
    mod_inverse,
    residue,
    valuation,
)
from .dwork import dash_iterates

PRECISION_CAP = 10**6


class PrecisionCapError(ValueError):
    """Requested modulus p^M exceeds the desk-scale cap on Gamma_p evaluation."""


def _check_modulus(p: int, M: int) -> int:
    if not is_prime(p):
        raise PrimeRequiredError(f"p must be prime, got {p}")
    if M < 1:
        raise ValueError(f"precision exponent must be positive, got {M}")
    pm = p**M
    if pm > PRECISION_CAP:
        raise PrecisionCapError(f"p^M = {pm} exceeds the cap {PRECISION_CAP}")
    return pm


def _times_shift(acc: list[int], poly: tuple[int, ...], p: int, j: int, pm: int) -> list[int]:
    # acc(t) * poly(p t + j) mod (pm, t^len(acc)); poly(p t + j) by Horner's rule
    n = len(acc)
    shifted = [0] * n
    for c in reversed(poly):
        for k in range(n - 1, 0, -1):
            shifted[k] = (shifted[k] * j + shifted[k - 1] * p) % pm
        shifted[0] = (shifted[0] * j + c) % pm
    return [sum(acc[i] * shifted[k - i] for i in range(k + 1)) % pm for k in range(n)]


@lru_cache(maxsize=None)
def _block_levels(p: int, M: int) -> tuple[tuple[int, ...], ...]:
    """G_0, ..., G_(M-2) as coefficient tuples mod (p^M, t^M); see the module docstring."""
    pm = p**M
    levels = []
    # G_(-1)(t) = t, the units in [t, t + 1); G_0 leaves out its j = 0 factor p t
    poly, first = (0, 1), 1
    for _ in range(M - 1):
        acc = [1] + [0] * (M - 1)
        for j in range(first, p):
            acc = _times_shift(acc, poly, p, j, pm)
        poly, first = tuple(acc), 0
        levels.append(poly)
    return tuple(levels)


def _gamma_residue(n: int, p: int, M: int) -> int:
    """Gamma_p(n) mod p^M for an integer 0 <= n < p^M. Checks neither p nor the cap."""
    pm = p**M
    levels = _block_levels(p, M)
    acc, t = 1, 0
    # t p^i is n with its digits 0..i cleared; digit i adds that many blocks of p^i integers
    for i in range(M - 1, 0, -1):
        poly = levels[i - 1]
        digit = n // p**i % p
        for s in range(t, t + digit):
            block = 0
            for c in reversed(poly):
                block = (block * s + c) % pm
            acc = acc * block % pm
        t = (t + digit) * p
    for j in range(t + 1, n):
        acc = acc * j % pm
    return acc if n % 2 == 0 else -acc % pm


def gamma_quotient(numer: Iterable[Rational], denom: Iterable[Rational], p: int, M: int) -> int:
    """Residue mod p^M of prod Gamma_p(a) over numer divided by prod Gamma_p(b) over denom.

    The one Gamma_p entry point: Gamma_p(x) alone is gamma_quotient([x], [], p, M).
    """
    pm = _check_modulus(p, M)
    top = bottom = 1
    for a in numer:
        top = top * _gamma_residue(residue(a, p, M), p, M) % pm
    for b in denom:
        bottom = bottom * _gamma_residue(residue(b, p, M), p, M) % pm
    return top * mod_inverse(bottom, pm) % pm


def pochhammer_factorization(x: Rational, p: int, r: int, M: int) -> tuple[int, int]:
    """Predicted p-power exponent and unit part of the rising factorial (x)_{p^r}.

    Returns (E, unit) with E = v + sum of p^{j-1} for j = 1..r and
    unit = (-1)^r * x^{*r}/p^v * prod_{j=1..r} Gamma_p(y_j + p^j)/Gamma_p(y_j)  (mod p^M)
    where v = v_p(x^{*r}) and y_j = x^{*(r-j)}, so that (x)_{p^r} = p^E * unit
    up to p^M-precision in the unit. Peeling the multiples of p out of (y)_{p^m}
    leaves (y*)_{p^(m-1)} and a Gamma_p ratio based at y; unrolling that r times
    pins each ratio to the dash iterate it was peeled from, which is what makes
    the identity exact (anchoring every ratio at x itself drifts by a unit factor
    once r > 1). A zero r-th dash iterate means (x)_{p^r} = 0, which has no
    such split.
    """
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    _check_modulus(p, M)
    x = Fraction(x)
    if x.denominator % p == 0:
        raise PadicDenominatorError(f"{x} is not a p-adic integer for p = {p}")
    iterates = dash_iterates(x, p, r)
    xsr = iterates.pop()
    if xsr == 0:
        raise ValueError(f"the r-th dash iterate of {x} is 0, so (x)_(p^r) = 0")
    v = valuation(xsr, p)
    shifted = [y + p ** (r - i) for i, y in enumerate(iterates)]
    unit = residue((-1) ** r * xsr / p**v, p, M) * gamma_quotient(shifted, iterates, p, M) % p**M
    return v + sum(p ** (j - 1) for j in range(1, r + 1)), unit
