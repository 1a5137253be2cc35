"""Dwork's dash operation x* = (x + <-x>_p)/p on p-adic integer rationals.

The operation, its iterates, the closed form <s^-n c>_d / d valid when p = s (mod d),
and the orbit period ind_d(s). The iterative path and the closed form are kept
independent of each other on purpose: their agreement is a theorem, and the test
suite treats it as one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exact_core import NonInvertibleError, Rational, mod_inverse, residue


@dataclass(frozen=True)
class DashParams:
    """The tuple (c, d, s) with alpha = c/d; primes of interest satisfy p = s (mod d)."""

    c: int
    d: int
    s: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if not 1 <= self.c <= self.d:
            raise ValueError(f"c must lie in [1, d], got c={self.c}, d={self.d}")
        if not 1 <= self.s <= self.d:
            raise ValueError(f"s must lie in [1, d], got s={self.s}, d={self.d}")
        if gcd(self.c * self.s, self.d) != 1:
            raise ValueError(f"gcd(c*s, d) must be 1, got ({self.c}*{self.s}, {self.d})")

    @property
    def alpha(self) -> Rational:
        return Fraction(self.c, self.d)


def dash(x: Rational, p: int) -> Rational:
    """One application of the dash operation. The result is again a p-adic integer."""
    x = Fraction(x)
    return (x + residue(-x, p, 1)) / p


def dash_iterates(x: Rational, p: int, n: int) -> list[Rational]:
    """[x, x*, x**, ..., x^(*n)], one dash step at a time; n = 0 gives [x]."""
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    iterates = [Fraction(x)]
    for _ in range(n):
        iterates.append(dash(iterates[-1], p))
    return iterates


def dash_iter(x: Rational, p: int, n: int) -> Rational:
    """n-fold dash; n = 0 returns x. Costs the orbit's preperiod plus period, not n."""
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    x = Fraction(x)
    steps = {x: 0}  # each iterate so far and its step; the orbit is eventually periodic
    while len(steps) <= n:
        x = dash(x, p)
        if x in steps:  # the cycle runs from step steps[x] and has len(steps) - steps[x]
            start = steps[x]
            return list(steps)[start + (n - start) % (len(steps) - start)]
        steps[x] = len(steps)
    return x


def dash_closed_form(params: DashParams, n: int) -> Rational:
    """<s^-n c>_d / d, the n-th iterate of c/d for any prime p = s (mod d).

    Computed with no prime in sight, which is what makes it an independent
    oracle for dash_iter.
    """
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    s_inv = mod_inverse(params.s, params.d)
    t = pow(s_inv, n, params.d) * params.c % params.d
    return Fraction(t, params.d)


def dash_period(d: int, s: int) -> int:
    """ind_d(s): least n >= 1 with s^n = 1 (mod d), the dash-orbit period of c/d."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if gcd(s, d) != 1:
        raise NonInvertibleError(f"gcd(s, d) must be 1, got ({s}, {d})")
    acc = s % d
    n = 1
    while acc != 1:
        acc = acc * s % d
        n += 1
    return n
