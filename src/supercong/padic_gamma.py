"""Morita's p-adic Gamma function to a chosen modular precision p^M.

Gamma_p(0) = 1 and Gamma_p(n) = (-1)^n * prod of j for 0 < j < n, p not dividing j.
Rational arguments are evaluated through their least residue mod p^M, which is
correct mod p^M because Gamma_p is 1-Lipschitz in the p-adic metric. The unit-part
factorization of (x)_{p^r} into dash iterates and Gamma_p ratios lives here too.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
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
    """Requested modulus exceeds the desk-scale cap on Gamma_p products."""


@dataclass(frozen=True)
class GammaValue:
    """A Gamma_p value as a residue mod p^M. Gamma_p values are always p-adic units."""

    residue: int
    p: int
    M: int

    def __post_init__(self) -> None:
        if not 0 <= self.residue < self.p**self.M:
            raise ValueError("residue out of range")
        if self.residue % self.p == 0:
            raise ValueError("Gamma_p values are p-adic units")


def _check_modulus(p: int, M: int) -> int:
    if not is_prime(p):
        raise PrimeRequiredError(f"p must be prime, got {p}")
    if M < 1:
        raise ValueError(f"precision exponent must be positive, got {M}")
    pm = p**M
    if pm > PRECISION_CAP:
        raise PrecisionCapError(f"p^M = {pm} exceeds the cap {PRECISION_CAP}")
    return pm


@lru_cache(maxsize=None)
def _gamma_product(n: int, p: int, pm: int) -> int:
    # (-1)^n * prod_{0<j<n, p!|j} j mod pm, for 0 <= n < pm
    acc = 1
    for j in range(1, n):
        if j % p:
            acc = acc * j % pm
    if n % 2:
        acc = pm - acc if acc else 0
    return acc % pm


def gamma_p(x: Rational, p: int, M: int) -> GammaValue:
    """Gamma_p at a p-adic integer rational, via its integer representative mod p^M."""
    pm = _check_modulus(p, M)
    x = Fraction(x)
    if x.denominator % p == 0:
        raise PadicDenominatorError(f"{x} is not a p-adic integer for p = {p}")
    return GammaValue(residue=_gamma_product(residue(x, p, M), p, pm), p=p, M=M)


def gamma_quotient(numer: Iterable[Rational], denom: Iterable[Rational], p: int, M: int) -> int:
    """Residue mod p^M of prod Gamma_p(a) over numer divided by prod Gamma_p(b) over denom."""
    pm = p**M
    top = bottom = 1
    for a in numer:
        top = top * gamma_p(a, p, M).residue % pm
    for b in denom:
        bottom = bottom * gamma_p(b, p, M).residue % pm
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
