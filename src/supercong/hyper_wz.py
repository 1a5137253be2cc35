"""Rising factorials, harmonic numbers, and the WZ pair (F, G) with its partial sums.

F(x, k) = (2k + x) (x)_k^3 (1/2)_k / ((1)_k^3 (1/2 + x)_k)
G(x, k) = k^3 (k + 2x) / x^3 * (x)_k^3 (1/2)_k / ((1)_k^3 (1/2 + x)_k)

F and G satisfy F(x+1, k) - F(x, k) = G(x, k+1) - G(x, k) exactly, which lets a
shifted sum of F telescope into a boundary sum of G. F is the d = 1/2 case of
the very-well-poised 5F4 summand that sum_F sums for any d. All sums are computed
as exact rationals; individual summands are allowed to be non p-adic integers.
"""

from __future__ import annotations

from fractions import Fraction

from .exact_core import Rational


class PochhammerPoleError(ValueError):
    """A denominator (1/2 + x)_k, or (1 + x - d)_k in sum_F, vanishes, or G is taken at x = 0."""


def half_pole_index(x: Rational) -> int | None:
    """j >= 0 such that 1/2 + x + j = 0, or None. (1/2+x)_k vanishes iff j < k."""
    t = -(Fraction(x) + Fraction(1, 2))
    if t.denominator == 1 and t >= 0:
        return int(t)
    return None


def _check_term(x: Rational, k: int) -> None:
    # an admissible (x, k) for the pair: k >= 0 and (1/2 + x)_k free of zeros
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    j = half_pole_index(x)
    if j is not None and j < k:
        raise PochhammerPoleError(f"(1/2 + {x})_{k} has a zero factor at j = {j}")


def pochhammer(x: Rational, k: int) -> Rational:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), with (x)_0 = 1."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    x = Fraction(x)
    acc = Fraction(1)
    for j in range(k):
        acc *= x + j
    return acc


def harmonic(n: int, m: int) -> Rational:
    """H_n of order m: sum of 1/k^m for k = 1..n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    return sum((Fraction(1, k**m) for k in range(1, n + 1)), Fraction(0))


def _core(x: Rational, k: int) -> Rational:
    # (x)_k^3 (1/2)_k / ((1)_k^3 (1/2+x)_k); callers have already checked the pole
    num = pochhammer(x, k) ** 3 * pochhammer(Fraction(1, 2), k)
    den = pochhammer(Fraction(1), k) ** 3 * pochhammer(Fraction(1, 2) + x, k)
    return num / den


def term_F(x: Rational, k: int) -> Rational:
    """F(x, k), exact."""
    _check_term(x, k)
    x = Fraction(x)
    return (2 * k + x) * _core(x, k)


def term_G(x: Rational, k: int) -> Rational:
    """G(x, k), exact; G(x, 0) = 0."""
    _check_term(x, k)
    x = Fraction(x)
    if x == 0:
        raise PochhammerPoleError("G has a pole at x = 0")
    return Fraction(k**3) * (k + 2 * x) / x**3 * _core(x, k)


def wz_residual(x: Rational, k: int) -> Rational:
    """F(x+1, k) - F(x, k) - G(x, k+1) + G(x, k); exactly zero for admissible inputs."""
    x = Fraction(x)
    return term_F(x + 1, k) - term_F(x, k) - term_G(x, k + 1) + term_G(x, k)


def sum_F(x: Rational, N: int, d: Rational = Fraction(1, 2)) -> Rational:
    """Whipple's very-well-poised 5F4 partial sum, computed incrementally in O(N) products.

    The sum over k = 0..N-1 of (2k + x) (x)_k^3 (d)_k / ((1)_k^3 (1 + x - d)_k).
    At the default d = 1/2 the summand is F(x, k); at d = x it is
    (2k + x) ((x)_k/(1)_k)^4, the summand of the VH, SW, PTW and C2 families.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    x, d = Fraction(x), Fraction(d)
    b = 1 + x - d
    if b.denominator == 1 and 0 <= -b < N - 1:
        raise PochhammerPoleError(f"(1 + {x} - {d})_{N - 1} has a zero factor at j = {-b}")
    core = Fraction(1)
    total = Fraction(0)
    for k in range(N):
        total += (2 * k + x) * core
        if k < N - 1:
            core *= (x + k) ** 3 * (d + k) / ((1 + k) ** 3 * (b + k))
    return total


def sum_G_boundary(alpha: Rational, a: int, N: int) -> Rational:
    """Sum of G(alpha + l, N) over l = 0..a-1, exact.

    Consecutive values are related by one rational ratio, so the usual cost of a
    full Pochhammer evaluation is paid once, not a times. For admissible input
    G(x, N) is 0 exactly when x is an integer in [-(N-1), -1]. x rises by 1 per
    step and never reaches 0, so once a value is 0 every later one is 0 too, and
    the sum stops there (the ratio's denominator may vanish inside that range).
    """
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    alpha = Fraction(alpha)
    if a == 0:
        return Fraction(0)

    # reject any pole in the whole l-range up front
    if alpha.denominator == 1 and 0 <= -alpha < a:
        raise PochhammerPoleError(f"G has a pole at x = 0 (l = {-alpha})")
    j = half_pole_index(alpha)
    if j is not None and j < N + a - 1:
        bad_l = max(0, j - N + 1)
        raise PochhammerPoleError(f"(1/2 + {alpha} + {bad_l})_{N} has a zero factor")

    half = Fraction(1, 2)
    cur = term_G(alpha, N)
    total = cur
    for l in range(1, a):
        if cur == 0:
            break
        x = alpha + l - 1
        cur *= (N + 2 * x + 2) * (x + N) ** 3 * (half + x)
        cur /= (N + 2 * x) * (x + 1) ** 3 * (half + x + N)
        total += cur
    return total
