"""Rising factorials, harmonic numbers, and the WZ pair (F, G) with its partial sums.

F(x, k) = (2k + x) (x)_k^3 (1/2)_k / ((1)_k^3 (1/2 + x)_k)
G(x, k) = k^3 (k + 2x) / x^3 * (x)_k^3 (1/2)_k / ((1)_k^3 (1/2 + x)_k)

F and G satisfy F(x+1, k) - F(x, k) = G(x, k+1) - G(x, k) exactly, which lets a
shifted sum of F telescope into a boundary sum of G. F is the d = 1/2 case of the
very-well-poised 5F4 summand that sum_F sums for any d. sum_F, sum_G_boundary and
harmonic run through one kernel, _well_poised_sum, whose term ratio is linear factors
over as many. It sums by exact binary splitting: products of integers over a balanced
tree of term ranges, each range of up to _LEAF terms summed in one integer loop, a common
factor cancelled at each merge above them, and one reduced Fraction at the end. All sums
are exact rationals; summands need not be p-adic integers.

Every pole check is one rule, _zero_factor: (b)_n vanishes iff b + j = 0 for a j < n.
_core, sum_F and _boundary_pole (sum_G_boundary's l-range) apply it, and the fuzz
generators in congruence_suite keep a draw by those same calls.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact_core import Rational


class PochhammerPoleError(ValueError):
    """A denominator (1/2 + x)_k, or (1 + x - d)_k in sum_F, vanishes, or G is taken at x = 0."""


def _zero_factor(b: Rational, n: float) -> int | None:
    # the j < n with b + j = 0, or None: (b)_n vanishes exactly when there is one
    return int(-b) if b.denominator == 1 and 0 <= -b < n else None


def half_pole_index(x: Rational, k: float = math.inf) -> int | None:
    """The j < k (any j >= 0 by default) with 1/2 + x + j = 0, or None: the zero of (1/2+x)_k."""
    return _zero_factor(Fraction(x) + Fraction(1, 2), k)


def pochhammer(x: Rational, k: int) -> Rational:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), with (x)_0 = 1."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    x = Fraction(x)
    acc = Fraction(1)
    for j in range(k):
        acc *= x + j
    return acc


def harmonic(n: int, m: int, x: Rational = 1) -> Rational:
    """Sum of 1/(x + l)^m over l < n, H_n of order m at x = 1; a zero x + l: ZeroDivisionError."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    # the kernel with u = 1 and c_l = 1/((x + l)^m (1 + 2l)): its weight 1 + 2l cancels.
    # x stays an int when it is one, so short sums at x = 1 skip Fraction arithmetic in setup
    uppers, lowers = (x,) * m + (Fraction(1, 2),), (x + 1,) * m + (Fraction(3, 2),)
    return _well_poised_sum(1, Fraction(1, x**m), uppers, lowers, n) if n else Fraction(0)


def _core(x: Rational, k: int) -> Rational:
    # (x)_k^3 (1/2)_k / ((1)_k^3 (1/2+x)_k), the factor F and G share
    j = half_pole_index(x, k)
    if j is not None:
        raise PochhammerPoleError(f"(1/2 + {x})_{k} has a zero factor at j = {j}")
    num = pochhammer(x, k) ** 3 * pochhammer(Fraction(1, 2), k)
    den = pochhammer(Fraction(1), k) ** 3 * pochhammer(Fraction(1, 2) + x, k)
    return num / den


def term_F(x: Rational, k: int) -> Rational:
    """F(x, k), exact."""
    return (2 * k + x) * _core(x, k)


def term_G(x: Rational, k: int) -> Rational:
    """G(x, k), exact; G(x, 0) = 0."""
    core = _core(x, k)  # first, so that a negative k is reported before x = 0
    if x == 0:
        raise PochhammerPoleError("G has a pole at x = 0")
    return Fraction(k**3) * (k + 2 * x) / x**3 * core


def wz_residual(x: Rational, k: int) -> Rational:
    """F(x+1, k) - F(x, k) - G(x, k+1) + G(x, k); exactly zero for admissible inputs."""
    x = Fraction(x)
    return term_F(x + 1, k) - term_F(x, k) - term_G(x, k + 1) + term_G(x, k)


# the most terms _well_poised_sum sums in one loop before it splits a range. Against one-term
# ranges, on sum_F at d = 1/2 and at d = x and on harmonic, 32 takes 0.53-0.57 of the time
# at 40 to 300 terms, 0.61-0.71 at 1 000 and 0.81-0.90 at 10 000; 24 to 48 are within about
# 5% of it, and 128 is 6-30% slower at 1 000 and 10 000 terms (interleaved minima of two
# sweeps, CPython 3.11.7, x86-64)
_LEAF = 32


def _well_poised_sum(u: Rational, c: Rational, uppers: tuple, lowers: tuple, n: int) -> Rational:
    # sum over i < n (n >= 1) of (u + 2i) c_i, c_0 = c, c_(i+1)/c_i = prod(a + i) / prod(b + i)
    # over as many uppers as lowers, no (b + i) zero for i < n - 1. Exact binary splitting
    # (Haible and Papanikolaou, ANTS-III, 1998) in integers, scaled by D, the parameters'
    # common denominator, and by ud, the weight's: a range [l, r) gives (P, Q, T) with
    # P/Q = c_(r-1)/c_(l-1) and T/(Q ud) = sum over the range of (u + 2i) c_i/c_(l-1),
    # taking c_(-1) = c_0. Term i holds the ratio at i - 1, which leads into it, and term 0
    # is (1, 1, u ud). So the lower factor at n - 1 is never formed: the pole checks do not
    # exclude its zero, which would make Q zero. A range of at most _LEAF terms is one loop
    # that folds its terms in order by the merge formula below, without the gcd, taking
    # each repeated factor once as a power. Above that the range splits in two. No merge
    # reads the P of a range that ends at n, so those merges leave it 0. Each merge first
    # divides P1 and Q2 by g = gcd(P1, Q2) (Cheng, Hanrot, Thome, Zima and Zimmermann,
    # ISSAC 2007): g divides both terms of T1 Q2 + P1 T2, so T/Q and P/Q keep their
    # values, and Q stays near the size of the reduced denominator. A zero upper factor
    # makes P1 = 0, so g = |Q2|.
    D = math.lcm(*(q.denominator for q in uppers + lowers))
    tops = [a.numerator * (D // a.denominator) for a in uppers]
    bottoms = [b.numerator * (D // b.denominator) for b in lowers]
    ups = [(a, tops.count(a)) for a in dict.fromkeys(tops)]
    downs = [(b, bottoms.count(b)) for b in dict.fromkeys(bottoms)]
    un, ud = u.as_integer_ratio()

    def split(l: int, r: int) -> tuple[int, int, int]:
        if r - l <= _LEAF:
            P = Q = 1
            T = un if l == 0 else 0
            for i in range(max(l, 1), r):
                s = (i - 1) * D
                for a, e in ups:
                    P *= (a + s) ** e
                q = 1
                for b, e in downs:
                    q *= (b + s) ** e
                T = T * q + P * (un + 2 * i * ud)
                Q *= q
            return P, Q, T
        m = (l + r) // 2
        P1, Q1, T1 = split(l, m)
        P2, Q2, T2 = split(m, r)
        g = math.gcd(P1, Q2)
        P1, Q2 = P1 // g, Q2 // g
        return P1 * P2 if r < n else 0, Q1 * Q2, T1 * Q2 + P1 * T2

    _, Q, T = split(0, n)
    return c * Fraction(T, Q * ud)


def sum_F(x: Rational, N: int, d: Rational = Fraction(1, 2)) -> Rational:
    """Whipple's very-well-poised 5F4 partial sum, exact, by binary splitting over k.

    The sum over k = 0..N-1 of (2k + x) (x)_k^3 (d)_k / ((1)_k^3 (1 + x - d)_k).
    At the default d = 1/2 the summand is F(x, k); at d = x it is
    (2k + x) ((x)_k/(1)_k)^4, the summand of the VH, SW, PTW and C2 families.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    x, d = Fraction(x), Fraction(d)
    b = 1 + x - d
    j = _zero_factor(b, N - 1)
    if j is not None:
        raise PochhammerPoleError(f"(1 + {x} - {d})_{N - 1} has a zero factor at j = {j}")
    return _well_poised_sum(x, 1, (x, x, x, d), (1, 1, 1, b), N)


def _boundary_pole(alpha: Rational, a: int, N: int) -> str | None:
    # why some G(alpha + l, N) with l < a is undefined, or None: x = 0, or a zero factor of
    # some (1/2 + alpha + l)_N, that is of (1/2 + alpha)_(N + a - 1)
    l_zero = _zero_factor(alpha, a)
    if l_zero is not None:
        return f"G has a pole at x = 0 (l = {l_zero})"
    j = half_pole_index(alpha, N + a - 1)
    if j is not None:
        return f"(1/2 + {alpha} + {max(0, j - N + 1)})_{N} has a zero factor"
    return None


def sum_G_boundary(alpha: Rational, a: int, N: int) -> Rational:
    """Sum of G(alpha + l, N) over l = 0..a-1, exact.

    G(alpha + l, N) = N^3 (N + 2 alpha + 2l) h_l, where h_0 = core(alpha, N)/alpha^3 and
    h_(l+1)/h_l = (alpha+N+l)^3 (1/2+alpha+l) / ((alpha+1+l)^3 (1/2+alpha+N+l)), so this
    is sum_F's kernel too. The pole checks rule out every zero lower factor; a zero
    term comes from h_0 or an upper factor, and the ratio keeps it zero.
    """
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    alpha = Fraction(alpha)
    if a == 0:
        return Fraction(0)
    pole = _boundary_pole(alpha, a, N)
    if pole is not None:
        raise PochhammerPoleError(pole)
    half = Fraction(1, 2)
    uppers, lowers = (alpha + N,) * 3 + (half + alpha,), (alpha + 1,) * 3 + (half + alpha + N,)
    return N**3 * _well_poised_sum(N + 2 * alpha, _core(alpha, N) / alpha**3, uppers, lowers, a)
