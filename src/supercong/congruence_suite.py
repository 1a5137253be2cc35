"""Supercongruence claims verified as exact p-adic valuation bounds.

Every verifier builds both sides of a congruence in exact arithmetic,
measures v_p(lhs - rhs) and compares it with the exponent the claim
requires. Violated hypotheses yield skipped reports with a reason, so a
grid run can tell "out of hypothesis" from "counterexample". Identity
claims (exact equalities rather than congruences) report INFINITE when
the identity holds and 0 when it does not. Every claim at a prime p and
power r runs through one driver, `_verify`, which times it, applies its
hypotheses and the term guard, and builds its report.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial

from .dwork import (
    DashParams,
    dash,
    dash_closed_form,
    dash_iter,
    dash_iterates,
    dash_period,
)
from .exact_core import (
    INFINITE,
    PrimeRequiredError,
    Rational,
    Valuation,
    is_prime,
    residue,
    valuation,
)
from .hyper_wz import (
    _boundary_pole,
    half_pole_index,
    harmonic,
    pochhammer,
    sum_F,
    sum_G_boundary,
    wz_residual,
)
from .padic_gamma import PrecisionCapError, gamma_quotient, pochhammer_factorization

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

TERM_GUARD = 20_000
DEFAULT_SEED = 12_345

ParamItems = tuple[tuple[str, int | str], ...]


class ResourceGuardError(RuntimeError):
    """A requested run exceeds the desk-scale guardrails and force is not set."""


# `_verify` attaches an error report to these and a batch keeps it; both read this one tuple
_CAPACITY_ERRORS = (ResourceGuardError, PrecisionCapError)


class Family(Enum):
    """Named supercongruence families.

    VH_1_2:  sum of (8k+1)((1/4)_k/(1)_k)^4 to (p-1)/4 against
             p * Gamma_p(1/2)Gamma_p(1/4)/Gamma_p(3/4), exponent 3, p = 1 mod 4.
    SW_1_3:  the same summand to (3p-1)/4 against
             -(3/2) p^2 * Gamma_p(1/2)Gamma_p(1/4)/Gamma_p(3/4), exponent 4, p = 3 mod 4.
    PTW_1_4: sum of ((2k+alpha)/alpha)((alpha)_k/(1)_k)^4 to p-1 against
             p^2 a*(2a*-1) Gamma_p(1-2a)/(Gamma_p(1+a)Gamma_p(1-a)^3), exponent 4,
             for odd p and p-adic integer alpha with <-alpha>_p >= (p+1)/2.
    GZ_1_5:  sum of (8k+1)(1/4)_k^3(1/2)_k/((1)_k^3(3/4)_k) to (p^r-1)/2 against
             p^r, exponent r+3, p = 1 mod 4.
    C2_1_9:  sum of (4k+1)((1/2)_k/(1)_k)^4 to p^r-1 against p^r, exponent r+3,
             p >= 5.

    Every left side is a scaled hyper_wz.sum_F partial sum.
    """

    VH_1_2 = "VH_1_2"
    SW_1_3 = "SW_1_3"
    PTW_1_4 = "PTW_1_4"
    GZ_1_5 = "GZ_1_5"
    C2_1_9 = "C2_1_9"


class LemmaCheck(Enum):
    """Supporting identities and congruences behind the main claim."""

    DASH_CLOSED_FORM = "dash-closed-form"
    DASH_ITERATES = "dash-iterates"
    DASH_PERIOD = "dash-period"
    DASH_LEAST_RESIDUE = "dash-least-residue"
    DASH_MAX_MULTIPLE = "dash-max-multiple"
    POCHHAMMER_UNIT = "pochhammer-unit"
    HALF_SHIFT_RATIO = "half-shift-ratio"
    HARMONIC_SQUARE_SCALED = "harmonic-square-scaled"
    HARMONIC_SHIFT = "harmonic-shift"
    SUM_F_DASH_POINT = "sum-f-dash-point"
    SUM_G_WINDOW = "sum-g-window"
    HARMONIC_PRIME = "harmonic-prime"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one claim.

    A verified report carries the observed valuation and the required
    exponent; its verdict is derived from them and never stored. A skipped
    report carries only a reason. An informational report carries an
    observation but no verdict. For claims of exact equality the observation
    is INFINITE when the identity holds and 0 when it fails; an accidental
    high valuation of a wrong value is never reported as partial success. An
    error report carries only the capacity error that stopped its claim in a
    batch. `outcome` names which of these a report is.
    """

    claim: str
    params: ParamItems
    required_exponent: int | None = None
    observed_valuation: Valuation | None = None
    skipped_reason: str | None = None
    informational: bool = False
    elapsed_ms: float = 0.0
    error: str | None = None

    def __post_init__(self) -> None:
        numbers = (self.required_exponent, self.observed_valuation)
        if self.error is not None:
            if numbers != (None, None) or self.skipped_reason is not None:
                raise ValueError("an error report carries only its message")
        elif self.skipped_reason is not None:
            if self.observed_valuation is not None:
                raise ValueError("a skipped report carries no observation")
        elif None in numbers:
            raise ValueError("a verified or informational report needs an observation")

    @property
    def outcome(self) -> str:
        """ERROR, SKIP, INFO, or PASS/FAIL as the observation meets the exponent or not."""
        if self.error is not None:
            return "ERROR"
        if self.skipped_reason is not None:
            return "SKIP"
        if self.informational:
            return "INFO"
        return "PASS" if self.observed_valuation >= self.required_exponent else "FAIL"

    @property
    def passed(self) -> bool | None:
        """The verdict of a verified report; None for the other outcomes."""
        return {"PASS": True, "FAIL": False}.get(self.outcome)


def canonical_sort(reports: list[VerificationReport]) -> list[VerificationReport]:
    """Reports in canonical order (claim id, then parameter tuple)."""
    return sorted(reports, key=lambda rep: (rep.claim, rep.params))


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def _as_int(q: Rational, what: str) -> int:
    q = Fraction(q)
    if q.denominator != 1:
        raise ValueError(f"{what} is not an integer: {q}")
    return q.numerator


def _terms(p: int, r: int) -> int | str:
    """p^r, or the text "p^r" once its floor(r log10 p) + 1 digits pass str()'s 4 300 limit."""
    return p**r if r * math.log10(p) < 4_300 else f"{p}^{r}"


def _verify(
    claim: str,
    ident: ParamItems,
    p: int,
    r: int,
    force: bool,
    skip: Callable[[], str | None],
    observe: Callable[[], tuple[int, Valuation]],
    informational: bool = False,
) -> VerificationReport:
    """Run one claim at (p, r) and build its report.

    A reason from skip() makes a skipped report. Otherwise the p^r-term guard
    applies unless forced, and observe() returns (required, observed). A
    capacity error is re-raised with the claim's error report attached as
    `report`, so that a batch can keep it and go on.
    """
    t0 = time.perf_counter()
    if not is_prime(p):
        raise PrimeRequiredError(f"p must be prime, got {p}")
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    reason = skip()
    if reason is not None:
        return VerificationReport(claim, ident, skipped_reason=reason, elapsed_ms=_ms(t0))
    try:
        # p >= 2, so every r past the guard's bit length is over it without building p^r
        if not force and (r > TERM_GUARD.bit_length() or p**r > TERM_GUARD):
            raise ResourceGuardError(
                f"{_terms(p, r)} terms exceeds the {TERM_GUARD}-term guard; set force to override"
            )
        required, observed = observe()
    except _CAPACITY_ERRORS as exc:
        error = f"{type(exc).__name__}: {exc}"
        exc.report = VerificationReport(claim, ident, elapsed_ms=_ms(t0), error=error)
        raise
    return VerificationReport(
        claim, ident, required, observed, informational=informational, elapsed_ms=_ms(t0)
    )


def _exact(holds: bool) -> Valuation:
    """The observation of an exact identity: INFINITE when it holds, 0 when it fails."""
    return INFINITE if holds else 0


def _identity_report(
    claim: str, ident: ParamItems, holds: Callable[[], bool]
) -> VerificationReport:
    """Report one exact identity at required exponent 1, timing only the holds() call."""
    t0 = time.perf_counter()
    observed = _exact(holds())
    return VerificationReport(claim, ident, 1, observed, elapsed_ms=_ms(t0))


def _dash_ident(params: DashParams, p: int, r: int) -> ParamItems:
    return (("c", params.c), ("d", params.d), ("s", params.s), ("p", p), ("r", r))


def _residue_gap_valuation(lhs: Rational, rhs_residue: int, p: int, m: int) -> Valuation:
    """Valuation of lhs - rhs, both known only mod p^m; capped at m."""
    gap = (residue(lhs, p, m) - rhs_residue) % p**m
    if gap == 0:
        return m
    return valuation(Fraction(gap), p)


def _gamma_side_gap(
    lhs: Rational, coef: Rational, numer: list[Rational], denom: list[Rational], p: int, m: int
) -> tuple[int, Valuation]:
    """(m, v_p(lhs - coef * prod Gamma_p(numer) / prod Gamma_p(denom))), compared mod p^m."""
    rhs_residue = residue(coef, p, m) * gamma_quotient(numer, denom, p, m) % p**m
    return m, _residue_gap_valuation(lhs, rhs_residue, p, m)


def _below_five(params: DashParams, p: int, r: int) -> str | None:
    return f"p={p} is below 5" if p < 5 else None


def _outside_dash_class(params: DashParams, p: int, r: int) -> str | None:
    if p == 2:
        return "p=2 is even"
    if p % params.d != params.s:
        return f"p={p} is not congruent to {params.s} mod {params.d}"
    return None


def _not_padic_integer(params: DashParams, p: int, r: int) -> str | None:
    if p == 2:
        return "p=2 is even"
    return "alpha is not a p-adic integer" if params.d % p == 0 else None


def _theorem_skip_reason(params: DashParams, p: int, r: int) -> str | None:
    """The first violated hypothesis of the main claim, or None."""
    reason = _below_five(params, p, r) or _outside_dash_class(params, p, r)
    if reason is not None:
        return reason
    reasons = []
    if residue(dash_iter(HALF + params.alpha, p, r), p, 1) == 0:
        reasons.append(f"(1/2+alpha)^(*{r}) = 0 mod p")
    if residue(HALF + dash_iter(params.alpha, p, r), p, 1) == 0:
        reasons.append(f"1/2+alpha^(*{r}) = 0 mod p")
    if reasons:
        return "; ".join(reasons)
    return None


def _harmonic_length(alpha: Fraction, p: int, r: int) -> int:
    """n = alpha^(*r) p - alpha^(*(r-1)), the length of the theorem's harmonic number."""
    return _as_int(dash_iter(alpha, p, r) * p - dash_iter(alpha, p, r - 1), "harmonic length")


def _g_window(alpha: Fraction, p: int, r: int) -> Rational:
    """a^3/(1/2+alpha)^(*r) * p^(r+2) * H^(2)_n, a = alpha^(*r): the theorem's harmonic term."""
    asr = dash_iter(alpha, p, r)
    scale = asr**3 / dash_iter(HALF + alpha, p, r) * p ** (r + 2)
    return scale * harmonic(_harmonic_length(alpha, p, r), 2)


def _observe_theorem(params: DashParams, p: int, r: int) -> tuple[int, Valuation]:
    alpha = params.alpha
    rhs = dash_iter(alpha, p, r) * p**r - _g_window(alpha, p, r)
    return r + 3, valuation(sum_F(alpha, p**r) - rhs, p)


def verify_theorem(params: DashParams, p: int, r: int, force: bool = False) -> VerificationReport:
    """Check the central congruence for alpha = c/d at (p, r).

    lhs is the exact sum of F(alpha, k) over k < p^r; rhs is
    a p^r - a^3/(1/2+alpha)^(*r) * p^(r+2) * H^(2)_n with a = alpha^(*r)
    and n = alpha^(*r) p - alpha^(*(r-1)). Required exponent r + 3.
    """
    skip = partial(_theorem_skip_reason, params, p, r)
    observe = partial(_observe_theorem, params, p, r)
    return _verify("theorem", _dash_ident(params, p, r), p, r, force, skip, observe)


def verify_corollary(p: int, r: int, force: bool = False) -> VerificationReport:
    """Check sum of (8k+1)(1/4)_k^3(1/2)_k/((1)_k^3(3/4)_k) over k < p^r
    against 3 p^r + (27/4) p^(3r) H^(2)_((p^r-3)/4), exponent r + 3.

    Needs p = 3 mod 4 and odd r.
    """

    def skip() -> str | None:
        if p % 4 != 3:
            return f"p={p} is not 3 mod 4"
        return f"r={r} is even" if r % 2 == 0 else None

    def observe() -> tuple[int, Valuation]:
        lhs = 4 * sum_F(QUARTER, p**r)
        h_term = Fraction(27, 4) * p ** (3 * r) * harmonic((p**r - 3) // 4, 2)
        return r + 3, valuation(lhs - 3 * p**r - h_term, p)

    return _verify("corollary", (("p", p), ("r", r)), p, r, force, skip, observe)


def _family_skip_reason(fam: Family, p: int, r: int, alpha: Fraction | None) -> str | None:
    if fam in (Family.VH_1_2, Family.GZ_1_5) and p % 4 != 1:
        return f"p={p} is not 1 mod 4"
    if fam is Family.SW_1_3 and p % 4 != 3:
        return f"p={p} is not 3 mod 4"
    if fam is Family.PTW_1_4 and p == 2:
        return "p=2 is even"
    if fam is Family.C2_1_9 and p < 5:
        return f"p={p} is below 5"
    if fam in (Family.VH_1_2, Family.SW_1_3, Family.PTW_1_4) and r != 1:
        return f"r={r} is not 1"
    if fam is not Family.PTW_1_4:
        return None
    if valuation(alpha, p) < 0:
        return "alpha is not a p-adic integer"
    res = residue(-alpha, p, 1)
    return f"residue of -alpha is {res}, below (p+1)/2" if res < (p + 1) // 2 else None


def _gz_gap_valuation(p: int, r: int) -> Valuation:
    """v_p of the GZ_1_5 sum minus p^r."""
    return valuation(4 * sum_F(QUARTER, (p**r - 1) // 2 + 1) - p**r, p)


def _observe_family(fam: Family, p: int, r: int, alpha: Fraction | None) -> tuple[int, Valuation]:
    if fam is Family.VH_1_2:
        lhs = 4 * sum_F(QUARTER, (p + 3) // 4, QUARTER)
        return _gamma_side_gap(lhs, p, [HALF, QUARTER], [Fraction(3, 4)], p, 3)
    if fam is Family.SW_1_3:
        lhs = 4 * sum_F(QUARTER, (3 * p + 3) // 4, QUARTER)
        coef = Fraction(-3, 2) * p * p
        return _gamma_side_gap(lhs, coef, [HALF, QUARTER], [Fraction(3, 4)], p, 4)
    if fam is Family.PTW_1_4:
        lhs = sum_F(alpha, p, alpha) / alpha
        astar = dash(alpha, p)
        coef = p * p * astar * (2 * astar - 1)
        return _gamma_side_gap(lhs, coef, [1 - 2 * alpha], [1 + alpha] + [1 - alpha] * 3, p, 4)
    if fam is Family.GZ_1_5:
        return r + 3, _gz_gap_valuation(p, r)
    return r + 3, valuation(2 * sum_F(HALF, p**r) - p**r, p)


def verify_family(
    family: Family | str,
    p: int,
    r: int,
    alpha: Rational | None = None,
    force: bool = False,
) -> VerificationReport:
    """Check one named family at (p, r); PTW_1_4 also needs alpha.

    Families with Gamma_p right sides are compared as residues at the working
    precision, so their observed valuation is capped at the required exponent.
    The power-of-p families are exact and may observe more.
    """
    fam = Family(family)
    ident: ParamItems = (("family", fam.value), ("p", p), ("r", r))
    if fam is Family.PTW_1_4:
        if alpha is None:
            raise ValueError("PTW_1_4 requires alpha")
        alpha = Fraction(alpha)
        ident += (("alpha", str(alpha)),)
    elif alpha is not None:
        raise ValueError(f"{fam.value} takes no alpha")
    skip = partial(_family_skip_reason, fam, p, r, alpha)
    observe = partial(_observe_family, fam, p, r, alpha)
    return _verify(f"family.{fam.value}", ident, p, r, force, skip, observe)


def _iterates_match(params: DashParams, p: int, ns: list[int] | range) -> bool:
    """The n-th dash iterate of alpha equals the closed form <s^-n c>_d / d at every n in ns."""
    iterates = dash_iterates(params.alpha, p, max(ns))
    return all(iterates[n] == dash_closed_form(params, n) for n in ns)


def _check_dash_closed_form(params: DashParams, p: int, r: int) -> tuple[int, Valuation]:
    return 1, _exact(_iterates_match(params, p, [1]))


def _check_dash_iterates(params: DashParams, p: int, r: int) -> tuple[int, Valuation]:
    ns = range(1, max(r, dash_period(params.d, params.s)) + 1)
    return 1, _exact(_iterates_match(params, p, ns))


def _check_dash_period(params: DashParams, p: int, r: int) -> tuple[int, Valuation]:
    iterates = dash_iterates(params.alpha, p, dash_period(params.d, params.s))
    # the orbit returns to alpha after exactly one period, and not before
    return 1, _exact(iterates[-1] == params.alpha and params.alpha not in iterates[1:-1])


def _check_dash_residue(params: DashParams, p: int, r: int) -> tuple[int, Valuation]:
    alpha = params.alpha
    shifted = (alpha + residue(-alpha, p, r)) / p**r
    return 1, _exact(_iterates_match(params, p, [r]) and dash_iter(alpha, p, r) == shifted)


def _check_dash_max_multiple(params: DashParams, p: int, r: int) -> tuple[int, Valuation]:
    # vacuously true at r = 1: there is no j to check
    iterates = dash_iterates(params.alpha, p, r)
    multiple = iterates[r] * p**r  # alpha^(*r) p^(r - j), divided by p as j steps up
    for j in range(r - 1):
        bound = _as_int(multiple - iterates[j], "candidate range end")
        claimed = _as_int(multiple - iterates[j + 1] * p, "claimed maximum")
        # claimed = 0 is the degenerate case: no multiple of p in [1, bound]
        if claimed != p * (bound // p):
            return 1, _exact(False)
        multiple /= p
    return 1, _exact(True)


def _check_pochhammer_unit(params: DashParams, p: int, r: int) -> tuple[int, Valuation]:
    """Split (alpha)_{p^r} into p-power times unit, checked at precision 2.

    When the r-th dash iterate is a unit, (alpha)_{p^r} itself is compared
    with p^E * unit. When it is divisible by p, E holds its p-power, and the
    unit part of (alpha)_{p^r} is compared with the packaged unit.
    """
    alpha = params.alpha
    exponent, unit = pochhammer_factorization(alpha, p, r, 2)
    if residue(dash_iter(alpha, p, r), p, 1) != 0:
        diff = pochhammer(alpha, p**r) - Fraction(unit) * p**exponent
        return exponent + 2, valuation(diff, p)
    scaled = pochhammer(alpha, p**r) / p**exponent
    if valuation(scaled, p) != 0:
        return 2, 0
    return 2, _residue_gap_valuation(scaled, unit, p, 2)


def _check_half_shift_ratio(params: DashParams, p: int, r: int) -> tuple[int, Valuation]:
    alpha = params.alpha
    pr = p**r
    a = residue(-alpha, p, r)
    asr = dash_iter(alpha, p, r)
    shifted = (2 * asr - 1) / (2 * asr + 1)
    split = a >= (pr + 1) // 2
    worst: Valuation = INFINITE
    ratio = Fraction(1)
    for l in range(a):
        expected = shifted if split and l >= a - (pr - 1) // 2 else Fraction(1)
        worst = min(worst, valuation(ratio - expected, p))
        ratio *= (HALF + alpha + l) / (HALF + alpha + pr + l)
    return 1, worst


def _harmonic_halves(m: int, scale: Rational, p: int) -> Valuation:
    """The smaller of v_p(scale * H^(2)_n) at n = m - 1 and n = (m - 1)/2."""
    return min(valuation(scale * harmonic(n, 2), p) for n in (m - 1, (m - 1) // 2))


def _check_harmonic_square_scaled(params: DashParams, p: int, r: int) -> tuple[int, Valuation]:
    return 3, _harmonic_halves(p**r, p ** (2 * r), p)


def _check_harmonic_shift(params: DashParams, p: int, r: int) -> tuple[int, Valuation]:
    alpha = params.alpha
    a = residue(-alpha, p, r)
    scale = p ** (2 * r)
    window, h = harmonic(a, 2, alpha), (p**r - 1) // 2
    v_shift = valuation(scale * window - p**2 * harmonic(_harmonic_length(alpha, p, r), 2), p)
    # the tail 1/(alpha + a - l)^2 over l = 1..h, summed upwards from alpha + a - h
    return 3, min(v_shift, valuation(scale * harmonic(h, 2, alpha + a - h), p))


def _check_sum_f_dash_point(params: DashParams, p: int, r: int) -> tuple[int, Valuation]:
    point = dash_iter(params.alpha, p, r) * p**r
    return r + 3, valuation(sum_F(point, p**r) - point, p)


def _check_sum_g_window(params: DashParams, p: int, r: int) -> tuple[int, Valuation]:
    alpha = params.alpha
    lhs = sum_G_boundary(alpha, residue(-alpha, p, r), p**r)
    return r + 3, valuation(lhs - _g_window(alpha, p, r), p)


def _check_harmonic_prime(params: DashParams, p: int, r: int) -> tuple[int, Valuation]:
    return 1, _harmonic_halves(p, 1, p)


# check -> (skip reason, (required, observed)), both taking (params, p, r)
_LEMMA_CHECKS = {
    LemmaCheck.DASH_CLOSED_FORM: (_outside_dash_class, _check_dash_closed_form),
    LemmaCheck.DASH_ITERATES: (_outside_dash_class, _check_dash_iterates),
    LemmaCheck.DASH_PERIOD: (_outside_dash_class, _check_dash_period),
    LemmaCheck.DASH_LEAST_RESIDUE: (_outside_dash_class, _check_dash_residue),
    LemmaCheck.DASH_MAX_MULTIPLE: (_theorem_skip_reason, _check_dash_max_multiple),
    LemmaCheck.POCHHAMMER_UNIT: (_not_padic_integer, _check_pochhammer_unit),
    LemmaCheck.HALF_SHIFT_RATIO: (_theorem_skip_reason, _check_half_shift_ratio),
    LemmaCheck.HARMONIC_SQUARE_SCALED: (_below_five, _check_harmonic_square_scaled),
    LemmaCheck.HARMONIC_SHIFT: (_theorem_skip_reason, _check_harmonic_shift),
    LemmaCheck.SUM_F_DASH_POINT: (_theorem_skip_reason, _check_sum_f_dash_point),
    LemmaCheck.SUM_G_WINDOW: (_theorem_skip_reason, _check_sum_g_window),
    LemmaCheck.HARMONIC_PRIME: (_below_five, _check_harmonic_prime),
}

# the dash orbit checks sum no p^r terms, so the term guard spares them; their cost grows
# with r and the digits of p^r (they walk r steps and build powers of p up to p^r)
_ORBIT_CHECKS = frozenset(check for check in LemmaCheck if check.value.startswith("dash-"))


def verify_lemma(
    name: LemmaCheck | str,
    params: DashParams,
    p: int,
    r: int,
    force: bool = False,
) -> VerificationReport:
    """Check one supporting identity or congruence at (params, p, r).

    Each check applies its own hypotheses and reports a skip outside them.
    DASH_MAX_MULTIPLE quantifies over j in [0, r-2] and so passes vacuously
    at r = 1. The dash-* checks run whatever p^r is; the others keep the
    term guard.
    """
    check = LemmaCheck(name)
    skip, observe = (partial(fn, params, p, r) for fn in _LEMMA_CHECKS[check])
    force = force or check in _ORBIT_CHECKS
    return _verify(f"lemma.{check.value}", _dash_ident(params, p, r), p, r, force, skip, observe)


def probe_conjecture_7_1(p: int, r: int, force: bool = False) -> VerificationReport:
    """Report how far (GZ_1_5 lhs - p^r) goes beyond the proven exponent.

    The open question is whether the congruence holds at exponent r + 5 for
    p > 5. The report is informational: it records the observation against
    that target and never carries a verdict.
    """

    def skip() -> str | None:
        if p <= 5:
            return f"p={p} is not above 5"
        return _family_skip_reason(Family.GZ_1_5, p, r, None)

    def observe() -> tuple[int, Valuation]:
        return r + 5, _gz_gap_valuation(p, r)

    ident: ParamItems = (("p", p), ("r", r))
    return _verify("conjecture-probe", ident, p, r, force, skip, observe, informational=True)


# (d, s, alpha, e -> the tabulated (alpha^(*r), (1/2 + alpha)^(*r))) with e = (-1)^r
_TABLE_1: tuple[tuple[int, int, Fraction, Callable[[int], tuple[Fraction, Fraction]]], ...] = (
    (2, 1, Fraction(1, 2), lambda e: (Fraction(1, 2), Fraction(1))),
    (3, 1, Fraction(1, 3), lambda e: (Fraction(1, 3), Fraction(5, 6))),
    (3, 1, Fraction(2, 3), lambda e: (Fraction(2, 3), Fraction(1, 6))),
    (3, 1, Fraction(1, 6), lambda e: (Fraction(1, 6), Fraction(2, 3))),
    (3, 1, Fraction(5, 6), lambda e: (Fraction(5, 6), Fraction(1, 3))),
    (3, 2, Fraction(1, 3), lambda e: (Fraction(3 - e, 6), Fraction(3 + 2 * e, 6))),
    (3, 2, Fraction(2, 3), lambda e: (Fraction(3 + e, 6), Fraction(3 - 2 * e, 6))),
    (3, 2, Fraction(1, 6), lambda e: (Fraction(3 - 2 * e, 6), Fraction(3 + e, 6))),
    (3, 2, Fraction(5, 6), lambda e: (Fraction(3 + 2 * e, 6), Fraction(3 - e, 6))),
    (4, 1, Fraction(1, 4), lambda e: (Fraction(1, 4), Fraction(3, 4))),
    (4, 1, Fraction(3, 4), lambda e: (Fraction(3, 4), Fraction(1, 4))),
    (4, 3, Fraction(1, 4), lambda e: (Fraction(2 - e, 4), Fraction(2 + e, 4))),
    (4, 3, Fraction(3, 4), lambda e: (Fraction(2 + e, 4), Fraction(2 - e, 4))),
)


def _effective_class(x: Rational, d: int, s: int) -> DashParams:
    """Dash parameters for x in (0, 1) given that p = s mod d and p is odd.

    The denominator of x divides 2d in every tabulated case, so the residue
    of p modulo it is pinned by s and the parity of p.
    """
    x = Fraction(x)
    s_odd = s if s % 2 else s + d
    if 2 * d % x.denominator != 0:
        raise ValueError(f"class of p mod {x.denominator} is not determined by s mod {d}")
    return DashParams(x.numerator, x.denominator, s_odd % x.denominator)


def _closed_iterate_in_class(x: Rational, d: int, s: int, r: int) -> Rational:
    """r-th dash iterate of x > 0 by closed form, for any prime p = s mod d.

    Integer shifts leave the iterate unchanged: (y+1)^* = y^* whenever
    y is not 0 mod p, and every tabulated shift has unit numerator, so this
    reduces x into [0, 1). The fixed point 1 maps to 1.
    """
    x = Fraction(x)
    if x == 1:
        return Fraction(1)
    while x > 1:
        x -= 1
    return dash_closed_form(_effective_class(x, d, s), r)


def _table_row_holds(
    d: int, s: int, alpha: Fraction, expected: Callable[[int], tuple[Fraction, Fraction]], r: int
) -> bool:
    """The closed-form r-th iterates of alpha and 1/2 + alpha equal the tabulated pair."""
    got = tuple(_closed_iterate_in_class(x, d, s, r) for x in (alpha, HALF + alpha))
    return got == expected((-1) ** r)


def reproduce_table_1() -> list[VerificationReport]:
    """Check the tabulated dash iterates of alpha and 1/2 + alpha.

    13 parameter rows, each at r in {1, 2}: the closed-form iterates must
    equal the tabulated values, which depend on r only through (-1)^r.
    """
    reports = []
    for index, (d, s, alpha, expected) in enumerate(_TABLE_1, 1):
        for r in (1, 2):
            ident: ParamItems = (
                ("row", f"{index:02d}"),
                ("d", d),
                ("s", s),
                ("alpha", str(alpha)),
                ("r", r),
            )
            holds = partial(_table_row_holds, d, s, alpha, expected, r)
            reports.append(_identity_report("table1", ident, holds))
    return canonical_sort(reports)


THEOREM_ROWS: tuple[DashParams, ...] = tuple(
    _effective_class(alpha, d, s) for d, s, alpha, _ in _TABLE_1
)


def admissible_primes(
    params: DashParams,
    r: int,
    count: int = 2,
    p_min: int = 5,
    p_max: int = 2_000,
) -> list[int]:
    """The first `count` primes satisfying every hypothesis at (params, r)."""
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    found: list[int] = []
    for p in range(max(5, p_min), p_max + 1):
        if len(found) == count:
            break
        if is_prime(p) and _theorem_skip_reason(params, p, r) is None:
            found.append(p)
    if len(found) < count:
        raise ValueError(f"fewer than {count} admissible primes up to {p_max}")
    return found


def theorem_grid(
    r_values: tuple[int, ...] = (1, 2),
    count: int = 2,
    p_min: int = 5,
    p_max: int = 2_000,
) -> list[tuple[DashParams, int, int]]:
    """(params, p, r) tasks: each of THEOREM_ROWS at each distinct, positive r, at its primes."""
    if any(r < 1 for r in r_values):
        raise ValueError("r values must be positive")
    if len(set(r_values)) < len(r_values):
        raise ValueError("r values must be distinct")
    if p_min > p_max:
        raise ValueError("empty prime range")
    tasks = []
    for params in THEOREM_ROWS:
        for r in r_values:
            for p in admissible_primes(params, r, count, p_min, p_max):
                tasks.append((params, p, r))
    return tasks


def _run_claim(task: Callable[[], VerificationReport]) -> VerificationReport:
    """One batch task's report; a capacity error becomes the claim's error report."""
    try:
        return task()
    except _CAPACITY_ERRORS as exc:
        return exc.report


def _run_tasks(tasks: list[partial], parallelism: int) -> list[VerificationReport]:
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    # a fork pool starts every worker at its first submit, so never ask for more than tasks
    workers = min(parallelism, len(tasks))
    if workers <= 1:
        return canonical_sort([_run_claim(task) for task in tasks])
    # imported here: the pool and multiprocessing add ~2 MB and tens of ms to every start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (workers * 4))
        return canonical_sort(list(pool.map(_run_claim, tasks, chunksize=chunk)))


def run_theorem_batch(
    tasks: list[tuple[DashParams, int, int]],
    parallelism: int = 1,
    force: bool = False,
) -> list[VerificationReport]:
    """Verify the central claim over a task grid, in canonical report order.

    Verification is pure, so the ordering (and hence the emitted stream) is
    independent of the parallelism degree. A claim stopped by a capacity
    error yields an error report; the other claims still report.
    """
    return _run_tasks([partial(verify_theorem, *task, force) for task in tasks], parallelism)


def run_lemma_batch(
    tasks: list[tuple[DashParams, int, int]],
    parallelism: int = 1,
    force: bool = False,
) -> list[VerificationReport]:
    """Verify every supporting check over a task grid, canonically ordered.

    Capacity errors become error reports as in run_theorem_batch.
    """
    jobs = [partial(verify_lemma, check, *task, force) for check in LemmaCheck for task in tasks]
    return _run_tasks(jobs, parallelism)


def wz_fuzz_cases(count: int = 200, seed: int = DEFAULT_SEED) -> list[tuple[Rational, int]]:
    """Seeded admissible (x, k) pairs for the pair-identity residual.

    x = num/den with 0 < |num| <= 1 000 and 1 <= den <= 1 000, and
    0 <= k <= 25. Admissible means all four terms of the residual are defined:
    x is nonzero (term_G's rule) and half_pole_index(x, k + 1) is None, the
    rule _core applies to (1/2 + x)_k at k + 1, the largest k the residual takes.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = random.Random(seed)
    cases: list[tuple[Rational, int]] = []
    while len(cases) < count:
        num = rng.randint(-1_000, 1_000)
        den = rng.randint(1, 1_000)
        k = rng.randint(0, 25)
        x = Fraction(num, den)
        if x != 0 and half_pole_index(x, k + 1) is None:
            cases.append((x, k))
    return cases


def run_wz_fuzz(count: int = 200, seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    """Check the pair identity F(x+1,k) - F(x,k) = G(x,k+1) - G(x,k) exactly."""
    reports = []
    for index, (x, k) in enumerate(wz_fuzz_cases(count, seed)):
        ident: ParamItems = (("case", f"{index:03d}"), ("x", str(x)), ("k", k))
        reports.append(_identity_report("wz.residual", ident, lambda: wz_residual(x, k) == 0))
    return canonical_sort(reports)


def telescope_cases(count: int = 50, seed: int = DEFAULT_SEED) -> list[tuple[Rational, int, int]]:
    """Seeded admissible (alpha, a, N) triples for the telescoping identity.

    1 <= a <= 12 and 1 <= N <= 60. Admissible means sum_G_boundary's pole check,
    _boundary_pole, returns None. That check covers both sum_F calls too, so every
    G term and both sums are defined.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = random.Random(seed)
    cases: list[tuple[Rational, int, int]] = []
    while len(cases) < count:
        num = rng.randint(-60, 60)
        den = rng.randint(1, 20)
        a = rng.randint(1, 12)
        n = rng.randint(1, 60)
        x = Fraction(num, den)
        if _boundary_pole(x, a, n) is None:
            cases.append((x, a, n))
    return cases


def run_telescope_fuzz(count: int = 50, seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    """Check sum_F(x, N) - sum_F(x+a, N) + sum of G(x+l, N) = 0 exactly."""
    reports = []
    for index, (x, a, n) in enumerate(telescope_cases(count, seed)):
        ident: ParamItems = (("case", f"{index:02d}"), ("alpha", str(x)), ("a", a), ("N", n))
        reports.append(
            _identity_report(
                "wz.telescope",
                ident,
                lambda: sum_F(x, n) - sum_F(x + a, n) + sum_G_boundary(x, a, n) == 0,
            )
        )
    return canonical_sort(reports)
