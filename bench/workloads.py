"""The four benchmark workloads: seeded inputs and one timed run of each.

Inputs are plain tuples built from the seed alone, so the same seed always
gives the same claims. `run` drives the package through its public API only
(`verify_*`, `probe_conjecture_7_1`, `run_*_fuzz`, `cli.run`, `emit_report`)
and times the work from the first library call to the last byte of the
emitted report stream.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from io import BytesIO
from types import SimpleNamespace

from supercong import cli
from supercong import congruence_suite as cs
from supercong.dwork import DashParams
from supercong.exact_core import is_prime

# The errors `cli.run` maps to exit code 2; each one is a failed claim.
CLAIM_ERRORS = (ValueError, ArithmeticError, RuntimeError)

# Theorem ladder rungs (p, r, admissible (c, d, s) rows). The rows offered at
# one rung share a denominator, so the seed changes the claim but hardly its
# cost: sum_F time depends far more on d than on c.
LADDER = {
    "full": (
        (29, 2, ((1, 4, 1), (3, 4, 1))),
        (37, 2, ((1, 3, 1), (2, 3, 1))),
        (41, 2, ((1, 3, 2), (2, 3, 2))),
        (53, 2, ((1, 3, 2), (2, 3, 2))),
        (5, 5, ((1, 3, 2),)),
        (17, 3, ((1, 3, 2), (2, 3, 2))),
    ),
    "smoke": (
        (29, 2, ((1, 4, 1), (3, 4, 1))),
        (37, 2, ((1, 3, 1), (2, 3, 1))),
    ),
}
# Conjecture probes at r = 2, p = 1 mod 4: (p^2 - 1)/2 + 1 terms each.
PROBES = {"full": (29, 37, 41), "smoke": (29,)}

# Gamma families. M = 4 claims (SW_1_3, PTW_1_4, pochhammer-unit at r = 2)
# reach the 10^6 precision cap at p = 37, M = 3 claims (VH_1_2,
# pochhammer-unit at r = 1) at p = 101; the ranges stop below it.
GAMMA_P_MAX = {"full": (31, 97), "smoke": (13, 13)}
# PTW_1_4 runs at every admissible alpha of the pool. Gamma_p products cost
# the residue of their argument mod p^M, which is as good as random in alpha,
# so drawing alphas by seed would move the run time by about 10%.
PTW_POOL = tuple(
    Fraction(c, d) for d in range(2, 7) for c in range(1, d) if Fraction(c, d).denominator == d
)
ROWS = tuple((row.c, row.d, row.s) for row in cs.THEOREM_ROWS)
# pochhammer-unit takes one seeded row of each denominator: the exact rising
# factorial costs by d, so the draw changes the claims but not their cost
ROWS_BY_DENOMINATOR = tuple(
    tuple(row for row in ROWS if row[1] == d) for d in sorted({row[1] for row in ROWS})
)

LEMMA_GRID_COUNT = {"full": 3, "smoke": 1}
FUZZ_COUNTS = {"full": (1600, 400), "smoke": (40, 10)}


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def ptw_admissible(alpha: Fraction, p: int) -> bool:
    """Whether PTW_1_4 at (p, alpha) is inside its hypotheses (no skip)."""
    if alpha.denominator % p == 0:
        return False
    return -alpha.numerator * pow(alpha.denominator, -1, p) % p >= (p + 1) // 2


def ladder_claims(size: str, pick) -> list[tuple]:
    """Ladder claims with the rows `pick(rows)` returns at each rung."""
    claims = [("theorem", row, p, r) for p, r, rows in LADDER[size] for row in pick(rows)]
    return claims + [("probe", p, 2) for p in PROBES[size]]


def theorem_ladder_inputs(seed: int, size: str = "full") -> tuple:
    rng = random.Random(seed)
    claims = ladder_claims(size, lambda rows: [rng.choice(rows)])
    rng.shuffle(claims)
    return tuple(claims)


def gamma_claims(size: str, pick) -> list[tuple]:
    """Gamma family claims with the pochhammer-unit rows `pick(rows)` returns."""
    cap4, cap3 = GAMMA_P_MAX[size]
    claims = []
    for p in _primes(5, cap3):
        if p % 4 == 1:
            claims.append(("family", "VH_1_2", p, 1, None))
        claims += [
            ("lemma", "pochhammer-unit", row, p, 1)
            for rows in ROWS_BY_DENOMINATOR
            for row in pick(rows)
        ]
    for p in _primes(5, cap4):
        if p % 4 == 3:
            claims.append(("family", "SW_1_3", p, 1, None))
        claims += [
            ("family", "PTW_1_4", p, 1, str(alpha))
            for alpha in PTW_POOL
            if ptw_admissible(alpha, p)
        ]
        claims += [
            ("lemma", "pochhammer-unit", row, p, 2)
            for rows in ROWS_BY_DENOMINATOR
            for row in pick(rows)
        ]
    return claims


def gamma_families_inputs(seed: int, size: str = "full") -> tuple:
    rng = random.Random(seed)
    claims = gamma_claims(size, lambda rows: [rng.choice(rows)])
    rng.shuffle(claims)
    return tuple(claims)


def lemma_grid_inputs(seed: int, size: str = "full") -> tuple:
    """The CLI's own batch grid at its widest completing width.

    The grid is the CLI's fixed parameter grid, so the seed does not change it.
    `--count 4` is not used: there the whole batch exits 2 on a
    PrecisionCapError (pochhammer-unit at p = 37, r = 2).
    """
    del seed
    count = LEMMA_GRID_COUNT[size]
    return ("batch", "--lemmas", "--count", str(count))


def identity_fuzz_inputs(seed: int, size: str = "full") -> tuple:
    wz, telescope = FUZZ_COUNTS[size]
    return (("wz", wz, seed), ("telescope", telescope, seed))


INPUTS = {
    "theorem-ladder": theorem_ladder_inputs,
    "lemma-grid": lemma_grid_inputs,
    "gamma-families": gamma_families_inputs,
    "identity-fuzz": identity_fuzz_inputs,
}


def inputs(name: str, seed: int, size: str = "full") -> tuple:
    return INPUTS[name](seed, size)


@dataclass
class Outcome:
    """What one run of a workload did: counts, timings and the emitted stream."""

    attempted: int = 0
    errors: Counter = field(default_factory=Counter)
    latencies_ms: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    batch_s: float = 0.0
    stream: bytes = b""


def _call(claim: tuple):
    kind = claim[0]
    if kind == "theorem":
        _, row, p, r = claim
        return cs.verify_theorem(DashParams(*row), p, r)
    if kind == "probe":
        _, p, r = claim
        return cs.probe_conjecture_7_1(p, r)
    if kind == "family":
        _, name, p, r, alpha = claim
        return cs.verify_family(name, p, r, None if alpha is None else Fraction(alpha))
    _, name, row, p, r = claim
    return cs.verify_lemma(name, DashParams(*row), p, r)


def _one_at_a_time(claims: tuple, out: Outcome, sink: BytesIO) -> None:
    reports = []
    t0 = time.perf_counter()
    for claim in claims:
        out.attempted += 1
        c0 = time.perf_counter()
        try:
            reports.append(_call(claim))
        except CLAIM_ERRORS as exc:
            out.errors[type(exc).__name__] += 1
        out.latencies_ms.append((time.perf_counter() - c0) * 1000.0)
    if reports:
        sink.write(cli.emit_report(reports))
    out.wall_s = time.perf_counter() - t0


def _identity_fuzz(cases: tuple, out: Outcome, sink: BytesIO) -> None:
    runners = {"wz": cs.run_wz_fuzz, "telescope": cs.run_telescope_fuzz}
    reports = []
    t0 = time.perf_counter()
    for kind, count, seed in cases:
        out.attempted += count
        try:
            reports += runners[kind](count, seed)
        except CLAIM_ERRORS as exc:
            # a batch runner stops at its first error, so none of its claims report
            out.errors[type(exc).__name__] += count
    if reports:
        sink.write(cli.emit_report(cs.canonical_sort(reports)))
    out.wall_s = time.perf_counter() - t0
    # the library times each case itself; the fuzz runners are one batch call
    out.latencies_ms = [rep.elapsed_ms for rep in reports]


@contextmanager
def _patched(namespace, name: str, make):
    original = getattr(namespace, name)
    setattr(namespace, name, make(original))
    try:
        yield
    finally:
        setattr(namespace, name, original)


def _lemma_grid(argv: tuple, parallel: int, out: Outcome, sink: BytesIO) -> None:
    """`supercong batch --lemmas ...` through `cli.run`, stdout captured.

    Pass-throughs in the cli namespace keep the reports handed to emit_report
    (for their per-claim elapsed_ms) and time the two batch runners.
    """
    emitted = []
    batch_s = []

    def keep_reports(emit):
        def emit_report(reports, *args, **kwargs):
            emitted.extend(reports)
            return emit(reports, *args, **kwargs)

        return emit_report

    def timed(runner):
        def run_batch(*args, **kwargs):
            b0 = time.perf_counter()
            try:
                return runner(*args, **kwargs)
            finally:
                batch_s.append(time.perf_counter() - b0)

        return run_batch

    tasks = cs.theorem_grid(count=int(argv[-1]))
    out.attempted = len(tasks) * (1 + len(cs.LemmaCheck))
    stdout = sys.stdout
    with (
        _patched(cli, "emit_report", keep_reports),
        _patched(cli, "run_theorem_batch", timed),
        _patched(cli, "run_lemma_batch", timed),
    ):
        sys.stdout = SimpleNamespace(buffer=sink)
        try:
            t0 = time.perf_counter()
            code = cli.run([*argv, "--parallel", str(parallel)])
            out.wall_s = time.perf_counter() - t0
        finally:
            sys.stdout = stdout
    if code == 2:
        # cli.run reports the error on stderr and emits no stream at all
        out.errors["cli-exit-2"] += out.attempted
    out.batch_s = sum(batch_s)
    out.latencies_ms = [rep.elapsed_ms for rep in emitted]


def run(name: str, claims: tuple, parallel: int = 1) -> Outcome:
    """Run one workload once in this process and return what it did."""
    out = Outcome()
    sink = BytesIO()
    if name == "lemma-grid":
        _lemma_grid(claims, parallel, out, sink)
    elif name == "identity-fuzz":
        _identity_fuzz(claims, out, sink)
    else:
        _one_at_a_time(claims, out, sink)
    out.stream = sink.getvalue()
    return out
