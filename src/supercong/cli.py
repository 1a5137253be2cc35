"""Command line front end: run claims or batches and emit report streams.

Exit code 0 when every non-skipped, non-informational claim passes, 1 when
any fails, 2 on usage errors (bad flags, malformed rationals, violated
operation contracts) or when stdout closes before the reports are written
(a broken pipe), and otherwise 3 when a batch claim hit a capacity
limit (term guard or Gamma_p precision cap) and became an error report. A
single claim that hits a capacity limit is a usage error. Hypothesis
violations are skipped reports and leave the exit code untouched.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from fractions import Fraction

from .congruence_suite import (
    DEFAULT_SEED,
    Family,
    LemmaCheck,
    VerificationReport,
    canonical_sort,
    probe_conjecture_7_1,
    reproduce_table_1,
    run_lemma_batch,
    run_telescope_fuzz,
    run_theorem_batch,
    run_wz_fuzz,
    theorem_grid,
    verify_corollary,
    verify_family,
    verify_lemma,
    verify_theorem,
)
from .dwork import DashParams
from .exact_core import INFINITE

# outcome -> (summary label, text line after "<outcome> <claim> (<params>): ")
_TEXT = {
    "PASS": ("passed", "v={observed_valuation} >= {required_exponent}"),
    "FAIL": ("failed", "v={observed_valuation} < {required_exponent}"),
    "SKIP": ("skipped", "{skipped_reason}"),
    "INFO": (
        "informational",
        "observed v={observed_valuation} against target {required_exponent}",
    ),
    "ERROR": ("errors", "{error}"),
}


def _fields(rep: VerificationReport) -> dict[str, object]:
    """Every report field by its stream name, in TSV column order; None marks an absent field."""
    observed = rep.observed_valuation
    return {
        "claim": rep.claim,
        "params": dict(rep.params),
        "required_exponent": rep.required_exponent,
        "observed_valuation": "inf" if observed == INFINITE else observed,
        "pass": rep.passed,
        "skipped_reason": rep.skipped_reason,
        "informational": True if rep.informational else None,
        "error": rep.error,
    }


def _cell(value: object) -> str:
    """One field as TSV and text show it, "-" when absent."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        return ",".join(f"{key}={item}" for key, item in value.items())
    return str(value)


def _json_lines(reports: list[VerificationReport], include_timings: bool) -> str:
    lines = []
    for rep in reports:
        obj = {key: value for key, value in _fields(rep).items() if value is not None}
        if include_timings:
            obj["elapsed_ms"] = round(rep.elapsed_ms, 3)
        lines.append(json.dumps(obj, sort_keys=True))
    return "\n".join(lines) + "\n"


def _tsv_lines(reports: list[VerificationReport], include_timings: bool) -> str:
    errors = any(rep.outcome == "ERROR" for rep in reports)
    columns = [key for key in _fields(reports[0]) if key != "error" or errors]
    header = columns + ["elapsed_ms"] if include_timings else columns
    rows = ["\t".join(header)]
    for rep in reports:
        fields = _fields(rep)
        cells = [_cell(fields[column]) for column in columns]
        if include_timings:
            cells.append(f"{rep.elapsed_ms:.3f}")
        rows.append("\t".join(cells))
    return "\n".join(rows) + "\n"


def _text_lines(reports: list[VerificationReport], include_timings: bool) -> str:
    lines = []
    for rep in reports:
        fields = {key: _cell(value) for key, value in _fields(rep).items()}
        suffix = f" [{rep.elapsed_ms:.1f} ms]" if include_timings else ""
        detail = _TEXT[rep.outcome][1].format_map(fields)
        lines.append(f"{rep.outcome} {rep.claim} ({fields['params']}): {detail}{suffix}")
    tallies = Counter(rep.outcome for rep in reports)
    summary = ", ".join(
        f"{tallies[outcome]} {label}"
        for outcome, (label, _) in _TEXT.items()
        if outcome != "ERROR" or tallies[outcome]
    )
    return "\n".join(lines) + "\n" + summary + "\n"


# --format value -> renderer of (reports, include_timings)
_RENDERERS = {"json": _json_lines, "tsv": _tsv_lines, "text": _text_lines}


def emit_report(
    reports: list[VerificationReport],
    output_format: str = "json",
    include_timings: bool = False,
) -> bytes:
    """Render reports as a byte stream in canonical order.

    JSON is one object per line; absent fields are omitted, and an infinite
    observation serializes as the string "inf". TSV mirrors the same columns
    with "-" for absent values, plus an error column when a report is an
    error. Timings are included only on request so that identical runs emit
    identical bytes.
    """
    if not reports:
        raise ValueError("no reports to emit")
    if output_format not in _RENDERERS:
        raise ValueError(f"unknown format {output_format!r}")
    return _RENDERERS[output_format](canonical_sort(reports), include_timings).encode()


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _r_values(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(token) for token in text.split(",") if token.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("r values must be nonempty")
    return values


def _build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=_RENDERERS, default="json", help="report format")
    output.add_argument(
        "--timings", action="store_true", help="include elapsed milliseconds in reports"
    )
    # each parent adds its flags to the one before: output < forceable < claim < dash_claim
    forceable = argparse.ArgumentParser(add_help=False, parents=[output])
    forceable.add_argument(
        "--force", action="store_true", help="override the desk-scale resource guard"
    )
    claim = argparse.ArgumentParser(add_help=False, parents=[forceable])
    claim.add_argument("--p", type=int, required=True, help="prime")
    claim.add_argument("--r", type=int, required=True, help="power of p")
    dash_claim = argparse.ArgumentParser(add_help=False, parents=[claim])
    dash_claim.add_argument("--c", type=int, required=True, help="numerator of alpha = c/d")
    dash_claim.add_argument("--d", type=int, required=True, help="denominator of alpha = c/d")
    dash_claim.add_argument("--s", type=int, required=True, help="residue class of p mod d")

    parser = argparse.ArgumentParser(
        prog="supercong",
        description="Verify truncated hypergeometric supercongruences exactly.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser("verify", help="verify a single claim")
    targets = verify.add_subparsers(dest="target", required=True)
    targets.add_parser("theorem", parents=[dash_claim])
    targets.add_parser("corollary", parents=[claim])
    family = targets.add_parser("family", parents=[claim])
    family.add_argument("--name", choices=[fam.value for fam in Family], required=True)
    family.add_argument("--alpha", type=_rational, default=None, help="rational, e.g. 2/3")
    lemma = targets.add_parser("lemma", parents=[dash_claim])
    lemma.add_argument("--name", choices=[check.value for check in LemmaCheck], required=True)

    commands.add_parser("table1", parents=[output])

    fuzz = commands.add_parser("wz-fuzz", parents=[output])
    fuzz.add_argument("--count", type=int, default=200, help="pair-identity cases")
    fuzz.add_argument("--telescope-count", type=int, default=50, help="telescoping cases")
    fuzz.add_argument("--seed", type=int, default=DEFAULT_SEED)

    commands.add_parser("probe", parents=[claim])

    batch = commands.add_parser("batch", parents=[forceable])
    batch.add_argument("--parallel", type=int, default=1, help="worker processes")
    batch.add_argument("--lemmas", action="store_true", help="include the lemma checks")
    batch.add_argument("--count", type=int, default=2, help="admissible primes per row")
    batch.add_argument("--r-values", type=_r_values, default=(1, 2))
    batch.add_argument("--p-min", type=int, default=5)
    batch.add_argument("--p-max", type=int, default=2_000)

    return parser


def _execute(args: argparse.Namespace) -> list[VerificationReport]:
    if args.command == "verify":
        if args.target == "corollary":
            return [verify_corollary(args.p, args.r, force=args.force)]
        if args.target == "family":
            return [verify_family(args.name, args.p, args.r, args.alpha, force=args.force)]
        params = DashParams(args.c, args.d, args.s)
        if args.target == "theorem":
            return [verify_theorem(params, args.p, args.r, force=args.force)]
        return [verify_lemma(args.name, params, args.p, args.r, force=args.force)]

    if args.command == "table1":
        return reproduce_table_1()

    if args.command == "wz-fuzz":
        reports = run_wz_fuzz(args.count, args.seed)
        return reports + run_telescope_fuzz(args.telescope_count, args.seed)

    if args.command == "probe":
        return [probe_conjecture_7_1(args.p, args.r, force=args.force)]

    # batch
    tasks = theorem_grid(
        r_values=args.r_values, count=args.count, p_min=args.p_min, p_max=args.p_max
    )
    reports = run_theorem_batch(tasks, args.parallel, force=args.force)
    if args.lemmas:
        reports += run_lemma_batch(tasks, args.parallel, force=args.force)
    return reports


def run(argv: list[str] | None = None) -> int:
    """Parse argv, run the mapped operations, write one report per claim."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error
        return exc.code
    try:
        reports = _execute(args)
        stream = emit_report(reports, args.format, args.timings)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.buffer.write(stream)
        sys.stdout.buffer.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the reports were written", file=sys.stderr)
        return 2
    outcomes = {rep.outcome for rep in reports}
    if "FAIL" in outcomes:
        return 1
    return 3 if "ERROR" in outcomes else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
