"""supercong benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload theorem-ladder --seed 12345 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ with no install step. Each sample is a fresh interpreter
(bench/sample.py), because import cost and the Gamma_p product cache are paid
once per CLI invocation. Samples repeat until the next one would overrun
--seconds; at least one always runs.

--trace 0 prints the end-to-end metrics, medians over the samples.
--trace 1 alternates untraced and traced samples at parallelism 1 and prints
the per-layer metrics from the traced ones, with the tracing overhead.

Every report is checked: each verdict must pass, and each report whose claim
id and params appear in bench/golden/<workload>.jsonl must equal that line
byte for byte. With the default seed every report must appear there. Streams
must also agree between samples, traced or not, at any parallelism. The last
line of stdout is one JSON object: correct, attempted, failed, metrics. The
exit code is 0 when the outputs are correct, 1 when they are not, 2 when the
package cannot be found or a sample crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "supercong"
GOLDEN = BENCH / "golden"

# the keys of workloads.INPUTS; run.py imports nothing from the package itself,
# so that it can report a missing package instead of failing on import
WORKLOADS = ("theorem-ladder", "lemma-grid", "gamma-families", "identity-fuzz")
SIZES = ("full", "smoke")
DEFAULT_SEED = 12_345  # supercong.congruence_suite.DEFAULT_SEED
SETUP_PROBES = 5
SAMPLE_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "claims_per_s": "1/s",
    "claim_p50_ms": "ms",
    "claim_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

_FUNCTIONS = {
    "hyper_wz": ("sum_F", "sum_G_boundary", "pochhammer", "harmonic", "wz_residual",
                 "term_F", "term_G"),
    "padic_gamma": ("gamma_p", "pochhammer_factorization"),
    "exact_core": ("valuation", "residue", "is_prime", "mod_inverse"),
    "dwork": ("dash", "dash_iter", "dash_closed_form"),
}
PER_LAYER_UNITS = {
    f"{layer}.{fn}.{stat}": unit
    for layer, fns in _FUNCTIONS.items()
    for fn in fns
    for stat, unit in (("self_s", "s"), ("calls", "count"))
}
PER_LAYER_UNITS.update(
    {
        "hyper_wz.sum_F.terms": "count",
        "hyper_wz.sum_F.result_bits_max": "bits",
        "padic_gamma.gamma_p.distinct_args": "count",
        "padic_gamma.gamma_p.product_len": "count",
        "padic_gamma.cap_errors": "count",
        "exact_core.valuation.operand_bits_max": "bits",
        "congruence_suite.verify_theorem.self_s": "s",
        "congruence_suite.verify_lemma.self_s": "s",
        "congruence_suite.verify_family.self_s": "s",
        "congruence_suite.batch.wall_s.p1": "s",
        "congruence_suite.batch.wall_s.p2": "s",
        "congruence_suite.batch.speedup_p2": "ratio",
        "cli.emit_report.self_s": "s",
        "cli.emit_report.bytes": "bytes",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
    }
)


class SampleError(RuntimeError):
    """A sample process failed to start, crashed or timed out."""


def spawn(args: list[str]) -> dict:
    """Run bench/sample.py in a fresh interpreter and return its result."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "sample.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the session holds the sample and any pool workers it started
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleError(f"sample {args} timed out after {SAMPLE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise SampleError(f"sample {args} exited {proc.returncode}: {err.decode()[-2000:]}")
    result = json.loads(out.decode().splitlines()[-1])
    result["setup_s"] = result.pop("imported_at") - spawned_at
    return result


def load_golden(workload: str) -> dict[tuple[str, str], str]:
    golden = {}
    with open(GOLDEN / f"{workload}.jsonl", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            golden[report_key(line)] = line
    return golden


def report_key(line: str) -> tuple[str, str]:
    obj = json.loads(line)
    return obj["claim"], json.dumps(obj["params"], sort_keys=True)


class Checker:
    """Checks every sample's report stream; collects problems as text."""

    def __init__(self, workload: str, seed: int) -> None:
        self.golden = load_golden(workload)
        self.require_golden = seed == DEFAULT_SEED
        self.first_stream: str | None = None
        self.problems: list[str] = []

    def check(self, sample: dict) -> None:
        stream = sample["stream"]
        lines = stream.splitlines()
        expected = sample["attempted"] - sum(sample["errors"].values())
        if len(lines) != expected:
            self.problems.append(f"{len(lines)} reports for {expected} completed claims")
        for line in lines:
            if json.loads(line).get("pass") is False:
                self.problems.append(f"verdict failed: {line}")
            want = self.golden.get(report_key(line))
            if want is None:
                if self.require_golden:
                    self.problems.append(f"no reference report for: {line}")
            elif want != line:
                self.problems.append(f"report differs from reference:\n  got  {line}\n  want {want}")
        if self.first_stream is None:
            self.first_stream = stream
        elif stream != self.first_stream:
            self.problems.append("report stream differs between samples of one run")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[98]


class Runner:
    """Spawns samples of one workload until the time budget is spent."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.checker = Checker(args.workload, args.seed)
        self.deadline = time.monotonic() + args.seconds
        self.samples: list[dict] = []

    def sample(self, mode: str, parallel: int) -> dict:
        a = self.args
        result = spawn([a.workload, str(a.seed), a.size, mode, str(parallel)])
        result["mode"], result["parallel"] = mode, parallel
        self.checker.check(result)
        self.samples.append(result)
        return result

    def repeat(self, one_round) -> None:
        """Run rounds until the next would end past the deadline; at least one."""
        while True:
            started = time.monotonic()
            one_round()
            if time.monotonic() + (time.monotonic() - started) > self.deadline:
                return

    def select(self, mode: str, parallel: int) -> list[dict]:
        return [s for s in self.samples if s["mode"] == mode and s["parallel"] == parallel]

    def attempted(self) -> int:
        return sum(s["attempted"] for s in self.samples)

    def failed(self) -> int:
        return sum(sum(s["errors"].values()) for s in self.samples)


def per_claim_ms(samples: list[dict]) -> list[float]:
    """Each claim's latency as the median over samples.

    Samples of one run repeat the same claims in the same order, so a claim
    slowed by a passing hiccup in one sample does not set the tail.
    """
    lists = [s["latencies_ms"] for s in samples]
    if len({len(ms) for ms in lists}) != 1:
        return [ms for sample in lists for ms in sample]
    return [statistics.median(claim) for claim in zip(*lists)]


def end_to_end(runner: Runner) -> tuple[dict[str, float], dict]:
    parallel = 2 if runner.args.workload == "lemma-grid" else 1
    setups = [spawn(["setup"])["setup_s"] for _ in range(SETUP_PROBES)]
    runner.repeat(lambda: runner.sample("plain", parallel))
    samples = runner.samples
    setups += [s["setup_s"] for s in samples]
    latencies = per_claim_ms(samples)
    attempted = runner.attempted()
    values = {
        "setup_s": _median(setups),
        "wall_s": _median([s["wall_s"] for s in samples]),
        "claims_per_s": _median([s["attempted"] / s["wall_s"] for s in samples]),
        "claim_p50_ms": _median(latencies),
        "claim_p99_ms": _p99(latencies),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in samples]),
        "ok_share": (attempted - runner.failed()) / attempted,
    }
    info = {
        "samples": len(samples),
        "setup_samples": len(setups),
        "claims_timed": len(latencies),
        "latency_samples": sum(len(s["latencies_ms"]) for s in samples),
        "claims_per_sample": samples[0]["attempted"],
    }
    return values, info


def per_layer(runner: Runner) -> tuple[dict[str, float], dict]:
    lemma_grid = runner.args.workload == "lemma-grid"

    def one_round() -> None:
        runner.sample("plain", 1)
        if lemma_grid:
            runner.sample("plain", 2)
        runner.sample("traced", 1)

    runner.repeat(one_round)
    traced = runner.select("traced", 1)
    plain = runner.select("plain", 1)
    values = {
        name: _median([s["layers"].get(name, 0.0) for s in traced]) for name in PER_LAYER_UNITS
    }
    untraced_wall = _median([s["wall_s"] for s in plain])
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = _median([s["wall_s"] for s in traced]) - untraced_wall
    if lemma_grid:
        p1 = _median([s["batch_s"] for s in plain])
        p2 = _median([s["batch_s"] for s in runner.select("plain", 2)])
        values["congruence_suite.batch.wall_s.p1"] = p1
        values["congruence_suite.batch.wall_s.p2"] = p2
        values["congruence_suite.batch.speedup_p2"] = p1 / p2
    info = {"traced_samples": len(traced), "untraced_samples": len(runner.samples) - len(traced)}
    return values, info


def context() -> dict:
    """Where the numbers come from; recorded, not gated."""
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py"))),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="smoke: seconds, for tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no supercong package under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        values, info = (per_layer if args.trace else end_to_end)(runner)
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    problems = runner.checker.problems
    for problem in problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    errors: dict[str, int] = {}
    for s in runner.samples:
        for cls, n in s["errors"].items():
            errors[cls] = errors.get(cls, 0) + n
    print(json.dumps({"context": context(), "errors_by_class": errors, **info}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": runner.attempted(),
                "failed": runner.failed(),
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
