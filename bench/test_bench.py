"""Self-tests of the benchmark: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from supercong import congruence_suite, hyper_wz  # noqa: E402
from supercong.dwork import DashParams  # noqa: E402


def test_workload_names_agree():
    assert set(run.WORKLOADS) == set(workloads.INPUTS)
    assert set(run.SIZES) == set(workloads.LADDER)


def test_benchmark_json_lists_every_metric_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    for size in run.SIZES:
        assert workloads.inputs(name, 3, size) == workloads.inputs(name, 3, size)


@pytest.mark.parametrize("name", ["theorem-ladder", "gamma-families", "identity-fuzz"])
def test_seed_changes_drawn_inputs(name):
    assert workloads.inputs(name, 1) != workloads.inputs(name, 2)


def test_gamma_families_stay_inside_hypotheses():
    for claim in workloads.inputs("gamma-families", 11):
        if claim[1] == "PTW_1_4":
            _, _, p, _, alpha = claim
            assert workloads.ptw_admissible(Fraction(alpha), p)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run(name, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "12345",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_missing_package_exits_nonzero_without_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "PACKAGE", BENCH / "no-such-package")
    code = run.main(["--workload", "lemma-grid", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_checker_flags_a_report_that_differs_from_the_reference():
    line = (BENCH / "golden" / "theorem-ladder.jsonl").read_text().splitlines()[0]
    obj = json.loads(line)
    obj["observed_valuation"] = obj["required_exponent"] + 100
    sample = {"stream": json.dumps(obj, sort_keys=True) + "\n", "attempted": 1, "errors": {}}
    checker = run.Checker("theorem-ladder", run.DEFAULT_SEED)
    checker.check(sample)
    assert checker.problems and "differs" in checker.problems[0]


def test_checker_requires_a_reference_on_the_default_seed_only():
    line = json.dumps({"claim": "theorem", "params": {"p": 1}, "pass": True})
    sample = {"stream": line + "\n", "attempted": 1, "errors": {}}
    for seed, flagged in ((run.DEFAULT_SEED, True), (1, False)):
        checker = run.Checker("theorem-ladder", seed)
        checker.check(sample)
        assert bool(checker.problems) is flagged


def test_capacity_error_counts_as_a_failed_claim():
    claims = (("family", "SW_1_3", 43, 1, None), ("family", "VH_1_2", 5, 1, None))
    with tracer.Tracer() as t:
        out = workloads.run("gamma-families", claims)
    assert out.attempted == 2
    assert dict(out.errors) == {"PrecisionCapError": 1}
    assert len(out.stream.splitlines()) == 1
    assert t.summary()["padic_gamma.cap_errors"] == 1


def _supercong_attributes() -> dict[tuple[str, str], int]:
    return {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if module is not None and (name == "supercong" or name.startswith("supercong."))
        for attr, value in vars(module).items()
    }


def test_tracer_restores_every_patched_attribute():
    before = _supercong_attributes()
    original_sum_F = congruence_suite.sum_F
    with tracer.Tracer() as t:
        # the copy congruence_suite imported is wrapped, not only the home module's
        assert congruence_suite.sum_F is not original_sum_F
        assert hyper_wz.sum_F is not original_sum_F
        workloads.run("theorem-ladder", workloads.inputs("theorem-ladder", 1, "smoke"))
    assert _supercong_attributes() == before
    summary = t.summary()
    assert summary["hyper_wz.sum_F.calls"] == 3
    assert summary["hyper_wz.sum_F.self_s"] > 0
    assert summary["hyper_wz.sum_F.terms"] == 29**2 + 37**2 + (29**2 - 1) // 2 + 1


def test_self_times_add_up_to_the_outer_span():
    with tracer.Tracer() as t:
        congruence_suite.verify_theorem(DashParams(1, 4, 1), 29, 1)
    summary = t.summary()
    outer = t.ends[0] - t.starts[0]
    total_self = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(outer, rel=1e-9)
