import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from supercong import cli, congruence_suite
from supercong.cli import emit_report, run
from supercong.congruence_suite import VerificationReport
from supercong.exact_core import INFINITE

THEOREM_ARGS = ["verify", "theorem", "--c", "1", "--d", "4", "--s", "3", "--p", "7", "--r", "1"]
THEOREM_LINE = (
    b'{"claim": "theorem", "observed_valuation": 4, "params":'
    b' {"c": 1, "d": 4, "p": 7, "r": 1, "s": 3}, "pass": true, "required_exponent": 4}\n'
)


def sample_reports():
    ok = VerificationReport("theorem", (("p", 7), ("r", 1)), 4, 4)
    skip = VerificationReport(
        "corollary", (("p", 13), ("r", 1)), skipped_reason="p=13 is not 3 mod 4"
    )
    info = VerificationReport("conjecture-probe", (("p", 13), ("r", 1)), 6, 6, informational=True)
    exact = VerificationReport("table1", (("row", "01"),), 1, INFINITE)
    return [ok, skip, info, exact]


def test_verify_theorem_stdout_and_exit_code(capfdbinary):
    assert run(THEOREM_ARGS) == 0
    out, err = capfdbinary.readouterr()
    assert out == THEOREM_LINE
    assert err == b""


def test_skipped_claim_exits_zero(capfdbinary):
    args = ["verify", "theorem", "--c", "1", "--d", "4", "--s", "3", "--p", "13", "--r", "1"]
    assert run(args) == 0
    out, _ = capfdbinary.readouterr()
    obj = json.loads(out)
    assert set(obj) == {"claim", "params", "skipped_reason"}
    assert obj["skipped_reason"] == "p=13 is not congruent to 3 mod 4"


def test_usage_errors_exit_two(capfdbinary):
    # composite p trips the operation contract, not argparse
    assert run(["verify", "theorem", "--c", "1", "--d", "4", "--s", "3", "--p", "9", "--r", "1"]) == 2
    _, err = capfdbinary.readouterr()
    assert err.startswith(b"error:")

    assert run(["no-such-command"]) == 2
    capfdbinary.readouterr()

    # malformed rational is rejected by the argument parser
    assert run(["verify", "family", "--name", "PTW_1_4", "--p", "7", "--r", "1", "--alpha", "2/0"]) == 2
    capfdbinary.readouterr()

    assert run(["verify", "family", "--name", "GZ_1_5", "--p", "5", "--r", "1", "--alpha", "1/4"]) == 2
    _, err = capfdbinary.readouterr()
    assert b"takes no alpha" in err

    assert run(["verify", "theorem", "--c", "1", "--d", "4", "--s", "3", "--p", "7", "--r", "0"]) == 2
    capfdbinary.readouterr()

    assert run(["wz-fuzz", "--count", "-3"]) == 2
    out, err = capfdbinary.readouterr()
    assert out == b"" and b"count must be nonnegative" in err

    # the exact-identity commands have no resource guard to force
    for args in (["table1", "--force"], ["wz-fuzz", "--count", "3", "--force"]):
        assert run(args) == 2, args
        out, err = capfdbinary.readouterr()
        assert out == b"" and b"unrecognized arguments: --force" in err


def test_failing_claim_exits_one(monkeypatch, capfdbinary):
    failing = VerificationReport("theorem", (("p", 7), ("r", 1)), 4, 3)
    monkeypatch.setattr(cli, "verify_theorem", lambda *a, **k: failing)
    assert run(THEOREM_ARGS) == 1
    out, _ = capfdbinary.readouterr()
    assert json.loads(out)["pass"] is False


def test_table1_serializes_infinite_observations(capfdbinary):
    assert run(["table1"]) == 0
    out, _ = capfdbinary.readouterr()
    lines = out.decode().splitlines()
    assert len(lines) == 26
    for line in lines:
        obj = json.loads(line)
        assert obj["observed_valuation"] == "inf"
        assert obj["pass"] is True


def test_probe_is_informational(capfdbinary):
    assert run(["probe", "--p", "13", "--r", "1"]) == 0
    out, _ = capfdbinary.readouterr()
    obj = json.loads(out)
    assert obj["informational"] is True
    assert "pass" not in obj
    assert obj["observed_valuation"] == 6
    assert obj["required_exponent"] == 6


def test_emit_report_rejects_empty_and_unknown_format():
    with pytest.raises(ValueError, match="no reports"):
        emit_report([])
    with pytest.raises(ValueError, match="unknown format"):
        emit_report(sample_reports(), "xml")


def test_emit_report_json_shapes():
    lines = emit_report(sample_reports()).decode().splitlines()
    objs = [json.loads(line) for line in lines]
    # canonical order regardless of input order
    assert [obj["claim"] for obj in objs] == ["conjecture-probe", "corollary", "table1", "theorem"]
    by_claim = {obj["claim"]: obj for obj in objs}
    assert set(by_claim["theorem"]) == {
        "claim", "params", "pass", "required_exponent", "observed_valuation"
    }
    assert set(by_claim["corollary"]) == {"claim", "params", "skipped_reason"}
    assert set(by_claim["conjecture-probe"]) == {
        "claim", "params", "informational", "required_exponent", "observed_valuation"
    }
    assert by_claim["table1"]["observed_valuation"] == "inf"


def test_emit_report_timings_are_opt_in():
    plain = emit_report(sample_reports()).decode()
    assert "elapsed_ms" not in plain
    timed = emit_report(sample_reports(), include_timings=True).decode()
    assert all("elapsed_ms" in line for line in timed.splitlines())
    header = emit_report(sample_reports(), "tsv", include_timings=True).decode().splitlines()[0]
    assert header.split("\t")[-1] == "elapsed_ms"


def test_emit_report_tsv():
    lines = emit_report(sample_reports(), "tsv").decode().splitlines()
    assert lines[0].split("\t") == [
        "claim", "params", "required_exponent", "observed_valuation",
        "pass", "skipped_reason", "informational",
    ]
    rows = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
    assert rows["corollary"][2:] == ["-", "-", "-", "p=13 is not 3 mod 4", "-"]
    assert rows["table1"][3] == "inf"
    assert rows["theorem"][4] == "true"
    assert rows["conjecture-probe"][6] == "true"


def test_emit_report_text_summary():
    lines = emit_report(sample_reports(), "text").decode().splitlines()
    assert lines[0].startswith("INFO conjecture-probe (p=13,r=1): observed v=6")
    assert lines[1].startswith("SKIP corollary (p=13,r=1):")
    assert lines[2].startswith("PASS table1 (row=01): v=inf >= 1")
    assert lines[3].startswith("PASS theorem (p=7,r=1): v=4 >= 4")
    assert lines[4] == "2 passed, 0 failed, 1 skipped, 1 informational"


def test_emit_report_error_in_every_format():
    error = VerificationReport("theorem", (("p", 31), ("r", 3)), error="ResourceGuardError: big")
    reports = sample_reports() + [error]
    objs = [json.loads(line) for line in emit_report(reports).decode().splitlines()]
    assert objs[-1] == {"claim": "theorem", "params": {"p": 31, "r": 3},
                        "error": "ResourceGuardError: big"}
    assert all("error" not in obj for obj in objs[:-1])

    tsv = emit_report(reports, "tsv").decode().splitlines()
    assert tsv[0].split("\t")[-1] == "error"
    assert tsv[-1].split("\t") == ["theorem", "p=31,r=3", "-", "-", "-", "-", "-",
                                   "ResourceGuardError: big"]
    assert tsv[-2].split("\t")[-1] == "-"
    assert "error" not in emit_report(sample_reports(), "tsv").decode().splitlines()[0]

    text = emit_report(reports, "text").decode().splitlines()
    assert text[-2] == "ERROR theorem (p=31,r=3): ResourceGuardError: big"
    assert text[-1] == "2 passed, 0 failed, 1 skipped, 1 informational, 1 errors"


def test_run_config_validation(capfdbinary):
    for flags in (
        ["--parallel", "0"],
        ["--r-values", "1,0"],
        ["--r-values", "1,1"],
        ["--r-values", ","],
        ["--r-values", "1,x"],
        ["--p-min", "100", "--p-max", "50"],
        ["--format", "xml"],
        ["--count", "-1"],
    ):
        assert run(["batch", *flags]) == 2, flags
        out, err = capfdbinary.readouterr()
        assert out == b""
        assert err


def test_help_exits_zero(capfdbinary):
    assert run(["--help"]) == 0
    out, _ = capfdbinary.readouterr()
    assert out.startswith(b"usage: supercong")


def test_force_flag_overrides_the_resource_guard(monkeypatch, capfdbinary):
    # 7^2 = 49 terms exceed a guard lowered to 48
    monkeypatch.setattr(congruence_suite, "TERM_GUARD", 48)
    args = ["verify", "theorem", "--c", "1", "--d", "4", "--s", "3", "--p", "7", "--r", "2"]
    assert run(args) == 2
    out, err = capfdbinary.readouterr()
    assert out == b"" and b"guard" in err
    assert run(args + ["--force"]) == 0
    out, _ = capfdbinary.readouterr()
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize(
    "args",
    [
        THEOREM_ARGS,
        ["verify", "corollary", "--p", "7", "--r", "1"],
        ["verify", "family", "--name", "C2_1_9", "--p", "7", "--r", "1"],
        ["verify", "lemma", "--name", "dash-period", *THEOREM_ARGS[2:]],
        ["probe", "--p", "13", "--r", "1"],
        ["batch", "--count", "1", "--r-values", "1"],
    ],
)
def test_claim_commands_take_the_output_and_force_flags(args, capfdbinary):
    assert run([*args, "--format", "text", "--timings", "--force"]) == 0
    out, err = capfdbinary.readouterr()
    assert b" ms]" in out and err == b""


def test_parallel_env_is_ignored(monkeypatch, capfdbinary):
    # --parallel is the one way to set the worker count
    assert run(["batch", "--count", "1"]) == 0
    plain, _ = capfdbinary.readouterr()
    monkeypatch.setenv("SUPERCONG_PARALLEL", "soon")
    assert run(["batch", "--count", "1"]) == 0
    out, err = capfdbinary.readouterr()
    assert out == plain
    assert err == b""


def test_wz_fuzz_cli_is_deterministic(capfdbinary):
    args = ["wz-fuzz", "--count", "20", "--telescope-count", "5"]
    assert run(args) == 0
    first, _ = capfdbinary.readouterr()
    assert run(args) == 0
    second, _ = capfdbinary.readouterr()
    assert first == second
    assert len(first.splitlines()) == 25


def test_batch_bytes_independent_of_parallelism(capfdbinary):
    assert run(["batch"]) == 0
    serial, _ = capfdbinary.readouterr()
    assert run(["batch", "--parallel", "8"]) == 0
    parallel, _ = capfdbinary.readouterr()
    assert serial == parallel
    assert len(serial.splitlines()) == 52
    assert all(json.loads(line)["pass"] is True for line in serial.splitlines())


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "supercong.cli", *THEOREM_ARGS],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == THEOREM_LINE


# run in a fresh interpreter: pytest itself may already have imported concurrent.futures
COLD_START = """
import io, json, sys
import supercong, supercong.cli as cli

def capture(argv):
    real, sys.stdout = sys.stdout, io.TextIOWrapper(io.BytesIO())
    try:
        code = cli.run(argv)
        return code, sys.stdout.buffer.getvalue()
    finally:
        sys.stdout = real

theorem = capture(sys.argv[1:])
pool = sorted(m for m in sys.modules if m.startswith(("concurrent", "multiprocessing")))
serial, pooled = (capture(["batch", "--lemmas", "--count", "1", "--parallel", n]) for n in "12")
print(json.dumps([theorem[0], theorem[1].decode(), pool, serial[0], pooled[0],
                  serial[1].decode(), pooled[1].decode()]))
"""


def test_one_shot_claim_never_imports_the_process_pool():
    # only batch --parallel >= 2 forks a pool; a one-shot claim must not pay its import
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, *THEOREM_ARGS],
        capture_output=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    code, line, pool, serial_code, pooled_code, serial, pooled = json.loads(proc.stdout)
    assert (code, line.encode()) == (0, THEOREM_LINE)
    assert pool == []
    assert serial_code == pooled_code == 0
    assert serial == pooled
    digest = "83cedccd2d01ebb4c489576bfcbeb162aad6eb1c1c1bcbb885286e30d1130605"
    assert hashlib.sha256(serial.encode()).hexdigest() == digest


def test_closed_stdout_exits_two_without_traceback():
    # a reader that closes the pipe early is an error, not a failed claim
    proc = subprocess.Popen(
        [sys.executable, "-m", "supercong.cli", "table1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.startswith(b"error: ") and len(err.splitlines()) == 1
    assert b"Traceback" not in err


def test_text_format_end_to_end(capfdbinary):
    assert run(THEOREM_ARGS + ["--format", "text"]) == 0
    out, _ = capfdbinary.readouterr()
    assert out.startswith(b"PASS theorem (c=1,d=4,s=3,p=7,r=1): v=4 >= 4")
    assert b"1 passed, 0 failed, 0 skipped, 0 informational" in out


def test_timings_flag_end_to_end(capfdbinary):
    assert run(THEOREM_ARGS + ["--timings"]) == 0
    out, _ = capfdbinary.readouterr()
    assert "elapsed_ms" in json.loads(out)


# Exit code and sha256 of stdout for report streams whose bytes must not
# change while the library underneath is reworked.
GOLDEN_STREAMS = {
    "table1-json": (["table1"], 0,
                    "dd0575237c2e930b1d8d4156ed7597115f68306e01e03a30eabe5a528428b768"),
    "table1-tsv": (["table1", "--format", "tsv"], 0,
                   "97cfb345203db7387a77eced81901b529326132fe3c79dcf9c9cd58e511f5e02"),
    "table1-text": (["table1", "--format", "text"], 0,
                    "50ef6539cb11fcb9a8ed4a5feaf4a94143a40f7e91ecfa29cf86f30265ca4dfd"),
    "wz-fuzz": (["wz-fuzz"], 0,
                "d701e66208586e9628b184e0397452323b674cd701e15556196c27ae453803fb"),
    "batch-lemmas": (["batch", "--lemmas", "--parallel", "1", "--format", "json"], 0,
                     "4c25f51fb56979f07152fe35c4122da3e318ec82aabc116b5c4fa37d3f1245b7"),
    # infinite observations pickled back from worker processes
    "batch-lemmas-parallel-2": (["batch", "--lemmas", "--parallel", "2", "--format", "json"], 0,
                                "4c25f51fb56979f07152fe35c4122da3e318ec82aabc116b5c4fa37d3f1245b7"),
    "family-VH_1_2": (["verify", "family", "--name", "VH_1_2", "--p", "13", "--r", "1"], 0,
                      "ee86d346b47aebc2fd09a93ecfa30d296308d9adfb097cc235481f637fe69324"),
    "family-SW_1_3": (["verify", "family", "--name", "SW_1_3", "--p", "7", "--r", "1"], 0,
                      "b317dfde2a7081e822d08127b81d8a58dc74068065e5c9807e97bf7e6b9d77d5"),
    "family-PTW_1_4": (
        ["verify", "family", "--name", "PTW_1_4", "--p", "7", "--r", "1", "--alpha", "2/3"], 0,
        "09e30076aea73d23a11c7e9ef62e9316af8fb61cc8c9d9155d89bc206616a60a",
    ),
    "family-GZ_1_5": (["verify", "family", "--name", "GZ_1_5", "--p", "5", "--r", "2"], 0,
                      "a342b74c7aff7c010ae7d941e64e5a5dcc804f189907860ebcd9e8cb3f5669e1"),
    "family-C2_1_9": (["verify", "family", "--name", "C2_1_9", "--p", "7", "--r", "2"], 0,
                      "a4a4a80dc6d61636f03c489899548216d2c09491b5d4b130992f28c56f90a281"),
    "corollary-3-1": (["verify", "corollary", "--p", "3", "--r", "1"], 0,
                      "6ae26611984cb655b4b8d39cfeaba0e9616fa6a40cb7c6d326eceb90d7c93e77"),
    "corollary-7-3": (["verify", "corollary", "--p", "7", "--r", "3"], 0,
                      "51922effc74d5b746263f4ed1d044bc85fa065c3cdde69b054d4407ff2008622"),
    # alpha = 1/6 at p = 5: the first dash iterate 5/6 is divisible by p
    "pochhammer-unit-divisible": (
        ["verify", "lemma", "--name", "pochhammer-unit",
         "--c", "1", "--d", "6", "--s", "5", "--p", "5", "--r", "1"], 0,
        "234463fac8243f000de0892d30303d15d342dc2c0acd91d8a28f01c1debc84f0",
    ),
    # alpha = 1/4 at p = 7: both dash iterates are units
    "pochhammer-unit-unit": (
        ["verify", "lemma", "--name", "pochhammer-unit",
         "--c", "1", "--d", "4", "--s", "3", "--p", "7", "--r", "2"], 0,
        "63e0b4da0672fd93a7cd6dcc603575afc27fddb1836e5605c8c60c101191d6c9",
    ),
    "probe": (["probe", "--p", "13", "--r", "1"], 0,
              "047eabef8b3bf56c65d42378c999d5d6c9d7c26b88ca8579f7136451837611d8"),
    # 13 passes at r = 1 and 13 term-guard error reports at r = 3 (29^3 > 20 000)
    "batch-capacity": (
        ["batch", "--r-values", "1,3", "--count", "1", "--p-min", "29", "--p-max", "60",
         "--parallel", "1"], 3,
        "25e7de7dc08a77188f488d91d37f39d909c8cafb3a12b76933a06008256fec0b",
    ),
    "batch-capacity-parallel-2": (
        ["batch", "--r-values", "1,3", "--count", "1", "--p-min", "29", "--p-max", "60",
         "--parallel", "2"], 3,
        "25e7de7dc08a77188f488d91d37f39d909c8cafb3a12b76933a06008256fec0b",
    ),
}


@pytest.mark.parametrize("name", GOLDEN_STREAMS)
def test_golden_stream(name, capfdbinary):
    argv, code, digest = GOLDEN_STREAMS[name]
    assert run(argv) == code
    out, _ = capfdbinary.readouterr()
    assert hashlib.sha256(out).hexdigest() == digest
