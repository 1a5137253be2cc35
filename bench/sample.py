"""One benchmark sample in a fresh interpreter.

Usage (from run.py, with PYTHONPATH pointing at the checkout's src/):

    python3 bench/sample.py setup
    python3 bench/sample.py <workload> <seed> <size> <plain|traced> <parallel>

Imports the package first and reports the monotonic clock at that moment, so
the parent can take set-up time as import-done minus spawn. Then it builds the
workload's inputs, runs it once and prints one JSON object on stdout.
"""

import time

import supercong
import supercong.cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(supercong.__file__).resolve().parents:
        raise SystemExit(f"imported {supercong.__file__}, not the package under {src}")
    result = {"imported_at": IMPORTED_AT}
    if argv == ["setup"]:
        return result

    import workloads
    from tracer import Tracer

    name, seed, size, mode, parallel = argv
    claims = workloads.inputs(name, int(seed), size)
    if mode == "traced":
        with Tracer() as tracer:
            out = workloads.run(name, claims, int(parallel))
        result["layers"] = tracer.summary()
    else:
        out = workloads.run(name, claims, int(parallel))
    result.update(
        attempted=out.attempted,
        errors=dict(out.errors),
        latencies_ms=out.latencies_ms,
        wall_s=out.wall_s,
        batch_s=out.batch_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        stream=out.stream.decode(),
    )
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
