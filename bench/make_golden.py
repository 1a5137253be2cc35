"""Write bench/golden/<workload>.jsonl, the reference reports the benchmark checks against.

    PYTHONPATH=src python3 bench/make_golden.py

The files were written once, at the commit that defined the benchmark, and
are the reference from then on: rerunning this on a later commit would make
the check compare the program with itself. For theorem-ladder, lemma-grid and
gamma-families the files hold every claim any seed can draw; for
identity-fuzz they hold the default seed's cases.
"""

from __future__ import annotations

import workloads as w
from run import DEFAULT_SEED, GOLDEN


def main() -> None:
    claims = {
        "theorem-ladder": w.ladder_claims("full", list),
        "lemma-grid": w.inputs("lemma-grid", DEFAULT_SEED),
        "gamma-families": w.gamma_claims("full", list),
        "identity-fuzz": w.inputs("identity-fuzz", DEFAULT_SEED),
    }
    GOLDEN.mkdir(exist_ok=True)
    for name, todo in claims.items():
        out = w.run(name, todo)
        if out.errors:
            raise SystemExit(f"{name}: claims raised {dict(out.errors)}")
        (GOLDEN / f"{name}.jsonl").write_bytes(out.stream)
        print(f"{name}: {len(out.stream.splitlines())} reports")


if __name__ == "__main__":
    main()
