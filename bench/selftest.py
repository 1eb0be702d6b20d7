"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Every workload runs one pass untraced and one traced, in this process.
Each run must pass its correctness checks (the traced one includes the
byte-identical-outputs check) and report exactly the metrics
``BENCHMARK.json`` names, each with its unit; end-to-end values must be
nonzero.  ``metrics.json`` must describe exactly the metrics
``BENCHMARK.json`` names.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main():
    import run

    run.pin_environment()
    from workloads import TINY

    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(BENCH / "metrics.json", encoding="utf-8") as fh:
        described = json.load(fh)
    failures = []
    listed = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    if listed != set(described):
        failures.append("BENCHMARK.json and metrics.json differ on "
                        f"{sorted(listed ^ set(described))}")
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, part in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "1",
                                 "--seconds", "0", "--trace", str(trace)],
                                sizes=TINY)
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            tag = f"{workload} --trace {trace}"
            if code != 0 or not result["correct"] or result["attempted"] < 1:
                failures.append(f"{tag}: exit {code}, "
                                + "; ".join(l for l in lines if l.startswith("problem")))
            want = {m["name"]: m["unit"] for m in bench[part]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if part == "end_to_end":
                zero = [k for k, v in result["metrics"].items()
                        if not (math.isfinite(v["value"]) and v["value"] != 0)]
                if zero:
                    failures.append(f"{tag}: zero or non-finite {zero}")
            print(f"{tag}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    for failure in failures:
        print("FAIL " + failure)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
