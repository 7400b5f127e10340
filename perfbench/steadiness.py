"""Run one workload N times and show how steady each metric is.

    python3 perfbench/steadiness.py --workload infer_sweep --runs 10

Each run is a fresh ``run.py`` process with its own seed (``--first-seed``,
``--first-seed + 1``, ...) that measures for ``run_seconds`` of the
repository's ``BENCHMARK.json``, the run length the bounds there are
set for. For every end-to-end metric the script
prints the median, the quartiles (``statistics.quantiles(n=4)``), the
interquartile range and the max−min spread, both as a share of the
median, once for the reported (drift-normalized) value and once for the
raw wall-clock value, so the effect of the drift correction stays
visible.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
        timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    raw = next(line for line in lines if line.startswith("raw: "))
    return {"result": json.loads(lines[-1]), "raw": json.loads(raw[5:])}


def describe(values: List[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    if not median:
        return f"median {median:.6g}"
    return (
        f"median {median:10.6g}  q1 {q1:10.6g}  q3 {q3:10.6g}  "
        f"iqr {(q3 - q1) / median:6.1%}  max-min "
        f"{(max(values) - min(values)) / median:6.1%}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        run = run_once(args.workload, seed, seconds)
        result = run["result"]
        print(
            f"seed {seed}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} "
            f"calib_ms={run['raw']['calib_ms']:.3f}",
            flush=True,
        )
        runs.append(run)
    for name in runs[0]["result"]["metrics"]:
        unit = runs[0]["result"]["metrics"][name]["unit"]
        normalized = [r["result"]["metrics"][name]["value"] for r in runs]
        raw = [r["raw"][name] for r in runs]
        print(f"{name} ({unit})")
        print(f"  normalized  {describe(normalized)}")
        print(f"  raw         {describe(raw)}")
    calib = [r["raw"]["calib_ms"] for r in runs]
    print(f"host.calib_ms\n  raw         {describe(calib)}")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
