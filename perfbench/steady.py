"""Steadiness of the benchmark: run one workload repeatedly and summarise each metric.

    python3 perfbench/steady.py --workload inria-many --runs 10

Runs ``perfbench/run.py --trace 0`` once per seed 1..runs, one run at a
time, with the run length from ``BENCHMARK.json``. For every end-to-end
metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``), the spread ``(q3 - q1) / median``, and
the bound from ``BENCHMARK.json`` and a third of it. It also prints the share of
failed operations. The raw results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be positive")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: exit code {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    out = BENCH / "out" / f"steady-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{args.workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed shares: {shares}")
    print(f"{'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6} {'bound/3':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        spread = (q3 - q1) / mid if mid else float("nan")
        bound = bounds[name]
        print(f"{name:32} {results[0]['metrics'][name]['unit']:6} {mid:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.4f} {bound:6.3f} {bound / 3:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
