"""Steadiness check: two interleaved sets of runs of the same code.

    python3 perfbench/steady.py --runs 10 [--workloads study,compile,service]

For each workload, runs ``perfbench/run.py`` ``2 x runs`` times with
``--trace 0``, alternating set A and set B, each run on its own seed
(set A takes seeds 1..runs, set B runs+1..2*runs).  Prints, per
metric, each set's median and its quartile spread (distance between
the first and third quartile over the median), the shift of B's median
from A's, and the metric's bound from ``BENCHMARK.json``.  A spread
above the bound, or a shift worse than the bound, marks the row FAIL.
This output is the evidence behind the bounds in ``BENCHMARK.json``.
The share of failed operations must be identical across all runs.
Every run's result is kept in ``.bench_build/perfbench/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=240,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - started
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for index in range(args.runs):
            for name, offset in (("A", 1), ("B", args.runs + 1)):
                result = run_once(workload, index + offset, spec["run_seconds"])
                sets[name].append(result)
                print(f"{workload} set {name} seed {index + offset}: "
                      f"wall_s {result['metrics']['wall_s']['value']:.3f} "
                      f"correct {result['correct']} "
                      f"failed {result['failed']}/{result['attempted']} "
                      f"in {result['run_s']:.1f} s",
                      file=sys.stderr, flush=True)
        raw = ROOT / ".bench_build" / "perfbench" / f"steady-{workload}.json"
        raw.parent.mkdir(parents=True, exist_ok=True)
        raw.write_text(json.dumps(sets), encoding="utf-8")
        results = sets["A"] + sets["B"]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {args.runs} runs per set; correct in every run: "
              f"{correct}; failed share(s): {sorted(shares)}")
        ok &= correct and len(shares) == 1
        print(f"  {'metric':<24}{'median A':>12}{'spread A':>10}"
              f"{'median B':>12}{'spread B':>10}{'B vs A':>9}{'bound':>7}")
        for metric, (bound, better) in bounds.items():
            a = [r["metrics"][metric]["value"] for r in sets["A"]]
            b = [r["metrics"][metric]["value"] for r in sets["B"]]
            shift = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            worse = shift if better == "lower" else -shift
            verdict = "ok"
            if metric != "setup_s" and max(spread(a), spread(b)) > bound:
                verdict = "FAIL spread"
            if worse > bound:
                verdict = "FAIL shift"
            ok &= verdict == "ok"
            print(f"  {metric:<24}{statistics.median(a):>12.5g}"
                  f"{100 * spread(a):>9.2f}%{statistics.median(b):>12.5g}"
                  f"{100 * spread(b):>9.2f}%{100 * shift:>8.2f}%"
                  f"{bound:>7.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
