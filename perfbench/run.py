"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 50 --trace 0

Run from the repository root.  Workloads: ``study``, ``compile`` and
``service`` (see README.md); ``BENCHMARK.json`` lists the first two,
whose figures are steady enough to gate a change.  A run repeats the
workload's fixed set of operations in whole rounds while the next round
still fits in ``--seconds``, and times set-up in fresh processes between
rounds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, with the
traced-minus-untraced round wall time as ``trace.overhead_s``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a human summary goes to
standard error.  Spans of the traced rounds are written to
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: One BLAS thread in this process and in every process it starts (the
#: daemon, the set-up probes).  With a thread per core, the statevector
#: kernels' BLAS threads compete with each other and with the daemon's
#: executors on a 2-core machine: `study` rounds then took 6.5 to 13.6 s
#: for the same work, against 6.6 to 8.2 s with one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "two_qubit_gates_total": "count",
    "one_qubit_pulses_total": "count",
}
SERVICE_METRICS = (
    "service.queue_wait_s", "service.execute_s", "service.transport_s",
    "service.memory_hits", "service.coalesced", "service.misses",
    "service.wal_records",
)
#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Hard stop below the 180 s a run may take.
WATCHDOG_S = 170


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith(".bytes") else "count"


def per_layer_metrics(workload: str):
    from tracing import LAYER_METRICS

    service = SERVICE_METRICS if workload == "service" else ()
    return LAYER_METRICS + ("experiments.overhead_s",) + service + (
        "trace.overhead_s",
    )


class Timeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise Timeout(f"run exceeded {WATCHDOG_S} s")


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


def run_rounds(workload, seconds: float, trace: bool):
    """Whole rounds until the next one would overrun ``seconds``.

    The next round is expected to take as long as the last one did.
    Output checks and set-up samples are not counted.  With ``trace``
    the rounds alternate untraced, traced, ... and at least one of each
    runs.  The first round's outputs are checked.  Without ``trace``,
    set-up is sampled between rounds, so the samples spread over the
    run; a first, untimed sample writes the bytecode.  Returns the
    rounds and the set-up samples.
    """
    from tracing import Recorder, install

    rounds, setup = [], []
    if not trace:
        workload.setup_sample()
        setup.append(workload.setup_sample())
    measured = 0.0
    while True:
        traced = trace and len(rounds) % 2 == 1
        iteration = time.perf_counter()
        recorder = installation = None
        if traced:
            recorder = Recorder()
            if workload.name != "service":  # the daemon traces itself
                installation = install(recorder)
        try:
            result = workload.run_round(recorder, check=not rounds)
        finally:
            if installation is not None:
                installation.remove()
        if traced and workload.name != "service":
            result.layers = {**recorder.layer_totals(), **result.layers}
            result.trace = recorder.to_json()
        rounds.append((traced, result))
        took = time.perf_counter() - iteration - result.check_s
        measured += took
        if not trace and len(setup) < SETUP_SAMPLES:
            setup.append(workload.setup_sample())
        if trace and len(rounds) < 2:
            continue
        if measured + took > seconds:
            break
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(workload.setup_sample())
    return rounds, setup


def summarize(name, setup, rounds, trace):
    """The metrics dict, problems found, and attempted/failed totals."""
    first = rounds[0][1]
    problems = list(first.problems)
    for index, (_, result) in enumerate(rounds[1:], start=2):
        if result.fingerprint != first.fingerprint:
            problems.append(f"round {index} outputs differ from round 1")
    attempted = sum(r.attempted for _, r in rounds)
    failed = sum(r.failed for _, r in rounds)
    if not trace:
        # Each operation's median over the rounds, so that a slow spell
        # of the machine during one round moves no operation by itself.
        per_op = {}
        for _, r in rounds:
            for key, latency in r.latencies.items():
                per_op.setdefault(key, []).append(latency)
        latencies = [statistics.median(v) for v in per_op.values()]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.wall_s for _, r in rounds),
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": statistics.quantiles(latencies, n=10)[8],
            # Over the first round: later rounds in the same process
            # would add allocator growth that depends on the round count.
            "peak_rss_mb": first.peak_rss_mb,
            "two_qubit_gates_total": first.two_qubit,
            "one_qubit_pulses_total": first.one_qubit,
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
        return metrics, problems, attempted, failed, len(latencies)
    traced = [r for t, r in rounds if t]
    plain = [r for t, r in rounds if not t]
    metrics = {}
    for metric in per_layer_metrics(name):
        if metric == "trace.overhead_s":
            value = (statistics.median(r.wall_s for r in traced)
                     - statistics.median(r.wall_s for r in plain))
        else:
            middle = statistics.median if metric.endswith("_s") else statistics.median_low
            value = middle(r.layers.get(metric, 0) for r in traced)
        metrics[metric] = {"value": value, "unit": layer_unit(metric)}
    return metrics, problems, attempted, failed, sum(len(r.latencies) for r in traced)


def print_summary(name, metrics, rounds, samples, trace):
    out = sys.stderr
    walls = ", ".join(
        f"{r.wall_s:.3f}{'T' if t else ''}" for t, r in rounds
    )
    print(f"perfbench {name}: {len(rounds)} rounds ({walls} s; T = traced), "
          f"{samples} latency samples", file=out)
    if trace:
        traced = [r for t, r in rounds if t]
        wall = statistics.median(r.wall_s for r in traced)
        groups = {}
        for metric, entry in metrics.items():
            if entry["unit"] == "s" and metric not in (
                "trace.overhead_s", "experiments.overhead_s",
            ) and not metric.startswith("service."):
                group = metric.split(".")[0]
                groups[group] = groups.get(group, 0.0) + entry["value"]
        print(f"  traced round wall {wall:.3f} s; self time share by layer "
              "(other: operation roots and code between the wrapped calls):",
              file=out)
        if name != "service":  # the daemon's two executors overlap
            groups["other"] = wall - sum(groups.values())
        for group, value in sorted(groups.items(), key=lambda kv: -kv[1]):
            print(f"    {group:<12} {value:9.3f} s  {100 * value / wall:5.1f}%",
                  file=out)
    for metric, entry in metrics.items():
        print(f"  {metric:<28} {entry['value']:>14.6g} {entry['unit']}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _raise_timeout)
    signal.signal(signal.SIGTERM, _raise_exit)
    signal.alarm(WATCHDOG_S)
    out_dir = ROOT / ".bench_build" / "perfbench"
    workdir = out_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, args.seed, workdir)
    try:
        workload.prepare()
        rounds, setup = run_rounds(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
        signal.alarm(0)
    metrics, problems, attempted, failed, samples = summarize(
        args.workload, setup, rounds, bool(args.trace)
    )
    traces = [r.trace for t, r in rounds if t]
    if traces:
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps({"rounds": traces}), encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)
    print_summary(args.workload, metrics, rounds, samples, bool(args.trace))
    for problem in problems[:20]:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
