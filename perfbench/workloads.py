"""The three workloads: ``study``, ``compile`` and ``service``.

Each workload builds a fixed list of operations from its seed in
:meth:`Workload.prepare`, then runs that whole list once per round.
Every round does the same work, so rounds (and runs) differ only in
how long they took.  Outputs of the first round are checked with the
independent oracle (:mod:`oracle`); later rounds must reproduce the
first round's outputs exactly.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import oracle
import repro.experiments.parallel  # noqa: F401 - api.sweep's engine, loaded before any timing
from repro import api
from repro.cache import CacheStats, open_cache, success_key
from repro.compiler import CompiledProgram
from repro.devices import device_by_name, google_bristlecone_72
from repro.experiments.runner import DEFAULT_MC_SEED, artifact_key, resolve_compiler
from repro.programs import standard_suite, supremacy_circuit
from repro.programs.scaffold_sources import SCAFFOLD_SUITE
from tracing import Recorder, layer_totals

LEVELS = ("N", "1QOpt", "1QOptC", "1QOptCN")
DEVICES = (
    "tenerife", "melbourne", "rueschlikon", "agave", "aspen1", "aspen3", "umd",
)
SMALL_DEVICES = ("tenerife", "agave", "umd")
VENDOR_BASELINE = {"ibm": "Qiskit", "rigetti": "Quil"}

#: A service result's fields that legitimately differ from an
#: in-process call: timing and cache provenance.
VOLATILE_FIELDS = ("compile_time_s", "cache_hit")


@dataclass
class RoundResult:
    """One round: its wall time, per-operation latencies and outputs."""

    wall_s: float
    #: Operation key -> latency, for the operations that succeeded.
    #: Keys are the same in every round, so each operation's latency
    #: can be taken as its median over the rounds.
    latencies: Dict[Any, float]
    attempted: int
    failed: int
    two_qubit: int
    one_qubit: int
    #: Deterministic per-operation outputs; rounds must agree on it.
    fingerprint: List[Any]
    problems: List[str] = field(default_factory=list)
    #: Per-layer totals (traced rounds only).
    layers: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: Spans and counters of a traced round (:meth:`Recorder.to_json`).
    trace: Optional[Dict[str, Any]] = None
    #: Time spent checking outputs after the round (not part of it).
    check_s: float = 0.0


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def device_checker(name_or_device) -> Callable[[str, Optional[str]], List[str]]:
    """``check(executable, correct)`` for one device."""
    device = (
        device_by_name(name_or_device)
        if isinstance(name_or_device, str) else name_or_device
    )
    family, num_qubits, pairs = oracle.device_spec(device)

    def check(text: str, correct: Optional[str]) -> List[str]:
        return oracle.check_program(text, family, num_qubits, pairs, correct)

    return check


def suite_fitting(device_name: str) -> List[str]:
    """Suite benchmarks that fit the device, in suite order."""
    size = device_by_name(device_name).num_qubits
    return [b.name for b in standard_suite() if b.num_qubits <= size]


def vendor_baseline(device_name: str) -> Optional[str]:
    return VENDOR_BASELINE.get(device_by_name(device_name).vendor.value)


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.rounds_run = 0

    def prepare(self) -> None:
        raise NotImplementedError

    def setup_sample(self) -> float:
        """The set-up time of one fresh process."""
        out = subprocess.run(
            [sys.executable, str(self.root / "perfbench" / "setup_probe.py"),
             self.name],
            cwd=self.root, env=child_env(self.root),
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])["setup_s"]

    def run_round(self, recorder: Optional[Recorder], check: bool) -> RoundResult:
        raise NotImplementedError

    def close(self) -> None:
        pass


def run_ops(
    ops: Sequence[Tuple[str, Callable[[], Any]]],
    recorder: Optional[Recorder],
) -> Tuple[List[Tuple[str, float, Any]], float]:
    """Run operations in order; an operation that raises is recorded
    with ``None`` as its outcome and the loop goes on."""
    done = []
    started = time.perf_counter()
    for label, fn in ops:
        span = recorder.open("op", label=label) if recorder else None
        t0 = time.perf_counter()
        try:
            outcome = fn()
        except Exception as exc:  # noqa: BLE001 - counted as failed
            outcome = None
            print(f"perfbench: {label} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        latency = time.perf_counter() - t0
        if span is not None:
            recorder.close(span)
        done.append((label, latency, outcome))
    return done, time.perf_counter() - started


# ----------------------------------------------------------------------
# study: the paper's evaluation loop through repro.api.sweep
# ----------------------------------------------------------------------
#: (device, compilers, benchmarks or None for the whole suite).  The
#: <=5-qubit devices run the full suite under the four TriQ levels and
#: the vendor baseline; the 14/16-qubit cells add full-width simulation.
STUDY_SWEEPS: Tuple[Tuple[str, Tuple[str, ...], Optional[Tuple[str, ...]]], ...] = (
    ("tenerife", LEVELS + ("Qiskit",), None),
    ("agave", LEVELS + ("Quil",), None),
    ("umd", LEVELS, None),
    ("melbourne", LEVELS + ("Qiskit",), ("HS2",)),
    ("melbourne", ("1QOptC", "1QOptCN"), ("BV4",)),
    ("rueschlikon", ("1QOptC", "1QOptCN"), ("HS2", "BV4")),
)


class Study(Workload):
    name = "study"

    def prepare(self) -> None:
        self.sweeps = list(STUDY_SWEEPS)
        self.rng.shuffle(self.sweeps)
        self.cells = {}
        for device, compilers, benchmarks in self.sweeps:
            fitting = suite_fitting(device)
            names = [b for b in (benchmarks or fitting) if b in fitting]
            self.cells[(device, compilers, benchmarks)] = len(names) * len(compilers)

    def run_round(self, recorder, check):
        cache_dir = self.workdir / f"study-cache-{self.rounds_run}"
        self.rounds_run += 1
        ops = [
            (f"sweep:{device}:{','.join(compilers)}",
             lambda d=device, c=compilers, b=benchmarks: api.sweep(
                 d, list(c), benchmarks=list(b) if b else None,
                 cache_dir=str(cache_dir), workers=1,
             ))
            for device, compilers, benchmarks in self.sweeps
        ]
        done, wall = run_ops(ops, recorder)
        result = RoundResult(wall, {}, 0, 0, 0, 0, [])
        overhead = 0.0
        for (device, compilers, benchmarks), (_, _, sweep) in zip(self.sweeps, done):
            expected = self.cells[(device, compilers, benchmarks)]
            result.attempted += expected
            if sweep is None:
                result.failed += expected
                continue
            result.failed += expected - len(sweep.measurements)
            tasks = [t for t in sweep.report.tasks if not t.resumed]
            result.latencies.update(
                ((t.benchmark, t.device, t.compiler), t.elapsed_s) for t in tasks
            )
            overhead += sweep.total_time_s - sum(t.elapsed_s for t in tasks)
            for m in sweep.measurements:
                result.two_qubit += m.two_qubit_gates
                result.one_qubit += m.one_qubit_pulses
                result.fingerprint.append((
                    m.benchmark, m.device, m.compiler, m.two_qubit_gates,
                    m.one_qubit_pulses, m.success_rate,
                ))
        result.layers["experiments.overhead_s"] = overhead
        result.peak_rss_mb = self_peak_rss_mb()
        if check:
            t0 = time.perf_counter()
            result.problems = self._check(done, cache_dir)
            result.check_s = time.perf_counter() - t0
        shutil.rmtree(cache_dir, ignore_errors=True)
        return result

    def _check(self, done, cache_dir) -> List[str]:
        """Check the artifacts each sweep stored in its own cache."""
        cache = open_cache(str(cache_dir))
        problems = []
        for (device_name, _, _), (_, _, sweep) in zip(self.sweeps, done):
            if sweep is None:
                continue
            device = device_by_name(device_name)
            checker = device_checker(device)
            for m in sweep.measurements:
                where = f"study {m.benchmark}/{m.device}/{m.compiler}"
                circuit, correct = api.build_program(m.benchmark)
                payload = cache.get(artifact_key(
                    circuit, device, resolve_compiler(m.compiler), day=m.day,
                ))
                if payload is None:
                    problems.append(f"{where}: no compiled artifact in the cache")
                    continue
                program = CompiledProgram.from_payload(payload, device)
                problems += [
                    f"{where}: {p}"
                    for p in checker(program.executable(), correct)
                ]
                estimate = cache.get(success_key(
                    program.circuit, device, correct, m.day, 100,
                    DEFAULT_MC_SEED,
                ))
                if estimate is None:
                    problems.append(f"{where}: no success estimate in the cache")
                    continue
                if not estimate["esp"] <= m.success_rate <= 1.0:
                    problems.append(
                        f"{where}: success {m.success_rate} outside "
                        f"[ESP {estimate['esp']}, 1]"
                    )
                if estimate["success_rate"] != m.success_rate:
                    problems.append(f"{where}: cached success differs")
        return problems


# ----------------------------------------------------------------------
# compile: repro.api.compile with no cache and no simulation
# ----------------------------------------------------------------------
SUPREMACY_QUBITS = 72
#: Level-N compiles skip the mapping solver (590 and 1082 swaps).
SUPREMACY_DEPTHS = (16, 32)
#: At 1QOptC the exact solver stops on its node budget, repeatably.
SUPREMACY_SOLVER_DEPTH = 16
SCAFFOLD_DEVICES = ("melbourne", "aspen1", "umd")
OPT_FULL_DEVICES = ("rueschlikon", "umd")


class CaptureCache:
    """A cache handle that misses every lookup and keeps what is stored.

    Handed to ``api.sweep`` so a vendor-baseline compile, which
    ``api.compile`` does not offer, yields its program for checking.
    """

    enabled = True
    root = None

    def __init__(self) -> None:
        self.stats = CacheStats()
        self.observer = None
        self.programs: List[Dict[str, Any]] = []

    def get(self, key):
        return None

    def put(self, key, payload) -> None:
        if isinstance(payload, dict) and "instructions" in payload:
            self.programs.append(payload)


class Compile(Workload):
    name = "compile"

    def prepare(self) -> None:
        grid = google_bristlecone_72()
        grid.calibration()
        self.checkers = {d: device_checker(d) for d in DEVICES}
        self.checkers["grid72"] = device_checker(grid)
        ops: List[Tuple[str, Callable, str, Optional[str]]] = []

        def triq(label, device, correct, **kwargs):
            ops.append((label, lambda: api.compile(device=device, **kwargs),
                        "grid72" if device is grid else device, correct))

        for device in DEVICES:
            for bench in suite_fitting(device):
                correct = api.build_program(bench)[1]
                for level in LEVELS:
                    triq(f"{bench}/{device}/{level}", device, correct,
                         benchmark=bench, level=level)
                baseline = vendor_baseline(device)
                if baseline:
                    ops.append((
                        f"{bench}/{device}/{baseline}",
                        lambda d=device, b=bench, c=baseline: self._baseline(d, b, c),
                        device, correct,
                    ))
        for device in SCAFFOLD_DEVICES:
            fitting = suite_fitting(device)
            for bench, (source, defines, correct) in SCAFFOLD_SUITE.items():
                if bench in fitting:
                    triq(f"scaffold:{bench}/{device}/1QOptCN", device, correct,
                         scaffold=source, defines=defines, level="1QOptCN")
        for device in OPT_FULL_DEVICES:
            for bench in suite_fitting(device):
                triq(f"{bench}/{device}/1QOptCN/opt=full", device,
                     api.build_program(bench)[1], benchmark=bench,
                     level="1QOptCN", opt="full")
        for depth in SUPREMACY_DEPTHS:
            circuit = supremacy_circuit(SUPREMACY_QUBITS, depth, seed=SUPREMACY_QUBITS)
            triq(f"supremacy{SUPREMACY_QUBITS}x{depth}/grid72/N", grid, None,
                 circuit=circuit, level="N")
        circuit = supremacy_circuit(
            SUPREMACY_QUBITS, SUPREMACY_SOLVER_DEPTH, seed=SUPREMACY_QUBITS
        )
        triq(f"supremacy{SUPREMACY_QUBITS}x{SUPREMACY_SOLVER_DEPTH}/grid72/1QOptC",
             grid, None, circuit=circuit, level="1QOptC")
        # The 72-qubit compiles go first, in a fixed order: they set the
        # peak RSS, which would otherwise depend on what ran before them.
        wide = [op for op in ops if op[2] == "grid72"]
        rest = [op for op in ops if op[2] != "grid72"]
        self.rng.shuffle(rest)
        self.ops = wide + rest

    @staticmethod
    def _baseline(device: str, bench: str, compiler: str):
        capture = CaptureCache()
        sweep = api.sweep(device, [compiler], benchmarks=[bench],
                          with_success=False, cache=capture, workers=1)
        if sweep.failures or len(capture.programs) != 1:
            raise RuntimeError(f"baseline sweep failed: {sweep.failures}")
        overhead = sweep.total_time_s - sum(t.elapsed_s for t in sweep.report.tasks)
        return sweep.measurements[0], capture.programs[0], overhead

    def run_round(self, recorder, check):
        done, wall = run_ops([(label, fn) for label, fn, _, _ in self.ops], recorder)
        result = RoundResult(wall, {}, len(done), 0, 0, 0, [])
        result.peak_rss_mb = self_peak_rss_mb()
        outputs = []
        overhead = 0.0
        for (label, latency, outcome), (_, _, device, correct) in zip(done, self.ops):
            if outcome is None:
                result.failed += 1
                continue
            result.latencies[label] = latency
            if isinstance(outcome, tuple):  # vendor baseline via api.sweep
                m, text, sweep_overhead = outcome
                two, one = m.two_qubit_gates, m.one_qubit_pulses
                overhead += sweep_overhead
            else:
                two, one = outcome.two_qubit_gates, outcome.one_qubit_pulses
                text = outcome.executable
                if outcome.program is not None:
                    solver = outcome.program.initial_mapping.solver_nodes
                    result.fingerprint.append((label, "nodes", solver))
            result.two_qubit += two
            result.one_qubit += one
            result.fingerprint.append((label, two, one))
            outputs.append((label, device, correct, text))
        result.layers["experiments.overhead_s"] = overhead
        if check:
            t0 = time.perf_counter()
            result.problems = self._check(outputs)
            result.check_s = time.perf_counter() - t0
        return result

    def _check(self, outputs) -> List[str]:
        problems = []
        for label, device, correct, text in outputs:
            if isinstance(text, dict):
                text = CompiledProgram.from_payload(
                    text, device_by_name(device)
                ).executable()
            problems += [
                f"compile {label}: {p}"
                for p in self.checkers[device](text, correct)
            ]
        return problems


# ----------------------------------------------------------------------
# service: the repro serve daemon under a closed loop of 2 clients
# ----------------------------------------------------------------------
SERVICE_CLIENTS = 2
#: Repeat requests per round, drawn with replacement: from the compile
#: pool and from the run pool.  They become memory hits or coalesced
#: duplicates beside the cold compiles.
SERVICE_REPEATS = {"compile": 28, "run": 6}
HTTP_TIMEOUT_S = 120.0


@dataclass
class Job:
    kind: str  # "compile" | "run"
    body: Dict[str, Any]
    device: str
    correct: str

    @property
    def key(self) -> str:
        return json.dumps([self.kind, self.body], sort_keys=True)


def service_jobs() -> List[Job]:
    """The distinct jobs: every device x level with one suite-name and
    one Scaffold compile, and every <=5-qubit device x level with one
    run.  Benchmarks rotate through each device's fitting suite."""
    jobs = []
    for d_index, device in enumerate(DEVICES):
        fitting = suite_fitting(device)
        for l_index, level in enumerate(LEVELS):
            slot = d_index * len(LEVELS) + l_index
            bench = fitting[slot % len(fitting)]
            jobs.append(Job("compile", {
                "benchmark": bench, "device": device, "level": level,
            }, device, api.build_program(bench)[1]))
            name = fitting[(slot + 5) % len(fitting)]
            source, defines, correct = SCAFFOLD_SUITE[name]
            jobs.append(Job("compile", {
                "scaffold": source, "defines": defines, "device": device,
                "level": level,
            }, device, correct))
            if device in SMALL_DEVICES:
                bench = fitting[(slot + 2) % len(fitting)]
                jobs.append(Job("run", {
                    "benchmark": bench, "device": device, "level": level,
                }, device, api.build_program(bench)[1]))
    return jobs


def _strip_volatile(payload: Any) -> Any:
    if isinstance(payload, dict):
        return {
            k: _strip_volatile(v) for k, v in payload.items()
            if k not in VOLATILE_FIELDS
        }
    return payload


def parse_prometheus_counters(text: str) -> Dict[str, float]:
    """``name{labels}`` -> value for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            samples[key] = float(value)
        except ValueError:
            continue
    return samples


class Daemon:
    """One ``repro serve`` child process with a fresh cache directory."""

    def __init__(self, root: Path, workdir: Path, tag: str,
                 dump: Optional[Path]) -> None:
        self.cache_dir = workdir / f"serve-{tag}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        port_file = self.cache_dir / "port"
        args = [
            "serve", "--port", "0", "--port-file", str(port_file),
            "--cache-dir", str(self.cache_dir / "cache"),
        ]
        if dump is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            command = [
                sys.executable, str(root / "perfbench" / "traced_serve.py"),
                str(dump),
            ] + args
        self.log = open(self.cache_dir / "daemon.log", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=root, env=child_env(root),
            stdout=subprocess.DEVNULL, stderr=self.log,
        )
        try:
            self.port = self._wait_healthy(port_file)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def _wait_healthy(self, port_file: Path) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                port = int(text)
                try:
                    status, _ = request(port, "GET", "/healthz")
                except OSError:
                    status = 0
                if status == 200:
                    return port
            time.sleep(0.005)
        raise RuntimeError("daemon did not answer /healthz within 60 s")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def request(port: int, method: str, path: str,
            body: Optional[Dict[str, Any]] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Service(Workload):
    name = "service"

    def prepare(self) -> None:
        self.jobs = service_jobs()
        pools = {kind: [j for j in self.jobs if j.kind == kind]
                 for kind in SERVICE_REPEATS}
        sequence = list(self.jobs)
        for kind, count in SERVICE_REPEATS.items():
            sequence += [self.rng.choice(pools[kind]) for _ in range(count)]
        self.rng.shuffle(sequence)
        self.sequence = sequence
        self.checkers = {d: device_checker(d) for d in DEVICES}
        self.daemon: Optional[Daemon] = None
        self.boots = 0

    def setup_sample(self) -> float:
        """Boot one daemon on a fresh cache until ``/healthz`` answers."""
        daemon = Daemon(self.root, self.workdir, f"boot-{self.boots}", None)
        self.boots += 1
        daemon.stop()
        shutil.rmtree(daemon.cache_dir, ignore_errors=True)
        return daemon.boot_s

    def run_round(self, recorder, check):
        tag = f"round-{self.rounds_run}"
        self.rounds_run += 1
        dump = self.workdir / f"{tag}-spans.json" if recorder else None
        self.daemon = daemon = Daemon(self.root, self.workdir, tag, dump)
        try:
            replies, wall = self._drive(daemon.port)
            metrics = parse_prometheus_counters(
                request(daemon.port, "GET", "/metrics")[1].decode()
            )
            rss = daemon.peak_rss_mb()
        finally:
            daemon.stop()
            self.daemon = None
        result = RoundResult(wall, {}, len(replies), 0, 0, 0, [])
        result.peak_rss_mb = rss
        first_of: Dict[str, Dict[str, Any]] = {}
        queue_wait = execute = transport = 0.0
        for index, (job, latency, status, reply) in enumerate(replies):
            if status != 200 or reply is None:
                result.failed += 1
                continue
            result.latencies[index] = latency
            meta = reply["job"]
            if meta["coalesced_with"] is None:
                queue_wait += meta["started_at"] - meta["submitted_at"]
                execute += meta["finished_at"] - meta["started_at"]
            transport += latency - (meta["finished_at"] - meta["submitted_at"])
            first_of.setdefault(job.key, reply["result"])
            result.fingerprint.append(json.dumps(
                _strip_volatile(reply["result"]), sort_keys=True))
        for job in self.jobs:
            compiled = first_of.get(job.key)
            if compiled is not None:
                compiled = compiled.get("compiled", compiled)
                result.two_qubit += compiled["two_qubit_gates"]
                result.one_qubit += compiled["one_qubit_pulses"]
        result.fingerprint.sort()
        if recorder is not None:
            events = {
                event: metrics.get(
                    f'repro_service_cache_events_total{{event="{event}"}}', 0)
                for event in ("memory_hit", "coalesced", "miss")
            }
            result.layers.update({
                "service.queue_wait_s": queue_wait,
                "service.execute_s": execute,
                "service.transport_s": transport,
                "service.memory_hits": events["memory_hit"],
                "service.coalesced": events["coalesced"],
                "service.misses": events["miss"],
                "service.wal_records": sum(
                    v for k, v in metrics.items()
                    if k.startswith("repro_service_wal_records_total")
                ),
            })
            result.trace = json.loads(dump.read_text())
            result.layers.update(layer_totals(result.trace))
        if check:
            t0 = time.perf_counter()
            result.problems = self._check(replies)
            result.check_s = time.perf_counter() - t0
        shutil.rmtree(daemon.cache_dir, ignore_errors=True)
        return result

    def _drive(self, port: int):
        """Closed loop: each client sends its next job after a reply."""
        replies: List[Any] = [None] * len(self.sequence)
        cursor = iter(range(len(self.sequence)))
        lock = threading.Lock()

        def client() -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                job = self.sequence[index]
                body = dict(job.body, wait=True)
                t0 = time.perf_counter()
                try:
                    status, raw = request(port, "POST", f"/v1/{job.kind}", body)
                    reply = json.loads(raw)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    status, reply = 0, None
                    print(f"perfbench: service job failed: {exc}", file=sys.stderr)
                replies[index] = (job, time.perf_counter() - t0, status, reply)

        threads = [threading.Thread(target=client) for _ in range(SERVICE_CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return replies, time.perf_counter() - started

    def _check(self, replies) -> List[str]:
        """Oracle checks, and every result equals the in-process api's."""
        problems = []
        reference: Dict[str, Any] = {}
        for job in self.jobs:
            params = dict(job.body)
            if job.kind == "compile":
                payload = api.compile(**params).to_payload()
            else:
                payload = api.run(params.pop("benchmark"), **params).to_payload()
            reference[job.key] = _strip_volatile(payload)
        for job, _, status, reply in replies:
            if status != 200 or reply is None:
                continue
            where = f"service {job.kind} {job.body.get('benchmark', 'scaffold')}/{job.device}/{job.body['level']}"
            result = reply["result"]
            if _strip_volatile(result) != reference[job.key]:
                problems.append(f"{where}: differs from the repro.api result")
            compiled = result.get("compiled", result)
            problems += [
                f"{where}: {p}"
                for p in self.checkers[job.device](compiled["executable"], job.correct)
            ]
            if job.kind == "run" and not result["esp"] <= result["success_rate"] <= 1.0:
                problems.append(f"{where}: success outside [ESP, 1]")
        return problems

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


WORKLOADS = {cls.name: cls for cls in (Study, Compile, Service)}
