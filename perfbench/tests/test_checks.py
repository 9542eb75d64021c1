"""The benchmark's checks must be able to fail.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import re

import pytest

import oracle
import workloads
from repro import api


def compiled(benchmark, device, level="1QOptCN"):
    result = api.compile(benchmark, device=device, level=level)
    return result.executable, result.correct


@pytest.mark.parametrize("device", ["tenerife", "agave", "umd"])
def test_correct_programs_pass(device):
    check = workloads.device_checker(device)
    for bench in ("BV4", "Fredkin", "Adder"):
        text, correct = compiled(bench, device)
        assert check(text, correct) == []


def _two_qubit_lines(text):
    return [i for i, line in enumerate(text.splitlines())
            if re.match(r"^(cx |CZ |XX )", line)]


# Programs placed without swaps, so every 2Q gate changes the answer
# (a swap's CNOT onto a |0> qubit can be dropped without effect).
@pytest.mark.parametrize("device, bench", [
    ("tenerife", "BV4"), ("agave", "HS4"), ("umd", "BV4"),
])
def test_dropped_gate_is_rejected(device, bench):
    check = workloads.device_checker(device)
    text, correct = compiled(bench, device)
    assert _two_qubit_lines(text)
    lines = text.splitlines()
    for index in _two_qubit_lines(text):
        mutant = "\n".join(lines[:index] + lines[index + 1:])
        assert any("probability" in p for p in check(mutant, correct))


def test_uncoupled_pair_is_rejected():
    check = workloads.device_checker("tenerife")
    text, correct = compiled("BV4", "tenerife")
    pairs = oracle.device_spec(_device("tenerife"))[2]
    a, b = next((a, b) for a in range(5) for b in range(5)
                if a != b and (a, b) not in pairs and (b, a) not in pairs)
    mutant = re.sub(r"^cx q\[\d+\],q\[\d+\];", f"cx q[{a}],q[{b}];", text,
                    count=1, flags=re.MULTILINE)
    assert any("not coupled" in p for p in check(mutant, correct))


def test_reversed_ibm_cnot_is_rejected():
    check = workloads.device_checker("tenerife")
    text, correct = compiled("BV4", "tenerife")
    mutant = re.sub(r"^cx q\[(\d+)\],q\[(\d+)\];", r"cx q[\2],q[\1];", text,
                    count=1, flags=re.MULTILINE)
    assert any("not coupled" in p for p in check(mutant, correct))


@pytest.mark.parametrize("device, line", [
    ("tenerife", "h q[0];"),
    ("agave", "RX(pi/4) 0"),
    ("agave", "H 0"),
    ("umd", "CNOT Q0 Q1"),
])
def test_non_native_gate_is_rejected(device, line):
    check = workloads.device_checker(device)
    text, correct = compiled("BV4", device)
    lines = text.splitlines()
    mutant = "\n".join(lines[:2] + [line] + lines[2:])
    problems = check(mutant, correct)
    assert any("native" in p or "+-pi/2" in p for p in problems)


@pytest.mark.parametrize("device, measure", [
    ("tenerife", r"^(measure q\[\d+\] -> c\[)(\d+)(\];)$"),
    ("agave", r"^(MEASURE \d+ ro\[)(\d+)(\])$"),
    ("umd", r"^(MEAS Q\d+ -> C)(\d+)()$"),
])
def test_wrong_measurement_wiring_is_rejected(device, measure):
    check = workloads.device_checker(device)
    text, correct = compiled("Fredkin", device)  # answer 101
    assert check(text, correct) == []
    swap = {"0": "1", "1": "0"}
    mutant = re.sub(
        measure,
        lambda m: m[1] + swap.get(m[2], m[2]) + m[3],
        text, flags=re.MULTILINE,
    )
    assert any("probability" in p for p in check(mutant, correct))


def test_supremacy_circuit_gets_coupling_and_gate_set_checks():
    from repro.devices import google_bristlecone_72
    from repro.programs import supremacy_circuit

    grid = google_bristlecone_72()
    text = api.compile(circuit=supremacy_circuit(16, 4, seed=1),
                       device=grid, level="N").executable
    check = workloads.device_checker(grid)
    assert check(text, None) == []
    assert any("native" in p for p in check(text + "h q[0];\n", None))


def test_raising_operation_counts_as_failed_and_round_finishes(tmp_path):
    workload = workloads.Compile(tmp_path, seed=1, workdir=tmp_path)
    workload.checkers = {"tenerife": workloads.device_checker("tenerife")}

    def broken():
        raise RuntimeError("injected")

    text, correct = compiled("BV4", "tenerife")
    workload.ops = [
        ("broken", broken, "tenerife", correct),
        ("BV4/tenerife/1QOptCN",
         lambda: api.compile("BV4", device="tenerife", level="1QOptCN"),
         "tenerife", correct),
    ]
    result = workload.run_round(None, check=True)
    assert (result.attempted, result.failed) == (2, 1)
    assert len(result.latencies) == 1
    assert result.problems == []


def _device(name):
    from repro.devices import device_by_name

    return device_by_name(name)
