"""Independent output check for compiled programs.

Reads an emitted executable (OpenQASM 2.0, Quil or UMD trapped-ion
assembly) as text and checks it against the device it targets, with
its own parsers, textbook gate matrices and a noise-free statevector
simulator.  Nothing here imports ``repro.sim`` or ``repro.ir.gates``:
a fault shared by the compiler and its simulator cannot hide itself.

Three checks, each returning human-readable problems (empty = pass):

* every gate is in the vendor's native set (paper Fig. 2);
* every 2Q gate acts on a coupled pair of the device, in a hardware
  direction where the device is directed (IBM cross-resonance CNOT);
* through the program's own measurement wiring, the known answer has
  probability 1 (within ``ANSWER_TOLERANCE``).
"""

from __future__ import annotations

import ast
import math
import operator
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

ANSWER_TOLERANCE = 1e-9

#: Native gates per vendor family (paper Fig. 2).  Rigetti's RX is
#: native only at +-pi/2; RZ is virtual on every vendor.
NATIVE = {
    "ibm": {"u1", "u2", "u3", "cx"},
    "rigetti": {"rz", "rx", "cz"},
    "umdti": {"rxy", "rz", "xx"},
}
TWO_QUBIT = {"cx", "cz", "xx"}


@dataclass(frozen=True)
class Op:
    """One executable line: a gate, a measurement or a barrier."""

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = ()
    cbit: Optional[int] = None
    line: int = 0


class ProgramError(ValueError):
    """An executable line the checker cannot read."""


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}


def _angle(text: str) -> float:
    """A real from pi-arithmetic such as ``-3*pi/4`` or ``0.125``."""

    def value(node):
        if isinstance(node, ast.Constant) and isinstance(
            node.value, (int, float)
        ):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            inner = value(node.operand)
            return -inner if isinstance(node.op, ast.USub) else inner
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](value(node.left), value(node.right))
        raise ProgramError(f"bad angle {text!r}")

    try:
        return value(ast.parse(text.strip(), mode="eval").body)
    except SyntaxError:
        raise ProgramError(f"bad angle {text!r}") from None


_QASM_GATE = re.compile(
    r"^(?P<name>[a-z][a-z0-9_]*)\s*(?:\((?P<params>[^)]*)\))?\s+"
    r"(?P<args>[a-z]\w*\[\d+\](?:\s*,\s*[a-z]\w*\[\d+\])*)$"
)
_QASM_MEASURE = re.compile(r"^measure\s+\w+\[(\d+)\]\s*->\s*\w+\[(\d+)\]$")


def parse_openqasm(text: str) -> List[Op]:
    ops: List[Op] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//")[0].strip().rstrip(";").strip()
        if not line or line.startswith(
            ("OPENQASM", "include", "qreg", "creg", "barrier")
        ):
            continue
        match = _QASM_MEASURE.match(line)
        if match:
            ops.append(Op("measure", (int(match[1]),), cbit=int(match[2]),
                          line=lineno))
            continue
        match = _QASM_GATE.match(line)
        if not match:
            raise ProgramError(f"line {lineno}: cannot read {raw!r}")
        params = tuple(
            _angle(p) for p in (match["params"] or "").split(",") if p.strip()
        )
        qubits = tuple(int(q) for q in re.findall(r"\[(\d+)\]", match["args"]))
        ops.append(Op(match["name"], qubits, params, line=lineno))
    return ops


_QUIL_GATE = re.compile(
    r"^(?P<name>[A-Z]+)(?:\((?P<param>[^)]*)\))?(?P<args>(?:\s+\d+)+)$"
)
_QUIL_MEASURE = re.compile(r"^MEASURE\s+(\d+)\s+\w+\[(\d+)\]$")


def parse_quil(text: str) -> List[Op]:
    ops: List[Op] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line or line.startswith(("DECLARE", "PRAGMA")):
            continue
        match = _QUIL_MEASURE.match(line)
        if match:
            ops.append(Op("measure", (int(match[1]),), cbit=int(match[2]),
                          line=lineno))
            continue
        match = _QUIL_GATE.match(line)
        if not match:
            raise ProgramError(f"line {lineno}: cannot read {raw!r}")
        params = (_angle(match["param"]),) if match["param"] else ()
        qubits = tuple(int(q) for q in match["args"].split())
        ops.append(Op(match["name"].lower(), qubits, params, line=lineno))
    return ops


_UMD_MEASURE = re.compile(r"^MEAS\s+Q(\d+)\s*->\s*C(\d+)$")


def parse_umdti_asm(text: str) -> List[Op]:
    """UMD assembly: one pulse per line, angles in units of pi."""
    ops: List[Op] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";")[0].split("#")[0].strip()
        if not line or line == "SYNC":
            continue
        match = _UMD_MEASURE.match(line)
        if match:
            ops.append(Op("measure", (int(match[1]),), cbit=int(match[2]),
                          line=lineno))
            continue
        words = line.split()
        qubits = tuple(int(w[1:]) for w in words[1:] if re.fullmatch(r"Q\d+", w))
        numbers = [w for w in words[1:] if not re.fullmatch(r"Q\d+", w)]
        try:
            params = tuple(float(w) * math.pi for w in numbers)
        except ValueError:
            raise ProgramError(f"line {lineno}: cannot read {raw!r}") from None
        if not qubits:
            raise ProgramError(f"line {lineno}: cannot read {raw!r}")
        ops.append(Op(words[0].lower(), qubits, params, line=lineno))
    return ops


PARSERS = {
    "ibm": parse_openqasm,
    "rigetti": parse_quil,
    "umdti": parse_umdti_asm,
}


# ----------------------------------------------------------------------
# Textbook gate matrices
# ----------------------------------------------------------------------
def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _rxy(theta: float, phi: float) -> np.ndarray:
    """exp(-i theta/2 (cos(phi) X + sin(phi) Y)), the ion equatorial pulse."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -1j * np.exp(-1j * phi) * s],
            [-1j * np.exp(1j * phi) * s, c],
        ],
        dtype=complex,
    )


_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_XX_PAULI = np.kron(
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
)


def _xx(chi: float) -> np.ndarray:
    """The Ising (Molmer-Sorensen) gate exp(-i chi X(x)X)."""
    return math.cos(chi) * np.eye(4) - 1j * math.sin(chi) * _XX_PAULI


def gate_matrix(op: Op) -> np.ndarray:
    """The unitary of one native gate; first qubit is the high bit."""
    p = op.params
    arity = {"u1": 1, "u2": 2, "u3": 3, "rz": 1, "rx": 1, "rxy": 2,
             "xx": 1, "cx": 0, "cz": 0}
    if op.name not in arity or len(p) != arity[op.name]:
        raise ProgramError(f"line {op.line}: no matrix for {op.name}{p}")
    if op.name == "u1":
        return np.diag([1, np.exp(1j * p[0])])
    if op.name == "u2":
        return _u3(math.pi / 2, p[0], p[1])
    if op.name == "u3":
        return _u3(*p)
    if op.name == "rz":
        return _rz(p[0])
    if op.name == "rx":
        return _rx(p[0])
    if op.name == "rxy":
        return _rxy(*p)
    if op.name == "xx":
        return _xx(p[0])
    return _CX if op.name == "cx" else _CZ


# ----------------------------------------------------------------------
# Noise-free statevector simulation over the touched qubits only
# ----------------------------------------------------------------------
def answer_probability(ops: Sequence[Op], correct: str) -> float:
    """P(classical register reads ``correct``) for a noise-free run.

    ``correct[j]`` is the bit measured into classical bit ``j``.
    """
    touched = sorted({q for op in ops for q in op.qubits})
    axis = {q: i for i, q in enumerate(touched)}
    n = len(touched)
    state = np.zeros((2,) * n, dtype=complex)
    state[(0,) * n] = 1.0
    wiring: Dict[int, int] = {}
    for op in ops:
        if op.name == "measure":
            wiring[op.cbit] = axis[op.qubits[0]]
            continue
        matrix = gate_matrix(op)
        k = len(op.qubits)
        axes = [axis[q] for q in op.qubits]
        tensor = matrix.reshape((2,) * (2 * k))
        state = np.tensordot(tensor, state, axes=(list(range(k, 2 * k)), axes))
        state = np.moveaxis(state, list(range(k)), axes)
    probs = np.abs(state) ** 2
    index = [slice(None)] * n
    for cbit, bit in enumerate(correct):
        if cbit not in wiring:
            return 0.0
        index[wiring[cbit]] = int(bit)
    return float(probs[tuple(index)].sum())


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------
def _is_half_pi_turn(theta: float) -> bool:
    turns = theta / (math.pi / 2)
    return abs(turns - round(turns)) < 1e-9 and round(turns) % 4 in (1, 3)


def check_program(
    text: str,
    family: str,
    num_qubits: int,
    hardware_pairs: Iterable[Tuple[int, int]],
    correct: Optional[str] = None,
) -> List[str]:
    """Every problem found in one emitted program (empty: it passes).

    ``hardware_pairs`` lists the ``(a, b)`` 2Q directions the device
    drives; an undirected device lists both orders.  With ``correct``
    given, the known answer must come out with probability 1.
    """
    try:
        ops = PARSERS[family](text)
    except ProgramError as exc:
        return [str(exc)]
    allowed = set(hardware_pairs)
    problems: List[str] = []
    measured: Dict[int, int] = {}
    for op in ops:
        where = f"line {op.line} {op.name}{op.qubits}"
        if any(not 0 <= q < num_qubits for q in op.qubits):
            problems.append(f"{where}: qubit outside the {num_qubits}-qubit device")
            continue
        if op.name == "measure":
            if op.cbit in measured.values():
                problems.append(f"{where}: classical bit {op.cbit} written twice")
            measured[op.qubits[0]] = op.cbit
            continue
        if op.name not in NATIVE[family]:
            problems.append(f"{where}: not a native {family} gate")
            continue
        if family == "rigetti" and op.name == "rx" and not _is_half_pi_turn(
            op.params[0]
        ):
            problems.append(f"{where}: RX({op.params[0]:.6g}) is not +-pi/2")
        if any(q in measured for q in op.qubits):
            problems.append(f"{where}: gate after measurement")
        if len(op.qubits) != (2 if op.name in TWO_QUBIT else 1):
            problems.append(f"{where}: wrong number of qubits")
        elif len(op.qubits) == 2 and op.qubits not in allowed:
            problems.append(f"{where}: pair not coupled in this direction")
    if correct is None or problems:
        return problems
    if sorted(measured.values()) != list(range(len(correct))):
        return [
            f"measures classical bits {sorted(measured.values())}, "
            f"answer has {len(correct)}"
        ]
    probability = answer_probability(ops, correct)
    if abs(probability - 1.0) > ANSWER_TOLERANCE:
        problems.append(
            f"known answer {correct} has probability {probability:.12f}"
        )
    return problems


def device_spec(device) -> Tuple[str, int, FrozenSet[Tuple[int, int]]]:
    """``(family, num_qubits, hardware_pairs)`` of a repro Device."""
    topology = device.topology
    pairs = set()
    for edge in topology.edges():
        a, b = sorted(edge)
        for pair in ((a, b), (b, a)):
            if topology.supports_direction(*pair):
                pairs.add(pair)
    return device.vendor.value, device.num_qubits, frozenset(pairs)
