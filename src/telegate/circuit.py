"""Circuit intermediate representation: gates (optionally classically
controlled), Z-basis measurements, and known-state injection.

Circuits are immutable once built (the builder accumulates and freezes).
Each op holds read-only copies of its arrays, certified when the op is
made, however it is built: a gate matrix is a finite unitary, an injected
state is finite and normalized.  One pass, `_validate`, steps each qubit's
status, once per circuit (`Circuit.status`).  It is total: `validate`
reports violations as data, and `Circuit.check` raises them.  The file
format is JSON ("telegate-circuit/1"); matrix and state element order
follows the global convention with qubit 0 as the most significant index bit.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import gates
from .clifford import is_unitary
from .errors import CircuitFormatError, InvalidCircuitError, TelegateError
from .limits import FLOOR, ZERO, check_width

INPUT_TAGS = ("input", "zero", "inject")

FORMAT_NAME = "telegate-circuit/1"

# Known injected-state labels, resolvable without amplitudes in circuit files.
_SQ2 = 1.0 / np.sqrt(2.0)
STATE_LABELS: dict[str, np.ndarray] = {
    "epr": np.array([_SQ2, 0, 0, _SQ2], dtype=complex),
    "T-ancilla": np.array([_SQ2, _SQ2 * np.exp(1j * np.pi / 4)], dtype=complex),
    "CS-ancilla": np.array([0.5, 0.5, 0.5, 0.5j], dtype=complex),
    "TOFFOLI-ancilla": np.array([0.5, 0, 0.5, 0, 0.5, 0, 0, 0.5], dtype=complex),
}
for _amps in STATE_LABELS.values():
    _amps.flags.writeable = False


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return type(a) is type(b) and bool(np.array_equal(a, b))
    return a == b


class _FieldwiseEq:
    """Equal to an object of the same type whose fields are equal one by
    one; arrays compare by shape and entries.  Instances are unhashable."""

    def __eq__(self, other):
        return type(other) is type(self) and all(
            _same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class GateOp(_FieldwiseEq):
    """A gate; with a condition, applied only when the cbits read the values."""

    targets: tuple[int, ...]
    name: str | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)
    role: str | None = None
    cond_cbits: tuple[int, ...] = ()
    cond_values: tuple[int, ...] = ()

    def __post_init__(self):
        if self.matrix is None:
            return
        m = np.array(self.matrix, dtype=complex)  # a copy: the caller's array stays its own
        if not is_unitary(m, FLOOR):  # NaN and infinite entries fail too
            raise InvalidCircuitError(["gate matrix is not a finite unitary"])
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def resolved_matrix(self) -> np.ndarray:
        return self.matrix if self.matrix is not None else gates.matrix_of(self.name)


@dataclass(frozen=True, eq=False)
class MeasureOp(_FieldwiseEq):
    qubit: int
    cbit: int
    role: str | None = None


@dataclass(frozen=True, eq=False)
class InjectOp(_FieldwiseEq):
    targets: tuple[int, ...]
    amplitudes: np.ndarray = field(repr=False)
    label: str | None = None
    role: str | None = None

    def __post_init__(self):
        arr, norm = gates.scaled_norm(np.asarray(self.amplitudes, dtype=complex).flatten())
        if not np.isfinite(norm):
            raise InvalidCircuitError(["injected state has non-finite amplitudes"])
        if norm < ZERO:
            raise InvalidCircuitError(["injected state has zero norm"])
        if abs(norm - 1.0) > ZERO:  # keep already-normalized vectors bit-stable
            arr = arr / norm
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)


CircuitOp = GateOp | MeasureOp | InjectOp


class QubitStatus(NamedTuple):
    """A circuit's violations, each qubit's status after the last op ('fresh'
    at |0>, 'pending' to inject, 'active' in a branch row, or 'measured'), the
    active qubits before each op and after the last, and the measurements."""
    violations: tuple[str, ...]
    final: tuple[str, ...]
    layout: tuple[tuple[int, ...], ...]
    records: tuple[MeasureOp, ...]


@dataclass(frozen=True, eq=False)
class Circuit(_FieldwiseEq):
    n_qubits: int
    n_cbits: int
    inputs: tuple[str, ...]
    ops: tuple[CircuitOp, ...]

    def __post_init__(self):  # tuples, so the cached pass cannot go stale
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "ops", tuple(self.ops))

    @cached_property
    def status(self) -> QubitStatus:
        return _validate(self)

    def check(self) -> "Circuit":
        """This circuit; raises InvalidCircuitError with every violation."""
        if self.status.violations:
            raise InvalidCircuitError(self.status.violations)
        return self

    @property
    def symbolic_qubits(self) -> tuple[int, ...]:
        return tuple(q for q, tag in enumerate(self.inputs) if tag == "input")

    def measured_qubits(self) -> set[int]:
        """The qubits measured after the last op: a re-injected one is not."""
        return {q for q, s in enumerate(self.status.final) if s == "measured"}


class CircuitBuilder:
    """Accumulates ops, then freezes into a validated Circuit."""

    def __init__(self, n_qubits: int, n_cbits: int, inputs=None):
        if inputs is None:
            inputs = ["input"] * n_qubits
        self.n_qubits = n_qubits
        self.n_cbits = n_cbits
        self.inputs = list(inputs)
        self.ops: list[CircuitOp] = []

    def gate(self, name_or_matrix, targets, role=None) -> "CircuitBuilder":
        return self.cgate((), (), name_or_matrix, targets, role=role)

    def measure(self, qubit: int, cbit: int, role=None) -> "CircuitBuilder":
        self.ops.append(MeasureOp(qubit, cbit, role=role))
        return self

    def cgate(self, cond_cbits, cond_values, name_or_matrix, targets, role=None) -> "CircuitBuilder":
        """A gate applied when the cbits read the values; an empty condition
        applies it always."""
        named = isinstance(name_or_matrix, str)
        self.ops.append(GateOp(tuple(targets),
                               name=gates.canonical_name(name_or_matrix) if named else None,
                               matrix=None if named else name_or_matrix, role=role,
                               cond_cbits=tuple(cond_cbits), cond_values=tuple(cond_values)))
        return self

    def inject(self, amplitudes, targets, label=None, role=None) -> "CircuitBuilder":
        self.ops.append(InjectOp(tuple(targets), amplitudes, label=label, role=role))
        return self

    def alloc_qubits(self, count: int, tag: str) -> list[int]:
        """Append `count` qubits with input tag `tag`; returns their indices."""
        base = self.n_qubits
        self.n_qubits += count
        self.inputs.extend([tag] * count)
        return list(range(base, base + count))

    def alloc_cbits(self, count: int) -> list[int]:
        """Append `count` classical bits; returns their indices."""
        base = self.n_cbits
        self.n_cbits += count
        return list(range(base, base + count))

    def build(self) -> Circuit:
        return Circuit(self.n_qubits, self.n_cbits, self.inputs, self.ops).check()


def validate(c: Circuit) -> list[str]:
    """Return all invariant violations; empty means well-formed."""
    return list(c.status.violations)


def _validate(c: Circuit) -> QubitStatus:
    """The one pass that steps qubit status; read it, run once, as `c.status`."""
    if c.n_qubits < 0 or c.n_cbits < 0:
        return QubitStatus((f"counts: {c.n_qubits} qubits and {c.n_cbits} cbits;"
                            " neither may be negative",), (), (), ())
    if len(c.inputs) != c.n_qubits:
        return QubitStatus(("inputs: one tag per qubit is required",), (), (), ())
    for q, tag in enumerate(c.inputs):
        if tag not in INPUT_TAGS:
            return QubitStatus((f"inputs: unknown tag {tag!r} on qubit {q}",), (), (), ())

    status = [{"input": "active", "inject": "pending"}.get(tag, "fresh") for tag in c.inputs]
    out, layout, records, written_cbits = [], [], [], set()
    active = ()  # the active qubits; emptied, to rebuild, when one enters or leaves

    def step(q: int, new: str):
        nonlocal active
        if (status[q] == "active") != (new == "active"):
            active = ()
        status[q] = new

    def targets_ok(k: int, targets) -> bool:
        ok = True
        if len(set(targets)) != len(targets):
            out.append(f"op {k}: repeated targets {targets}")
            ok = False
        for q in targets:
            if not (0 <= q < c.n_qubits):
                out.append(f"op {k}: qubit {q} out of range")
                ok = False
        return ok

    def gate_shape_ok(k: int, op, targets) -> bool:
        if op.name is not None:
            try:
                arity = gates.arity_of(op.name)
            except Exception:
                out.append(f"op {k}: unknown gate name {op.name!r}")
                return False
            if arity != len(targets):
                out.append(f"op {k}: gate {op.name} expects {arity} targets")
                return False
        elif op.matrix is not None:
            if op.matrix.shape[0] != 2 ** len(targets):
                out.append(f"op {k}: matrix shape does not match {len(targets)} targets")
                return False
        else:
            out.append(f"op {k}: gate needs a name or a matrix")
            return False
        return True

    def touch_gate(k: int, targets):
        for q in targets:
            if status[q] == "measured":
                out.append(f"op {k}: gate on measured qubit {q} without re-injection"
                           " (single-measurement discipline)")
            elif status[q] == "pending":
                out.append(f"op {k}: gate on qubit {q} before its injected state arrives")
            else:
                step(q, "active")

    for k, op in enumerate(c.ops):
        active = active or tuple(q for q, s in enumerate(status) if s == "active")
        layout.append(active)
        if isinstance(op, GateOp):
            if len(op.cond_cbits) != len(op.cond_values):
                out.append(f"op {k}: malformed classical condition")
                continue
            for cb in op.cond_cbits:
                if not (0 <= cb < c.n_cbits):
                    out.append(f"op {k}: cbit {cb} out of range")
                elif cb not in written_cbits:
                    out.append(f"op {k}: condition reads cbit {cb} before any measurement"
                               " writes it (causality)")
            for v in op.cond_values:
                if v not in (0, 1):
                    out.append(f"op {k}: condition values must be bits")
            if targets_ok(k, op.targets) and gate_shape_ok(k, op, op.targets):
                touch_gate(k, op.targets)
        elif isinstance(op, MeasureOp):
            if not (0 <= op.qubit < c.n_qubits):
                out.append(f"op {k}: qubit {op.qubit} out of range")
                continue
            if not (0 <= op.cbit < c.n_cbits):
                out.append(f"op {k}: cbit {op.cbit} out of range")
                continue
            if status[op.qubit] == "measured":
                out.append(f"op {k}: qubit {op.qubit} measured twice without re-injection"
                           " (single-measurement discipline)")
            elif status[op.qubit] == "pending":
                out.append(f"op {k}: measuring qubit {op.qubit} before its injected state")
            if op.cbit in written_cbits:
                out.append(f"op {k}: cbit {op.cbit} written twice")
            step(op.qubit, "measured")
            written_cbits.add(op.cbit)
            records.append(op)
        elif isinstance(op, InjectOp):
            if not targets_ok(k, op.targets):
                continue
            if op.amplitudes.shape != (2 ** len(op.targets),):
                out.append(f"op {k}: injected state length does not match targets")
                continue
            named = op.amplitudes if op.label is None else STATE_LABELS.get(op.label, np.empty(0))
            if named.shape != op.amplitudes.shape or np.max(np.abs(named - op.amplitudes)) > ZERO:
                out.append(f"op {k}: state label {op.label!r} does not name these amplitudes")
            for q in op.targets:
                if status[q] == "active":
                    out.append(f"op {k}: inject target {q} must be fixed-|0> or"
                               " measured-and-retired")
                step(q, "active")
        else:
            out.append(f"op {k}: unknown op variant {type(op).__name__}")
    layout.append(active or tuple(q for q, s in enumerate(status) if s == "active"))
    return QubitStatus(tuple(out), tuple(status), tuple(layout), tuple(records))


# ---------------------------------------------------------------------------
# serialization: every complex number in a JSON output is an [re, im] pair

def state_doc(v) -> list:
    """A vector (a scalar counts as length one) as a list of [re, im] pairs."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex).ravel()]


def matrix_doc(m) -> list:
    """A matrix as rows of [re, im] pairs."""
    return [state_doc(row) for row in np.asarray(m, dtype=complex)]


def matrix_from_doc(doc) -> np.ndarray:
    try:
        return np.array([[complex(re, im) for re, im in row] for row in doc], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise CircuitFormatError(f"bad matrix document: {exc}") from None


def state_from_doc(doc) -> np.ndarray:
    try:
        return np.array([complex(re, im) for re, im in doc], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise CircuitFormatError(f"bad state document: {exc}") from None


def _op_doc(op: CircuitOp) -> dict:
    doc: dict = {}
    if isinstance(op, GateOp):
        doc["op"] = "cgate" if op.cond_cbits else "gate"
        if op.cond_cbits:
            doc["cond"] = {"cbits": list(op.cond_cbits), "equals": list(op.cond_values)}
        if op.name is not None:
            doc["name"] = op.name
        else:
            doc["matrix"] = matrix_doc(op.matrix)
        doc["targets"] = list(op.targets)
    elif isinstance(op, MeasureOp):
        doc["op"] = "measure"
        doc["qubit"] = op.qubit
        doc["cbit"] = op.cbit
    elif isinstance(op, InjectOp):
        doc["op"] = "inject"
        if op.label is not None:
            doc["state"] = {"label": op.label}
        else:
            doc["state"] = {"amplitudes": state_doc(op.amplitudes)}
        doc["targets"] = list(op.targets)
    if op.role is not None:
        doc["role"] = op.role
    return doc


def _integer(value, name: str) -> int:
    """A JSON integer field's value; a bool, float or string is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"'{name}' must be an integer, not {value!r}")
    return value


def _integers(values, name: str) -> tuple[int, ...]:
    return tuple(_integer(v, name) for v in values)


def _op_from_doc(doc: dict, index: int) -> CircuitOp:
    kind = doc.get("op")
    role = doc.get("role")
    if kind == "gate" or kind == "cgate":
        if doc.get("name") is not None:
            name, matrix = gates.canonical_name(doc["name"]), None
        elif "matrix" in doc:
            name, matrix = None, matrix_from_doc(doc["matrix"])
        else:
            raise CircuitFormatError(f"op {index}: gate needs 'name' or 'matrix'")
        cond = doc.get("cond", {}) if kind == "cgate" else {}
        op = GateOp(_integers(doc["targets"], "targets"), name=name, matrix=matrix, role=role,
                    cond_cbits=_integers(cond.get("cbits", []), "cbits"),
                    cond_values=_integers(cond.get("equals", []), "equals"))
        if kind == "cgate" and not op.cond_cbits:  # a cgate document must carry its condition
            raise InvalidCircuitError(["malformed classical condition"])
        return op
    if kind == "measure":
        return MeasureOp(_integer(doc["qubit"], "qubit"), _integer(doc["cbit"], "cbit"),
                         role=role)
    if kind == "inject":
        state = doc.get("state", {})
        label = state.get("label")
        if label is not None:
            if label not in STATE_LABELS:
                raise CircuitFormatError(f"op {index}: unknown state label {label!r}")
            amps = STATE_LABELS[label]
        elif "amplitudes" in state:
            amps = state_from_doc(state["amplitudes"])
        else:
            raise CircuitFormatError(f"op {index}: inject needs a label or amplitudes")
        return InjectOp(_integers(doc["targets"], "targets"), amps, label=label, role=role)
    raise CircuitFormatError(f"op {index}: unknown op kind {kind!r}")


def to_document(c: Circuit) -> dict:
    """The circuit as a plain JSON-ready dict; refuses invalid circuits."""
    c.check()
    return {
        "format": FORMAT_NAME,
        "qubits": c.n_qubits,
        "cbits": c.n_cbits,
        "inputs": list(c.inputs),
        "ops": [_op_doc(op) for op in c.ops],
    }


def serialize(c: Circuit) -> str:
    """Canonical textual form; refuses circuits that fail validation."""
    return json.dumps(to_document(c), indent=1)


def deserialize(text: str) -> Circuit:
    """Parse the canonical form; structural errors carry line/position."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(f"not valid JSON: {exc.msg}",
                                 line=exc.lineno, column=exc.colno) from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise CircuitFormatError(f"missing or unsupported format marker "
                                 f"(expected {FORMAT_NAME!r})")
    where = "field 'qubits'"  # what is being read, for a malformed value's message
    try:
        n_qubits = check_width(_integer(doc["qubits"], "qubits"))  # before anything is sized
        where = "field 'cbits'"
        n_cbits = _integer(doc["cbits"], "cbits")
        where = "field 'inputs'"
        inputs = tuple(str(t) for t in doc.get("inputs", ["input"] * n_qubits))
        where = "field 'ops'"
        ops = []
        for k, op_doc in enumerate(doc.get("ops", [])):
            where = f"op {k}"
            ops.append(_op_from_doc(op_doc, k))
    except KeyError as exc:
        raise CircuitFormatError(f"missing required field {exc}") from None
    except InvalidCircuitError as exc:  # an op's own refusal, named by its index
        raise InvalidCircuitError([f"{where}: {v}" for v in exc.violations]) from None
    except TelegateError:
        raise
    except (TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise CircuitFormatError(f"{where} is malformed: {exc}") from None
    return Circuit(n_qubits, n_cbits, inputs, ops).check()


# ---------------------------------------------------------------------------
# text-art rendering (best effort, one wire per line, time left to right)

def render(c: Circuit) -> str:
    """ASCII drawing of the circuit for terminal display."""
    wires = [[f"q{q}:"] for q in range(c.n_qubits)]
    cwires = [[f"c{b}:"] for b in range(c.n_cbits)]

    def pad_column():
        width = max((len("".join(w)) for w in wires + cwires), default=0)
        for w in wires:
            w.append("-" * (width - len("".join(w))))
        for w in cwires:
            w.append("." * (width - len("".join(w))))

    for op in c.ops:
        pad_column()
        if isinstance(op, GateOp):
            if op.name == "CNOT" and len(op.targets) == 2:
                marks = {op.targets[0]: "-*-", op.targets[1]: "-+-"}
            elif op.name == "TOFFOLI" and len(op.targets) == 3:
                marks = {op.targets[0]: "-*-", op.targets[1]: "-*-", op.targets[2]: "-+-"}
            else:
                marks = {q: f"[{op.name or 'U'}]" for q in op.targets}
            for q, mark in marks.items():
                wires[q].append(mark)
            if op.cond_cbits:
                cond = ",".join(f"c{b}={v}" for b, v in zip(op.cond_cbits, op.cond_values))
                for b in op.cond_cbits:
                    cwires[b].append("^")
                wires[op.targets[0]].append(f"({cond})")
        elif isinstance(op, MeasureOp):
            wires[op.qubit].append(f"[M->c{op.cbit}]")
            cwires[op.cbit].append("=")
        elif isinstance(op, InjectOp):
            tag = op.label or "state"
            for q in op.targets:
                wires[q].append(f"[inject:{tag}]")
    pad_column()
    lines = ["".join(w) for w in wires] + ["".join(w) for w in cwires]
    return "\n".join(lines)
