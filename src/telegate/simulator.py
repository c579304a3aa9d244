"""Exact dense-statevector execution with exhaustive measurement branching.

Every Measure op forks the run: outcome 0 is explored before outcome 1 and
branch probabilities are the accumulated projection norms, so they sum to
one exactly (up to rounding) over any valid circuit.  Branches whose norm
collapses below threshold are recorded with probability zero and carry no
state; that is a legitimate outcome for preparations starting from special
initial states, not an error.

Internally the engine propagates a batch of unnormalized columns at once,
which lets the gate-equivalence checker evolve all computational-basis
inputs in a single pass and assemble each branch's effective operator.
`_enumerate`, the package's one exhaustive walk, yields each branch as it is
reached, so a verification folds over 2^m branches without holding them.
"""
from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .circuit import (CGateOp, Circuit, GateOp, InjectOp, MeasureOp, _validate,
                      state_doc)
from .errors import (DimensionMismatch, InvalidCircuitError, ValidationError,
                     WidthOverflow)
from .gates import apply_to_columns, matrix_of
# MAX_QUBITS is unused here but re-exported: callers read the width cap here too.
from .limits import (MAX_MEASUREMENTS, MAX_QUBITS, TOL, VERIFY_TOL, ZERO, check_width,
                     width_of)


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over 2**n basis states, qubit 0 most significant."""

    n: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_width(self.n)
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amps.shape != (2**self.n,):
            raise DimensionMismatch("amplitude count must be 2**n")
        norm = float(np.linalg.norm(amps))
        if norm < ZERO:
            raise ValidationError("state has zero norm")
        amps = amps / norm
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def state_from(amplitudes) -> StateVector:
    amps = np.asarray(amplitudes, dtype=complex).ravel()
    return StateVector(width_of(len(amps)), amps)


def basis_state(n: int, index: int) -> StateVector:
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def zero_state(n: int) -> StateVector:
    return basis_state(n, 0)


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    re = rng.standard_normal(2**n)
    im = rng.standard_normal(2**n)
    return state_from(re + 1j * im)


def kron_states(a: StateVector, b: StateVector) -> StateVector:
    return StateVector(a.n + b.n, np.kron(a.amplitudes, b.amplitudes))


@dataclass(frozen=True)
class Branch:
    """One measurement-outcome path: bits in measurement order."""

    bits: tuple[int, ...]
    probability: float
    state: StateVector | None
    cbits: dict[int, int]
    measured_values: dict[int, int]

    @property
    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing a circuit's branch operators against a matrix."""

    passed: bool
    worst_fidelity: float
    failing_branch: str | None
    branch_scalars: dict[str, complex]
    branch_weights: dict[str, float]
    tol: float


def apply_matrix(state: StateVector, matrix: np.ndarray, targets) -> StateVector:
    """Exact linear action on the target qubits, identity elsewhere."""
    cols = state.amplitudes.reshape(-1, 1)
    out = apply_to_columns(cols, np.asarray(matrix, dtype=complex),
                           tuple(targets), state.n)
    return StateVector(state.n, out.ravel())


def apply_gate(state: StateVector, gate, targets=None) -> StateVector:
    """Apply a named gate, GateOp, or matrix to a state."""
    if isinstance(gate, GateOp):
        return apply_matrix(state, gate.resolved_matrix(), gate.targets)
    if isinstance(gate, str):
        return apply_matrix(state, matrix_of(gate), targets)
    return apply_matrix(state, gate, targets)


def _project_columns(cols: np.ndarray, qubit: int, outcome: int, n: int) -> np.ndarray:
    tensor = cols.reshape([2] * n + [-1]).copy()
    idx = [slice(None)] * (n + 1)
    idx[qubit] = 1 - outcome
    tensor[tuple(idx)] = 0.0
    return tensor.reshape(cols.shape)


def _inject_columns(cols: np.ndarray, targets: tuple[int, ...], amplitudes: np.ndarray,
                    n: int) -> np.ndarray:
    """Replace the (definite, disentangled) target-qubit state per column."""
    k = len(targets)
    m = cols.shape[1]
    tensor = cols.reshape([2] * n + [m])
    moved = np.moveaxis(tensor, targets, range(k)).reshape(2**k, -1)
    mass = np.sum(np.abs(moved) ** 2, axis=1)
    total = float(np.sum(mass))
    if total < ZERO:
        live = np.zeros_like(moved)
    else:
        s_star = int(np.argmax(mass))
        if total - mass[s_star] > TOL * max(total, 1.0):
            raise ValidationError(
                "inject targets are not in a definite basis state at this point")
        live = np.outer(amplitudes, moved[s_star])
    moved = live.reshape([2] * k + list(tensor.shape[k:]))
    tensor = np.moveaxis(moved, range(k), targets)
    return tensor.reshape(2**n, m)


@dataclass
class _RawBranch:
    bits: tuple[int, ...]
    cbits: dict[int, int]
    measured_values: dict[int, int]
    cols: np.ndarray | None  # unnormalized; None for dead branches


def _enumerate(c: Circuit, cols: np.ndarray) -> Iterator[_RawBranch]:
    """Depth-first over measurement outcomes, outcome 0 first, yielding each branch."""
    n = c.n_qubits

    def walk(op_index: int, cols: np.ndarray, bits: tuple[int, ...],
             cbits: dict[int, int], measured: dict[int, int]):
        for k in range(op_index, len(c.ops)):
            op = c.ops[k]
            if isinstance(op, GateOp):
                cols = apply_to_columns(cols, op.resolved_matrix(), op.targets, n)
            elif isinstance(op, CGateOp):
                if all(cbits.get(b) == v for b, v in zip(op.cond_cbits, op.cond_values)):
                    cols = apply_to_columns(cols, op.resolved_matrix(), op.targets, n)
            elif isinstance(op, InjectOp):
                cols = _inject_columns(cols, op.targets, op.amplitudes, n)
            elif isinstance(op, MeasureOp):
                for outcome in (0, 1):
                    child = _project_columns(cols, op.qubit, outcome, n)
                    total = float(np.sum(np.abs(child) ** 2))
                    new_bits = bits + (outcome,)
                    new_cbits = dict(cbits)
                    new_cbits[op.cbit] = outcome
                    new_measured = dict(measured)
                    new_measured[op.qubit] = outcome
                    if total < ZERO:
                        yield _RawBranch(new_bits, new_cbits, new_measured, None)
                    else:
                        yield from walk(k + 1, child, new_bits, new_cbits, new_measured)
                return
        yield _RawBranch(bits, cbits, measured, cols)

    return walk(0, cols, (), {}, {})


def register_offsets(n: int, register) -> np.ndarray:
    """Basis indices of the 2**k states of a k-qubit register within n
    qubits, every other qubit at 0; register[0] is the most significant."""
    offsets = [0]
    for q in register:
        bit = 1 << (n - 1 - q)
        offsets = [o + b for o in offsets for b in (0, bit)]
    return np.array(offsets)


def _engine_statuses(c: Circuit) -> list[str]:
    """The branch engine's entry guard: the circuit must be valid and fit
    the width and measurement limits.  Returns each qubit's status after
    the last op."""
    violations, statuses = _validate(c)
    if violations:
        raise InvalidCircuitError(violations)
    check_width(c.n_qubits)
    measurements = sum(isinstance(op, MeasureOp) for op in c.ops)
    if measurements > MAX_MEASUREMENTS:
        raise WidthOverflow(f"{measurements} measurements (2^{measurements} branches)"
                            f" exceed the {MAX_MEASUREMENTS}-measurement limit")
    return statuses


def _initial_columns(c: Circuit, input_state: StateVector | None) -> np.ndarray:
    symbolic = c.symbolic_qubits
    k = len(symbolic)
    if k == 0:
        if input_state is not None:
            raise DimensionMismatch("circuit has no symbolic inputs")
        cols = np.zeros((2**c.n_qubits, 1), dtype=complex)
        cols[0, 0] = 1.0
        return cols
    if input_state is None or input_state.n != k:
        raise DimensionMismatch(
            f"input must cover the {k} symbolic-input qubits")
    cols = np.zeros((2**c.n_qubits, 1), dtype=complex)
    cols[register_offsets(c.n_qubits, symbolic), 0] = input_state.amplitudes
    return cols


def run_all_branches(c: Circuit, input_state: StateVector | None = None) -> list[Branch]:
    """Enumerate every measurement path of a valid circuit."""
    _engine_statuses(c)
    branches = []
    for raw in _enumerate(c, _initial_columns(c, input_state)):
        live = raw.cols is not None
        p = float(np.sum(np.abs(raw.cols) ** 2)) if live else 0.0
        state = StateVector(c.n_qubits, raw.cols[:, 0]) if live else None
        branches.append(Branch(raw.bits, p, state, raw.cbits, raw.measured_values))
    return branches


def extract_register_state(branch: Branch, register) -> StateVector:
    """Read a sub-register's state off a branch whose other qubits are all
    measured (so the full state factorizes through the outcome record)."""
    if branch.state is None:
        raise ValidationError("dead branches carry no state")
    register = tuple(register)
    n = branch.state.n
    base = 0
    for q in range(n):
        if q in register:
            continue
        if q not in branch.measured_values:
            raise DimensionMismatch(
                f"qubit {q} is neither in the register nor measured")
        base |= branch.measured_values[q] << (n - 1 - q)
    amps = branch.state.amplitudes[base + register_offsets(n, register)]
    return StateVector(len(register), amps)


def equivalent_up_to_phase(a: StateVector, b: StateVector) -> tuple[bool, float]:
    """Fidelity |<a|b>| and whether it clears 1 - VERIFY_TOL."""
    if a.n != b.n:
        raise DimensionMismatch(f"qubit counts differ: {a.n} != {b.n}")
    fidelity = float(abs(np.vdot(a.amplitudes, b.amplitudes)))
    return fidelity >= 1.0 - VERIFY_TOL, fidelity


def worst_fidelity(branches: Iterable[Branch], want: StateVector, register=None) -> float:
    """The lowest fidelity against `want` over the live branches (1.0 when
    none is live), read off `register` when given, else the whole state."""
    worst = 1.0
    for br in branches:
        if br.state is not None:
            got = br.state if register is None else extract_register_state(br, register)
            worst = min(worst, equivalent_up_to_phase(want, got)[1])
    return worst


def verify_gate_equivalence(c: Circuit, u: np.ndarray, in_map, out_map,
                            tol: float = VERIFY_TOL) -> EquivalenceReport:
    """Check that every nonzero branch implements u up to a unit scalar.

    The effective operator of each branch is assembled by evolving all
    computational-basis inputs at once (input qubit j of u lives on circuit
    qubit in_map[j], and analogously for out_map) and reading the
    amplitude block where every non-output qubit sits at its measured
    value.
    """
    statuses = _engine_statuses(c)
    in_map = tuple(in_map)
    out_map = tuple(out_map)
    u = np.asarray(u, dtype=complex)
    k = len(in_map)
    if len(out_map) != k:
        raise DimensionMismatch("in_map and out_map must have equal length")
    if len(set(in_map)) != k or len(set(out_map)) != k:
        raise DimensionMismatch("in_map and out_map entries must be distinct")
    if any(not 0 <= q < c.n_qubits for q in in_map + out_map):
        raise DimensionMismatch("map entries out of range")
    if u.shape != (2**k, 2**k):
        raise DimensionMismatch("matrix width does not match in_map")
    if set(in_map) != set(c.symbolic_qubits):
        raise DimensionMismatch("in_map must cover exactly the symbolic-input qubits")
    for q in range(c.n_qubits):
        if q not in out_map and statuses[q] != "measured":
            raise DimensionMismatch(
                f"qubit {q} is neither an output nor measured; branch operators"
                " would be ill-defined")

    n = c.n_qubits
    dim = 2**k
    cols = np.zeros((2**n, dim), dtype=complex)
    cols[register_offsets(n, in_map), np.arange(dim)] = 1.0
    out_offsets = register_offsets(n, out_map)
    measured_shifts = [(q, n - 1 - q) for q in range(n) if q not in out_map]

    scalars: dict[str, complex] = {}
    weights: dict[str, float] = {}
    worst = 1.0
    failing = None
    sqrt_dim = np.sqrt(dim)
    for raw in _enumerate(c, cols):
        bits = "".join(str(b) for b in raw.bits)
        total_mass = 0.0 if raw.cols is None else float(np.sum(np.abs(raw.cols) ** 2))
        if total_mass / dim < ZERO:
            weights[bits] = 0.0
            continue
        base = 0
        for q, shift in measured_shifts:
            base |= raw.measured_values[q] << shift
        block = raw.cols[base + out_offsets, :]  # effective operator times sqrt(branch prob)
        coeff = complex(np.trace(u.conj().T @ block) / dim)
        fidelity = abs(coeff) * dim / (sqrt_dim * np.sqrt(total_mass))
        weights[bits] = float(abs(coeff) ** 2)
        scalars[bits] = coeff / abs(coeff) if abs(coeff) > 0 else 0.0 + 0j
        if fidelity < worst:
            worst = fidelity
            if fidelity < 1.0 - tol:
                failing = bits
    passed = worst >= 1.0 - tol
    return EquivalenceReport(passed=passed, worst_fidelity=float(worst),
                             failing_branch=failing, branch_scalars=scalars,
                             branch_weights=weights, tol=tol)


def sample_branches(c: Circuit, input_state: StateVector | None, shots: int,
                    rng: np.random.Generator) -> dict[str, int]:
    """Monte-Carlo convenience: draw outcome paths from the exhaustive
    enumeration's probabilities.  Not used by any verification."""
    branches = run_all_branches(c, input_state)
    probs = np.array([b.probability for b in branches])
    probs = probs / probs.sum()
    counts: dict[str, int] = {}
    for idx in rng.choice(len(branches), size=shots, p=probs):
        key = branches[int(idx)].bitstring
        counts[key] = counts.get(key, 0) + 1
    return counts


def branches_to_json(branches: list[Branch]) -> str:
    """Canonical branch report: DFS order, outcome 0 before outcome 1."""
    doc = {"branches": [
        {
            "bits": b.bitstring,
            "p": b.probability,
            "state": None if b.state is None else state_doc(b.state.amplitudes),
        }
        for b in branches
    ]}
    return json.dumps(doc, indent=1)
