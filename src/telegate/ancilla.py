"""Stabilizer derivation and measurement-based ancilla preparation.

A target state U·A|0...0> is fixed by the involutions M_i = U·A·Z_i·A†·U†;
the partners Q_i = U·A·X_i·A†·U† anticommute with their own M_i and
commute with every other pair member.  Measuring the M_i in sequence and
applying Q_i on each -1 outcome drives any starting state into the target.
The shortcut route starts instead from (I+Q_i)·target, which for the
standard ancillas is a product state, and measures the single remaining
stabilizer; its factors' letters come from the one Pauli rule.

A script runs as a preparation from nothing on the simulator's branch walk
(`script_circuit`): the initial state is injected on the register, and one
control qubit, re-injected as |0> at each step, measures M through H,
controlled-M, H, the step `emit_stabilizer_step` writes here and for the
recursive preparation alike.  The projector arithmetic, (I±M)/2, that the
test suite checks that gadget against is the tests' `projector_oracle`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import gates, hierarchy, pauli
from .circuit import Circuit, CircuitBuilder, matrix_doc, state_doc
from .clifford import checked_unitary
from .errors import InternalConsistencyError, ValidationError
from .limits import TOL, VERIFY_TOL
from .simulator import (Branch, StateVector, extract_register_state, run_all_branches,
                        verify_gate_equivalence, zero_state)


@dataclass(frozen=True)
class StabilizerPair:
    """One (M_i, Q_i) pair with informational hierarchy tags."""

    m: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    m_level: int | None = None
    q_level: int | None = None


@dataclass(frozen=True)
class StabilizerSpec:
    target: StateVector
    pairs: tuple[StabilizerPair, ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class PreparationScript:
    """Measure each step's operator, applying the partner on -1 outcomes."""

    initial_state: StateVector
    steps: tuple[tuple[np.ndarray, np.ndarray], ...]
    expected_final: StateVector
    shortcut_index: int | None = None
    product_intermediate: bool | None = None
    warnings: tuple[str, ...] = ()


def _norm(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def check_spec(target: StateVector, pairs) -> None:
    """Numeric verification of the involution/stabilization/commutation
    conditions; raises on any violation."""
    dim = 2**target.n
    eye = np.eye(dim)
    t = target.amplitudes
    for i, pair in enumerate(pairs):
        if pair.m.shape != (dim, dim) or pair.q.shape != (dim, dim):
            raise InternalConsistencyError(f"pair {i}: operator width mismatch")
        if _norm(pair.m @ pair.m - eye) > VERIFY_TOL:
            raise InternalConsistencyError(f"pair {i}: M is not an involution")
        if _norm(pair.m @ t - t) > VERIFY_TOL:
            raise InternalConsistencyError(f"pair {i}: M does not stabilize the target")
        if _norm(pair.m @ pair.q + pair.q @ pair.m) > VERIFY_TOL:
            raise InternalConsistencyError(f"pair {i}: M and Q do not anticommute")
    for i, a in enumerate(pairs):
        for j, b in enumerate(pairs):
            if i == j:
                continue
            if _norm(a.m @ b.q - b.q @ a.m) > VERIFY_TOL:
                raise InternalConsistencyError(f"pairs {i},{j}: [M_i, Q_j] != 0")
            if i < j and _norm(a.m @ b.m - b.m @ a.m) > VERIFY_TOL:
                raise InternalConsistencyError(f"pairs {i},{j}: [M_i, M_j] != 0")


def make_stabilizer_spec(target: StateVector, ms, qs, tol: float = TOL) -> StabilizerSpec:
    """Validate and tag (at tol) a full set of n pairs for a width-n target."""
    warnings: list[str] = []
    pairs = []
    for i, (m, q) in enumerate(zip(ms, qs)):
        m_level = hierarchy.hierarchy_level(m, tol=tol).level
        q_level = hierarchy.hierarchy_level(q, tol=tol).level
        if m_level is None or m_level > 2:
            warnings.append(f"stabilizer {i} classifies above the Clifford group"
                            f" (level {m_level})")
        pairs.append(StabilizerPair(np.asarray(m, complex), np.asarray(q, complex),
                                    m_level, q_level))
    check_spec(target, pairs)
    if len(pairs) != target.n:
        raise InternalConsistencyError(
            f"width-{target.n} target needs exactly {target.n} pairs")
    return StabilizerSpec(target, tuple(pairs), tuple(warnings))


def derive_stabilizers(u: np.ndarray, a_ops, tol: float = TOL) -> StabilizerSpec:
    """Pairs for the state U·A|0...0>: M_i = U·A·Z_i·A†·U†, Q_i likewise
    from X_i.  A is the per-qubit basis-change layer of the teleport plan
    ('H' on X-teleported qubits, 'I' on Z-teleported ones)."""
    u = checked_unitary(u, tol)
    a_ops = tuple(a_ops)
    n = len(a_ops)
    if u.shape != (2**n, 2**n):
        raise ValidationError("gate width does not match the A layer")
    a = gates.kron(*(gates.matrix_of(name) for name in a_ops))
    ua = u @ a
    target = StateVector(n, ua @ zero_state(n).amplitudes)
    images = np.concatenate(list(pauli.conjugated_generators(ua)))
    ms, qs = images[1::2], images[0::2]
    return make_stabilizer_spec(target, ms, qs, tol)


def build_preparation(spec: StabilizerSpec,
                      initial: StateVector | None = None) -> PreparationScript:
    """Full sequential script: measure M_1..M_n, correcting with Q_i."""
    if initial is None:
        initial = zero_state(spec.target.n)
    if initial.n != spec.target.n:
        raise ValidationError("initial state width mismatch")
    steps = tuple((pair.m, pair.q) for pair in spec.pairs)
    return PreparationScript(initial, steps, spec.target, warnings=spec.warnings)


def is_product_state(s: StateVector) -> bool:
    """Sequential Schmidt-rank-1 tests across every prefix bipartition."""
    for cut in range(1, s.n):
        m = s.amplitudes.reshape(2**cut, 2 ** (s.n - cut))
        svals = np.linalg.svd(m, compute_uv=False)
        if len(svals) > 1 and svals[1] > VERIFY_TOL:
            return False
    return True


def product_factor_stabilizers(s: StateVector) -> list[str | None]:
    """Per-qubit single-qubit stabilizer letters for a product state.

    Returns e.g. ['+Z', '+X'] when each factor is a Pauli eigenstate, None
    entries otherwise: `pauli_from_matrix` at TOL reads qubit q's 2ρ - I, which
    is Hermitian with trace 0, as ±X, ±Y or ±Z iff q's reduced state ρ is that
    Pauli's ±1 eigenprojector (never when q is entangled).  Meaningful only
    when is_product_state holds."""
    out: list[str | None] = []
    tensor = s.amplitudes.reshape([2] * s.n)
    for qubit in range(s.n):
        m = np.moveaxis(tensor, qubit, 0).reshape(2, -1)
        hit = pauli.pauli_from_matrix(2 * (m @ m.conj().T) - np.eye(2), TOL)
        out.append(None if hit is None else pauli.format_literal(
            replace(hit[1], phase_quarters=round(np.angle(hit[0]) / (np.pi / 2)))))
    return out


def shortcut_preparation(spec: StabilizerSpec, i: int) -> PreparationScript:
    """Start from (I+Q_i)·target (a product state for the standard
    ancillas) and measure the single stabilizer M_i."""
    if not 0 <= i < len(spec.pairs):
        raise ValidationError(f"no stabilizer pair {i}")
    pair = spec.pairs[i]
    vec = spec.target.amplitudes + pair.q @ spec.target.amplitudes
    norm = float(np.linalg.norm(vec))
    if norm < TOL:
        raise InternalConsistencyError("(I+Q_i)·target vanished; Q_i does not"
                                       " flip the stabilizer as expected")
    intermediate = StateVector(spec.target.n, vec)
    product = is_product_state(intermediate)
    warnings = tuple(spec.warnings)
    if not product:
        warnings = warnings + (
            f"shortcut intermediate for pair {i} is not a product state",)
    return PreparationScript(intermediate, ((pair.m, pair.q),), spec.target,
                             shortcut_index=i, product_intermediate=product,
                             warnings=warnings)


def emit_stabilizer_step(b: CircuitBuilder, kappa: int, controlled_m, repair, targets):
    """Append one stabilizer measurement through the control kappa: inject |0>, H,
    `controlled_m()` (which appends the controlled-M and whose value is returned),
    H, measure kappa into a new cbit, and `repair` on `targets` when it reads 1."""
    b.inject([1.0, 0.0], [kappa], role="ancilla-prep")
    b.gate("H", [kappa], role="ancilla-prep")
    realized = controlled_m()
    b.gate("H", [kappa], role="B")
    mbit = b.alloc_cbits(1)[0]
    b.measure(kappa, mbit)
    b.cgate([mbit], [1], repair, targets, role="D")
    return realized


def script_circuit(script: PreparationScript) -> Circuit:
    """The script as a preparation from nothing: the first op injects the
    initial state on the register [0..n-1], and qubit n is the control,
    allocated when there is a step (a 0-qubit script has none).  Step i
    measures M through the control into cbit i and applies Q on outcome 1."""
    n = script.initial_state.n
    register = list(range(n))
    width = n + bool(script.steps)
    b = CircuitBuilder(width, 0, ["inject"] * width)
    b.inject(script.initial_state.amplitudes, register)
    for m, q in script.steps:
        emit_stabilizer_step(b, n, lambda: b.gate(gates.controlled(m), [n] + register, role="U"),
                             q, register)
    return b.build()


def run_script(script: PreparationScript) -> list[Branch]:
    """Every branch of script_circuit(script), in its walk order; a live
    branch carries the register's state."""
    register = range(script.initial_state.n)
    return [replace(br, measured_values={}, state=None if br.state is None
                    else extract_register_state(br, register))
            for br in run_all_branches(script_circuit(script))]


def verify_script(script: PreparationScript) -> tuple[bool, float]:
    """Verify script_circuit(script) as a 0-input isometry, the target state
    as one column on the register: (passed, worst fidelity)."""
    t = script.expected_final
    report = verify_gate_equivalence(script_circuit(script), t.amplitudes[:, None], (), range(t.n))
    return report.passed, report.worst_fidelity


def script_to_json(script: PreparationScript) -> str:
    doc = {
        "initial": state_doc(script.initial_state.amplitudes),
        "steps": [{"measure": {"matrix": matrix_doc(m)}, "correct": {"matrix": matrix_doc(q)}}
                  for m, q in script.steps],
        "target": state_doc(script.expected_final.amplitudes),
    }
    if script.shortcut_index is not None:
        doc["shortcut_index"] = script.shortcut_index
        doc["product_intermediate"] = script.product_intermediate
    if script.warnings:
        doc["warnings"] = list(script.warnings)
    return json.dumps(doc, indent=1)
