"""Recursive teleportation of diagonal-hierarchy gates.

The root is a plain X-teleportation with the ancilla injected as
g|+...+>; each measured bit triggers a Pauli X repair plus a diagonal
residue g·X_i·g†·X_i one level down the hierarchy.  Clifford-or-lower
residues are emitted directly as classically-controlled gates.  Deeper
residues become child nodes: each child injects the residue's magic state
D|+...+> on fresh (or recycled) qubits, couples it to the live register
with CNOTs gated on the parent's bit, measures the magic register, and
repairs with per-outcome-pattern diagonals D·X^c·D†·X^c, again one level
down.  The parent bit off means the coupling never fires and the live
register is untouched, so a single flattened circuit with one fixed output
register realizes the whole conditional tree; measurements are never
conditioned, preserving the single-measurement discipline.

Recursive ancilla preparation (the states U|+...+> themselves) measures
the stabilizers M_i = U_x·X_i through one control qubit per step.  The
controlled-U_x is realized by the same injection gadget with the coupling
CNOTs promoted to Toffolis and the pattern repairs promoted to controlled
diagonals carrying the exact eigenvalue phases, recursing until the
controlled payload is Clifford.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import gates, hierarchy, pauli
from .circuit import Circuit, CircuitBuilder, to_document
from .errors import SynthesisRefusal, ValidationError, WidthOverflow
from .limits import (FLOOR, MAX_RECURSION_LEVEL, MAX_RECURSION_WIDTH, TOL, VERIFY_TOL,
                     check_width, width_of)
from .simulator import (StateVector, apply_matrix, extract_register_state, run_all_branches,
                        worst_fidelity)
from .teleport import TeleportPlan, classify_correction, emit_teleport, verify_or_refuse


# ---------------------------------------------------------------------------
# gate specifications

@dataclass(frozen=True)
class GateSpec:
    """A diagonal gate given as a rotation, controlled rotation, product,
    or explicit matrix; the numeric classifier is the level authority."""

    kind: str
    matrix: np.ndarray = field(repr=False)
    label: str
    level_param: int | None = None
    controls: int | None = None

    @property
    def n(self) -> int:
        return width_of(self.matrix.shape[0])


def rotation_spec(level: int) -> GateSpec:
    """diag(1, e^{i 2π / 2^level}); classifies at the given level."""
    if level < 1:
        raise ValidationError("rotation level must be positive")
    m = np.diag([1.0, np.exp(2j * np.pi / 2**level)]).astype(complex)
    return GateSpec("rotation", m, f"V{level}", level_param=level)


def controlled_rotation_spec(controls: int, level: int) -> GateSpec:
    """Rotation on the last qubit gated on `controls` qubits; the phase
    exponent is chosen so the whole gate classifies at `level`."""
    if controls < 1 or level <= controls:
        raise ValidationError("need level > controls >= 1")
    base = np.diag([1.0, np.exp(2j * np.pi / 2 ** (level - controls))]).astype(complex)
    m = gates.controlled(base, n_controls=controls)
    return GateSpec("controlled-rotation", m, f"{'C' * controls}V{level}",
                    level_param=level, controls=controls)


def product_spec(specs) -> GateSpec:
    specs = list(specs)
    if not specs:
        raise ValidationError("empty product")
    dim = specs[0].matrix.shape[0]
    m = np.eye(dim, dtype=complex)
    for s in specs:
        if s.matrix.shape[0] != dim:
            raise ValidationError("product factors must share a width")
        m = s.matrix @ m
    return GateSpec("product", m, "*".join(s.label for s in specs))


def matrix_spec(matrix, label: str = "diagonal") -> GateSpec:
    m = np.asarray(matrix, dtype=complex)
    return GateSpec("matrix", m, label)


# ---------------------------------------------------------------------------
# recursion tree

@dataclass(frozen=True)
class Repair:
    """One classically-triggered repair of a node: an optional Pauli X,
    then either a direct gate or a child node realizing the residue."""

    cond_cbits_local: tuple[int, ...]
    cond_values: tuple[int, ...]
    residue_level: int
    pre_pauli_qubit: int | None = None
    canonical: np.ndarray | None = field(default=None, repr=False)
    exact: np.ndarray | None = field(default=None, repr=False)
    klass: str | None = None
    child: "RecursiveNode | None" = None


@dataclass(frozen=True)
class RecursiveNode:
    """One teleportation (root) or injection gadget (child) in the tree.

    The standalone circuit carries only this node's ops and direct
    repairs; child repairs appear as linked nodes.  Root circuits map
    [0..n-1] symbolic data to [n..2n-1] output; child circuits act in
    place on [0..n-1] with magic on [n..2n-1].
    """

    mode: str  # "teleport" | "inject"
    gate: np.ndarray = field(repr=False)
    level: int
    n: int
    magic: StateVector
    circuit: Circuit
    repairs: tuple[Repair, ...]

    @property
    def children(self) -> tuple["RecursiveNode", ...]:
        return tuple(r.child for r in self.repairs if r.child is not None)


@dataclass(frozen=True)
class RecursiveCircuit:
    label: str
    gate: np.ndarray = field(repr=False)
    level: int
    n: int
    root: RecursiveNode | None
    flattened: Circuit | None
    in_map: tuple[int, ...]
    out_map: tuple[int, ...]


@dataclass(frozen=True)
class ResourceReport:
    ancilla_qubits: int
    measurements: int
    cgates_by_level: dict[int, int]
    depth: int


def _plus_state(n: int) -> np.ndarray:
    return np.full(2**n, 2 ** (-n / 2), dtype=complex)


def _x_matrix(n: int, pattern: int) -> np.ndarray:
    bits = tuple((pattern >> (n - 1 - q)) & 1 for q in range(n))
    return pauli.pauli_to_matrix(pauli.PauliOperator(n, bits, (0,) * n, 0))


def _level_of(m: np.ndarray, what: str) -> int:
    verdict = hierarchy.hierarchy_level(m, k_max=MAX_RECURSION_LEVEL)
    if verdict.level is None:
        raise SynthesisRefusal(f"{what} exceeds level {MAX_RECURSION_LEVEL}")
    return verdict.level


def _checked_spec(spec: GateSpec, what: str) -> tuple[np.ndarray, int, int]:
    """The spec's matrix, width and level, refused outside the recursion's
    width and depth limits."""
    m = np.asarray(spec.matrix, dtype=complex)
    if not hierarchy.is_diagonal_matrix(m):
        raise ValidationError(f"{spec.label} is not diagonal")
    if spec.n > MAX_RECURSION_WIDTH:
        raise WidthOverflow(f"{what} is limited to {MAX_RECURSION_WIDTH} qubits")
    level = hierarchy.hierarchy_level(m, k_max=MAX_RECURSION_LEVEL).level
    if level is None:
        raise WidthOverflow(f"{spec.label} exceeds the depth limit {MAX_RECURSION_LEVEL}")
    return m, spec.n, level


def _build_inject_node(diag_gate: np.ndarray, level: int) -> RecursiveNode:
    """Gadget applying a diagonal in place: magic D|+..+>, CNOT coupling,
    magic measurement, per-pattern diagonal repairs one level down."""
    n = width_of(diag_gate.shape[0])
    magic = StateVector(n, diag_gate @ _plus_state(n))
    b = CircuitBuilder(2 * n, n, inputs=["input"] * n + ["inject"] * n)
    b.inject(magic.amplitudes, list(range(n, 2 * n)), role="ancilla-prep")
    for j in range(n):
        b.gate("CNOT", [j, n + j], role="E")
    for j in range(n):
        b.measure(n + j, j)
    repairs: list[Repair] = []
    d_dag = diag_gate.conj().T
    cond_bits = tuple(range(n))
    for pattern in range(1, 2**n):
        x_c = _x_matrix(n, pattern)
        w = diag_gate @ x_c @ d_dag @ x_c
        if np.max(np.abs(w - np.eye(2**n))) <= TOL:
            continue
        vals = tuple((pattern >> (n - 1 - j)) & 1 for j in range(n))
        w_level = _level_of(w, "pattern repair")
        if w_level <= 2:
            corr = classify_correction(w, 3, pattern)
            b.cgate(cond_bits, vals, corr.canonical, list(range(n)), role="D")
            repairs.append(Repair(cond_bits, vals, w_level, canonical=corr.canonical,
                                  exact=w, klass=corr.klass))
        else:
            repairs.append(Repair(cond_bits, vals, w_level,
                                  child=_build_inject_node(w, w_level)))
    return RecursiveNode("inject", diag_gate, level, n, magic, b.build(),
                         tuple(repairs))


def _build_teleport_root(gate_matrix: np.ndarray, level: int) -> RecursiveNode:
    n = width_of(gate_matrix.shape[0])
    magic = StateVector(n, gate_matrix @ _plus_state(n))
    b = CircuitBuilder(2 * n, n, inputs=["input"] * n + ["inject"] * n)
    anc = list(range(n, 2 * n))
    emit_teleport(b, TeleportPlan(("X",) * n), range(n), anc, range(n),
                  ancilla=magic.amplitudes)
    repairs: list[Repair] = []
    g_dag = gate_matrix.conj().T
    for i in range(n):
        x_i = _x_matrix(n, 1 << (n - 1 - i))
        c_i = gate_matrix @ x_i @ g_dag
        residue = c_i @ x_i
        if not hierarchy.is_diagonal_matrix(residue, tol=FLOOR):
            raise SynthesisRefusal(f"repair residue on qubit {i} is not diagonal")
        r_level = 1 if np.max(np.abs(residue - np.eye(2**n))) <= TOL \
            else _level_of(residue, f"residue on qubit {i}")
        if r_level <= 2:
            corr = classify_correction(c_i, max(level, 3), i)
            b.cgate([i], [1], corr.canonical, anc, role="D")
            repairs.append(Repair((i,), (1,), r_level, canonical=corr.canonical,
                                  exact=c_i, klass=corr.klass))
        else:
            # The X half of the repair stays attached to its residue: the
            # pair D~_i·X_i commutes with other repairs only as a block, so
            # the standalone circuit omits the X and both the flattener and
            # the tree interpreter apply it immediately before the child.
            repairs.append(Repair((i,), (1,), r_level, pre_pauli_qubit=i,
                                  child=_build_inject_node(residue, r_level)))
    return RecursiveNode("teleport", gate_matrix, level, n, magic, b.build(),
                         tuple(repairs))


def _flatten(root: RecursiveNode) -> Circuit:
    n = root.n
    b = CircuitBuilder(2 * n, 0, ["input"] * n + ["inject"] * n)
    data = list(range(n))
    anc = list(range(n, 2 * n))

    def emit(node: RecursiveNode, is_root: bool,
             cond_bits: tuple[int, ...], cond_vals: tuple[int, ...]):
        cbits = b.alloc_cbits(n)
        if is_root:
            emit_teleport(b, TeleportPlan(("X",) * n), data, anc, cbits,
                          ancilla=node.magic.amplitudes)
        else:
            # Magic recycles the measured data qubits; the coupling fires
            # only when every ancestor condition bit is set.
            b.inject(node.magic.amplitudes, data, role="ancilla-prep")
            for j in range(n):
                b.cgate(cond_bits, cond_vals, "CNOT", [anc[j], data[j]], role="E")
            for j in range(n):
                b.measure(data[j], cbits[j])
        for rep in node.repairs:
            g_bits = cond_bits + tuple(cbits[lb] for lb in rep.cond_cbits_local)
            g_vals = cond_vals + rep.cond_values
            if rep.pre_pauli_qubit is not None:
                b.cgate(g_bits, g_vals, "X", [anc[rep.pre_pauli_qubit]], role="D")
            if rep.canonical is not None:
                b.cgate(g_bits, g_vals, rep.canonical, anc, role="D")
            if rep.child is not None:
                emit(rep.child, False, g_bits, g_vals)

    emit(root, True, (), ())
    return b.build()


def synth_recursive(spec: GateSpec, flatten: bool = True,
                    tol: float = VERIFY_TOL) -> RecursiveCircuit:
    """Expand a diagonal gate into nested teleportations bottoming out in
    directly-applied Clifford repairs; the flattened form is verified
    against the gate on every branch before returning."""
    m, n, level = _checked_spec(spec, "recursive synthesis")
    if level <= 2:
        b = CircuitBuilder(n, 0, ["input"] * n)
        b.gate(m, list(range(n)), role="U")
        return RecursiveCircuit(spec.label, m, level, n, None, b.build(),
                                tuple(range(n)), tuple(range(n)))

    root = _build_teleport_root(m, level)
    flattened = _flatten(root) if flatten else None
    rc = RecursiveCircuit(spec.label, m, level, n, root, flattened,
                          tuple(range(n)), tuple(range(n, 2 * n)))
    if flattened is not None:
        verify_or_refuse(flattened, m, rc.in_map, rc.out_map, tol=tol)
    return rc


def execute_tree(rc: RecursiveCircuit,
                 input_state: StateVector) -> list[tuple[str, float, StateVector | None]]:
    """Interpret the tree: a child runs only on branches where its
    condition bits all read 1.  Returns (bits, probability, state) with the
    state on the logical register."""
    if rc.root is None:
        out = StateVector(rc.n, rc.gate @ input_state.amplitudes)
        return [("", 1.0, out)]

    def exec_node(node: RecursiveNode, state: StateVector, is_root: bool):
        out_reg = tuple(range(node.n, 2 * node.n)) if is_root else tuple(range(node.n))
        results = []
        for br in run_all_branches(node.circuit, state):
            if br.state is None:
                results.append((br.bits, 0.0, None))
                continue
            cur = [(br.bits, br.probability, extract_register_state(br, out_reg))]
            for rep in node.repairs:
                if rep.child is None:
                    continue
                if not all(br.cbits.get(cb) == v
                           for cb, v in zip(rep.cond_cbits_local, rep.cond_values)):
                    continue
                nxt = []
                for bits, p, s in cur:
                    if s is None:
                        nxt.append((bits, p, s))
                        continue
                    if rep.pre_pauli_qubit is not None:
                        s = apply_matrix(s, gates.X, [rep.pre_pauli_qubit])
                    for cbits2, cp, cs in exec_node(rep.child, s, False):
                        nxt.append((bits + cbits2, p * cp, cs))
                cur = nxt
            results.extend(cur)
        return results

    return [("".join(map(str, bits)), p, s)
            for bits, p, s in exec_node(rc.root, input_state, True)]


def resource_report(rc: RecursiveCircuit) -> ResourceReport:
    """Exact counts by a direct walk of the tree."""
    if rc.root is None:
        return ResourceReport(0, 0, {}, 0)
    ancillas = 0
    measurements = 0
    by_level: dict[int, int] = {}
    depth = 0

    def walk(node: RecursiveNode, d: int):
        nonlocal ancillas, measurements, depth
        depth = max(depth, d)
        ancillas += node.n
        measurements += node.n
        for rep in node.repairs:
            if rep.pre_pauli_qubit is not None:
                by_level[1] = by_level.get(1, 0) + 1
            if rep.canonical is not None:
                lvl = 1 if rep.klass == "pauli" else 2
                by_level[lvl] = by_level.get(lvl, 0) + 1
            if rep.child is not None:
                walk(rep.child, d + 1)

    walk(rc.root, 1)
    return ResourceReport(ancillas, measurements, by_level, depth)


def tree_to_json(rc: RecursiveCircuit) -> str:
    """Nested circuit documents: each child carries its trigger condition."""

    def node_doc(node: RecursiveNode) -> dict:
        children = []
        for rep in node.repairs:
            if rep.child is not None:
                children.append({
                    "on": {"cbits": list(rep.cond_cbits_local),
                           "equals": list(rep.cond_values)},
                    **node_doc(rep.child),
                })
        return {"mode": node.mode, "level": node.level,
                "circuit": to_document(node.circuit), "children": children}

    if rc.root is None:
        return json.dumps({"mode": "direct", "level": rc.level,
                           "circuit": to_document(rc.flattened), "children": []},
                          indent=1)
    return json.dumps(node_doc(rc.root), indent=1)


# ---------------------------------------------------------------------------
# recursive preparation of the magic states themselves

@dataclass(frozen=True)
class ControlledRealization:
    """How a controlled diagonal payload is performed: directly when the
    payload is Clifford, otherwise by a Toffoli-coupled injection gadget
    whose pattern repairs are controlled diagonals one level down."""

    payload: np.ndarray = field(repr=False)
    level: int
    mode: str  # "direct" | "injected"
    magic: StateVector | None = None
    direct_patterns: tuple[tuple[int, ...], ...] = ()
    children: tuple[tuple[tuple[int, ...], "ControlledRealization"], ...] = ()


@dataclass(frozen=True)
class PreparationStep:
    m: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    u_x: np.ndarray = field(repr=False)
    u_x_level: int
    realization: ControlledRealization


@dataclass(frozen=True)
class RecursivePreparation:
    gate: np.ndarray = field(repr=False)
    target: StateVector
    steps: tuple[PreparationStep, ...]
    circuit: Circuit
    register: tuple[int, ...]


def _realize_controlled(buf: CircuitBuilder, kappa: int, register: list[int],
                        payload: np.ndarray, cond_bits: tuple[int, ...],
                        cond_vals: tuple[int, ...]) -> ControlledRealization:
    """Emit ops applying the payload to the register when qubit kappa is
    |1>, exactly (the payload's eigenvalue phases included)."""
    n = len(register)
    level = _level_of(payload, "controlled payload")
    if level <= 2:
        gate_m = gates.controlled(payload)
        if cond_bits:
            buf.cgate(cond_bits, cond_vals, gate_m, [kappa] + register, role="D")
        else:
            buf.gate(gate_m, [kappa] + register, role="U")
        return ControlledRealization(payload, level, "direct")

    magic = StateVector(n, payload @ _plus_state(n))
    magic_qubits = buf.alloc_qubits(n, "inject")
    buf.inject(magic.amplitudes, magic_qubits, role="ancilla-prep")
    for j in range(n):
        if cond_bits:
            buf.cgate(cond_bits, cond_vals, "TOFFOLI",
                      [kappa, register[j], magic_qubits[j]], role="E")
        else:
            buf.gate("TOFFOLI", [kappa, register[j], magic_qubits[j]], role="E")
    cbits = buf.alloc_cbits(n)
    for j in range(n):
        buf.measure(magic_qubits[j], cbits[j])
    p_dag = payload.conj().T
    direct_patterns: list[tuple[int, ...]] = []
    children: list[tuple[tuple[int, ...], ControlledRealization]] = []
    for pattern in range(2**n):
        u_c = complex(payload[pattern, pattern])
        x_c = _x_matrix(n, pattern) if pattern else np.eye(2**n, dtype=complex)
        w = u_c * (payload @ x_c @ p_dag @ x_c)
        if np.max(np.abs(w - np.eye(2**n))) <= TOL:
            continue
        vals = tuple((pattern >> (n - 1 - j)) & 1 for j in range(n))
        sub_bits = cond_bits + tuple(cbits)
        sub_vals = cond_vals + vals
        w_level = _level_of(w, "controlled pattern repair")
        if w_level <= 2:
            buf.cgate(sub_bits, sub_vals, gates.controlled(w),
                      [kappa] + register, role="D")
            direct_patterns.append(vals)
        else:
            children.append((vals, _realize_controlled(buf, kappa, register, w,
                                                       sub_bits, sub_vals)))
    return ControlledRealization(payload, level, "injected", magic,
                                 tuple(direct_patterns), tuple(children))


def recursive_ancilla_prep(spec: GateSpec) -> RecursivePreparation:
    """Prepare U|+...+> from |0...0> by measuring each stabilizer
    U_x·X_i through a control qubit, with Z_i repairs on -1 outcomes."""
    u, n, _ = _checked_spec(spec, "preparation")

    target = StateVector(n, u @ _plus_state(n))
    buf = CircuitBuilder(n, 0, ["zero"] * n)
    register = list(range(n))
    u_dag = u.conj().T
    steps = []
    for i in range(n):
        x_i = _x_matrix(n, 1 << (n - 1 - i))
        m_i = u @ x_i @ u_dag
        u_x = m_i @ x_i
        u_x_level = _level_of(u_x, "stabilizer payload")
        kappa = buf.alloc_qubits(1, "zero")[0]
        buf.gate("H", [kappa], role="ancilla-prep")
        buf.gate("CNOT", [kappa, register[i]], role="E")
        realization = _realize_controlled(buf, kappa, register, u_x, (), ())
        buf.gate("H", [kappa], role="B")
        mbit = buf.alloc_cbits(1)[0]
        buf.measure(kappa, mbit)
        buf.cgate([mbit], [1], "Z", [register[i]], role="D")
        steps.append(PreparationStep(m_i, pauli.pauli_to_matrix(
            pauli.single(n, i, "Z")), u_x, u_x_level, realization))
    check_width(buf.n_qubits)
    circuit = buf.build()
    return RecursivePreparation(u, target, tuple(steps), circuit, tuple(register))


def verify_preparation(prep: RecursivePreparation,
                       tol: float = VERIFY_TOL) -> tuple[bool, float]:
    """Run every branch and score register fidelity against the target."""
    worst = worst_fidelity(run_all_branches(prep.circuit, None), prep.target, prep.register)
    return worst >= 1.0 - tol, worst
