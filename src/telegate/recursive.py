"""Recursive teleportation of diagonal-hierarchy gates.

The argument is the paper's, extending the recursion of Gottesman & Chuang
(Nature 402:390, 1999): a gate g of level k teleports through its magic
state g|+...+>, and the repair of each measured bit, g·X_i·g†, is X_i times
a diagonal of level k-1.  Each repair thus lies one level down and is
realized the same way, until what is left is Clifford and applied directly.

The root is a plain X-teleportation with the ancilla injected as
g|+...+>; bit i's repair is g·X_i·g† (`_x_repairs`: an image of
`pauli.conjugated_generators`, and its residue g·X_i·g†·X_i, a column
gather).  One ladder, `teleport.classify_correction` at the node's level,
decides each repair once: a Pauli or Clifford repair is emitted directly as
a classically-controlled gate, a diagonal-times-X one as its X plus a child
node one level down on the residue, one injection gadget (`emit_inject`,
the package's only one): it injects the residue's magic state D|+...+> on
the recycled measured qubits, couples it to the live register with CNOTs
gated on the parent's bit, measures the magic register, and repairs with
per-outcome-pattern diagonals D·X^c·D†·X^c, decided the same way.  The
parent bit off means the coupling never fires and the live register is
untouched, so a single flattened circuit with one fixed output register
realizes the whole conditional tree; measurements are never conditioned,
preserving the single-measurement discipline.  One node emitter writes that
circuit, each repair once; a node's own circuit is its segment of it with
the children cut out.

Recursive ancilla preparation (the states U|+...+> themselves) measures
the stabilizers M_i = U_x·X_i (`_x_repairs` again) through one control
qubit, re-injected as |0> at each step by `ancilla.emit_stabilizer_step`,
the one writer of that step.  The controlled-U_x is realized by the same
injection gadget with the coupling CNOTs promoted to Toffolis and the
pattern repairs promoted to controlled diagonals carrying the exact
eigenvalue phases, recursing until the controlled payload is Clifford.
Each gadget measures its magic register before the next injects, so one
spare register serves them all: at most 2n+1 qubits.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import gates, hierarchy, pauli
from .ancilla import emit_stabilizer_step
from .circuit import Circuit, CircuitBuilder, InjectOp, MeasureOp, to_document
from .clifford import checked_unitary
from .errors import DimensionMismatch, SynthesisRefusal, ValidationError, WidthOverflow
from .limits import (MAX_HIERARCHY_LEVEL, MAX_MEASUREMENTS, MAX_RECURSION_LEVEL,
                     MAX_RECURSION_WIDTH, TOL, VERIFY_TOL, ZERO, check_tolerance, check_width,
                     width_of)
from .simulator import (StateVector, _bitstring, _certified_states, _mass, branch_operators,
                        verify_gate_equivalence)
from .teleport import TeleportPlan, classify_correction, emit_teleport, verify_or_refuse


# ---------------------------------------------------------------------------
# gate specifications

@dataclass(frozen=True)
class GateSpec:
    """A diagonal gate given as a rotation, controlled rotation or explicit
    matrix; `hierarchy_level` is the level authority."""

    matrix: np.ndarray = field(repr=False)
    label: str
    level_param: int | None = None

    @property
    def n(self) -> int:
        return width_of(self.matrix.shape[0])


def rotation_spec(level: int) -> GateSpec:
    """diag(1, e^{i 2π / 2^level}); classifies at the given level."""
    if level < 1:
        raise ValidationError("rotation level must be positive")
    if level > MAX_HIERARCHY_LEVEL:
        raise ValidationError(f"rotation level must be at most {MAX_HIERARCHY_LEVEL}, got {level}")
    m = np.diag([1.0, np.exp(2j * np.pi / 2**level)]).astype(complex)
    return GateSpec(m, f"V{level}", level_param=level)


def controlled_rotation_spec(controls: int, level: int) -> GateSpec:
    """Rotation on the last qubit gated on `controls` qubits; the phase
    exponent is chosen so the whole gate classifies at `level`."""
    if controls < 1 or level <= controls:
        raise ValidationError("need level > controls >= 1")
    if level > MAX_HIERARCHY_LEVEL:
        raise ValidationError(f"rotation level must be at most {MAX_HIERARCHY_LEVEL}, got {level}")
    check_width(controls + 1)  # before the 2^(c+1)-square matrix is built
    base = np.diag([1.0, np.exp(2j * np.pi / 2 ** (level - controls))]).astype(complex)
    m = gates.controlled(base, n_controls=controls)
    return GateSpec(m, f"{'C' * controls}V{level}", level_param=level)


def matrix_spec(matrix, label: str = "diagonal") -> GateSpec:
    m = np.asarray(matrix, dtype=complex)
    return GateSpec(m, label)


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
    klass: str | None = None
    child: "RecursiveNode | None" = None


@dataclass(frozen=True)
class RecursiveNode:
    """One teleportation (root) or injection gadget (child) in the tree.

    Its own circuit is its segment of the flattened circuit with the
    children and their X halves cut out and the ancestor condition dropped;
    child repairs appear as linked nodes.  Root circuits map [0..n-1]
    symbolic data to [n..2n-1] output; child circuits act in place on
    [0..n-1] with magic on [n..2n-1].
    """

    mode: str  # "teleport" | "inject"
    gate: np.ndarray = field(repr=False)
    level: int
    n: int
    circuit: Circuit
    repairs: tuple[Repair, ...]


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


def _checked_spec(spec: GateSpec, what: str) -> tuple[np.ndarray, int, int]:
    """The spec's matrix, width and level, refused unless a finite unitary
    inside the recursion's width and depth limits.  A square matrix wider
    than the width limit is refused before the unitarity product."""
    shape = np.shape(spec.matrix)
    if len(shape) == 2 and shape[0] == shape[1] > 2**MAX_RECURSION_WIDTH:
        raise WidthOverflow(f"{what} is limited to {MAX_RECURSION_WIDTH} qubits")
    m = checked_unitary(spec.matrix)  # the checks below assume a square matrix
    if not hierarchy.is_diagonal_matrix(m):
        raise ValidationError(f"{spec.label} is not diagonal")
    level = hierarchy.hierarchy_level(m, k_max=MAX_RECURSION_LEVEL).level
    if level is None:
        raise WidthOverflow(f"{spec.label} exceeds the depth limit {MAX_RECURSION_LEVEL}")
    return m, spec.n, level


def emit_inject(b: CircuitBuilder, magic, live, spare, cbits, controls=(),
                cond=((), ())) -> None:
    """Append the injection gadget: `magic` injected on spare, each live[j]
    coupled onto spare[j] by a CNOT (a Toffoli when `controls` is [kappa]),
    gated on cond = (cbits, values) when that is nonempty, and spare[j]
    measured into cbits[j].  The repairs are the caller's."""
    b.inject(magic, spare, role="ancilla-prep")
    coupling = "TOFFOLI" if controls else "CNOT"
    for q, s in zip(live, spare, strict=True):
        b.cgate(*cond, coupling, [*controls, q, s], role="E")
    for s, c in zip(spare, cbits, strict=True):
        b.measure(s, c)


def _pattern_repairs(d: np.ndarray, keep_phase: bool):
    """Each outcome pattern c of an injection of d, as bits, with its repair
    D·X^c·D†·X^c where that is not the identity; `keep_phase` multiplies in
    D's eigenvalue d_c, which a controlled repair must carry; X^c gathers."""
    n = width_of(d.shape[0])
    d_dag = d.conj().T
    for pattern in range(2**n):
        bits = tuple((pattern >> (n - 1 - j)) & 1 for j in range(n))
        flip = np.arange(2**n) ^ pattern
        w = (d[:, flip] @ d_dag)[:, flip]
        if keep_phase:
            w = complex(d[pattern, pattern]) * w
        if np.max(np.abs(w - np.eye(2**n))) > TOL:
            yield bits, w


def _x_repairs(g: np.ndarray):
    """Per qubit i: g·X_i·g†, the X image of `pauli.conjugated_generators(g)`,
    and its residue g·X_i·g†·X_i, that image's columns gathered by X_i."""
    n = width_of(g.shape[0])
    images = np.concatenate(list(pauli.conjugated_generators(g)))
    for i in range(n):
        yield images[2 * i], images[2 * i][:, np.arange(2**n) ^ (1 << (n - 1 - i))]


def _emit_node(b: CircuitBuilder, gate: np.ndarray, level: int, cond) -> RecursiveNode:
    """Append a node and its subtree to the flattened circuit `b`.

    The root (empty `cond`) teleports the data [0..n-1] onto [n..2n-1]; a
    child injects its magic on the measured [0..n-1] and couples the live
    [n..2n-1] to it under the ancestor condition `cond`.  `classify_correction`
    at the node's level decides each repair once, and it is written once,
    gated on `cond` plus the node's own bits: a direct Pauli or Clifford gate,
    or a child one level down on the residue, right after its X half."""
    n = width_of(gate.shape[0])
    data, live = list(range(n)), list(range(n, 2 * n))
    magic = StateVector(n, gate @ _plus_state(n)).amplitudes
    cbits = b.alloc_cbits(n)
    start = len(b.ops)
    if cond[0]:
        emit_inject(b, magic, live, data, cbits, cond=cond)
        specs = ((tuple(range(n)), vals, w, w, None)
                 for vals, w in _pattern_repairs(gate, keep_phase=False))
    else:
        emit_teleport(b, TeleportPlan(("X",) * n), data, live, cbits, ancilla=magic)
        specs = (((i,), (1,), c_i, residue, i)
                 for i, (c_i, residue) in enumerate(_x_repairs(gate)))
    own = b.ops[start:]
    repairs: list[Repair] = []
    for local, vals, whole, residue, x_half in specs:
        bits = (cond[0] + tuple(cbits[c] for c in local), cond[1] + vals)
        corr = classify_correction(whole, level, local[0])
        if corr.klass != "diagonal-pauli":
            b.cgate(*bits, corr.canonical, live, role="D")
            own.append(b.ops[-1])
            repairs.append(Repair(local, vals, 1 if corr.klass == "pauli" else 2,
                                  canonical=corr.canonical, klass=corr.klass))
        else:
            # The X half stays attached to its residue: the pair D~_i·X_i
            # commutes with other repairs only as a block, so the X runs
            # immediately before the child, and both leave the node's own
            # circuit (the tree interpreter applies the X itself).
            if x_half is not None:
                b.cgate(*bits, "X", [live[x_half]], role="D")
            repairs.append(Repair(local, vals, corr.residue_level, pre_pauli_qubit=x_half,
                                  child=_emit_node(b, residue, corr.residue_level, bits)))
    mode, order = ("inject", live + data) if cond[0] else ("teleport", data + live)
    return RecursiveNode(mode, gate, level, n,
                         _relabel(own, order, cbits, len(cond[0])), tuple(repairs))


def _relabel(ops, qubits, cbits, depth: int) -> Circuit:
    """The ops moved onto qubits[j] -> j and cbits[j] -> j with their first
    `depth` condition bits dropped: a circuit on n input, n inject qubits."""
    n = len(cbits)
    q = {old: new for new, old in enumerate(qubits)}
    c = {old: new for new, old in enumerate(cbits)}
    b = CircuitBuilder(2 * n, n, ["input"] * n + ["inject"] * n)
    for op in ops:
        if isinstance(op, MeasureOp):
            b.measure(q[op.qubit], c[op.cbit], role=op.role)
        elif isinstance(op, InjectOp):
            b.ops.append(replace(op, targets=tuple(q[t] for t in op.targets)))
        else:
            b.ops.append(replace(op, targets=tuple(q[t] for t in op.targets),
                                 cond_cbits=tuple(c[x] for x in op.cond_cbits[depth:]),
                                 cond_values=op.cond_values[depth:]))
    return b.build()


def synth_recursive(spec: GateSpec, flatten: bool = True,
                    tol: float = VERIFY_TOL) -> RecursiveCircuit:
    """Expand a diagonal gate into nested teleportations bottoming out in
    directly-applied Clifford repairs; a gate of level <= 2 is one op.
    Every flattened circuit, that op included, is verified against the gate
    on every branch before returning."""
    check_tolerance(tol)
    m, n, level = _checked_spec(spec, "recursive synthesis")
    if level <= 2:
        b = CircuitBuilder(n, 0, ["input"] * n)
        b.gate(m, list(range(n)), role="U")
        root, out_map = None, tuple(range(n))
    else:
        b = CircuitBuilder(2 * n, 0, ["input"] * n + ["inject"] * n)
        root, out_map = _emit_node(b, m, level, ((), ())), tuple(range(n, 2 * n))
    flattened = b.build() if flatten or root is None else None
    if flattened is not None:
        verify_or_refuse(flattened, m, range(n), out_map, tol=tol)
    return RecursiveCircuit(spec.label, m, level, n, root, flattened, tuple(range(n)), out_map)


def _nodes(root: RecursiveNode | None, depth: int = 1):
    """The (node, depth) pairs of the tree under `root`, if any, in pre-order."""
    if root is not None:
        yield root, depth
        for rep in root.repairs:
            yield from _nodes(rep.child, depth + 1)


def execute_tree(rc: RecursiveCircuit,
                 input_state: StateVector) -> list[tuple[str, float, StateVector | None]]:
    """Interpret the tree: a child runs only on paths where its condition
    bits all read 1.  Returns (bits, probability, state) with the state on
    the logical register, in depth-first order.

    Every node's branch operators K_b are tabled first, one walk per node,
    beside each branch's bits, live flag and triggered children.  The tables
    count the paths, and more than 2^MAX_MEASUREMENTS paths are refused
    before any state is touched.  A node then takes every path prefix that
    reaches it as one (k, d) block: one product gives K_b·s for every row
    and branch, each goes on normalized with probability ‖K_b·s‖², and each
    triggered child runs once on all of a branch's rows after the X half.
    The states come back checked once, as read-only rows of one block.
    Only a structurally dead K_b (a zero block) ends a path, with its short
    record, passing its later children by.  Each live K_b has probability
    2^-n on every input, so no path of a synthesized tree dies for one input
    only; in a hand-edited tree such a path keeps its full record, with
    probability 0.0 and no state."""
    if input_state.n != rc.n:
        raise DimensionMismatch(f"input must cover the {rc.n} logical qubits")
    if rc.root is None:
        out = StateVector(rc.n, rc.gate @ input_state.amplitudes)
        return [("", 1.0, out)]
    tables: dict[int, tuple] = {}  # id(node) -> (bits, K^T, live, children each triggers)
    counts: dict[int, tuple] = {}  # id(node) -> its paths that go on, and that ended
    for node, _ in reversed(list(_nodes(rc.root))):  # each child before its parent
        c, n = node.circuit, node.n
        records = [op.cbit for op in c.status.records]
        out_reg = range(n, 2 * n) if node.mode == "teleport" else range(n)
        bits, blocks, live, triggers = [], [], [], []
        for stack, k in branch_operators(c, c.symbolic_qubits, out_reg):
            blocks.append(k)
            live += stack.live.tolist()
            for code, length in zip(stack.codes.tolist(), stack.lengths.tolist()):
                bits.append(_bitstring(code, length, len(records)))
                cbits = dict(zip(records, map(int, bits[-1])))
                triggers.append([rep for rep in node.repairs if rep.child is not None and all(
                    cbits.get(cb) == v for cb, v in zip(rep.cond_cbits_local, rep.cond_values))])
        tables[id(node)] = bits, np.concatenate(blocks).reshape(-1, 2**n).T, live, triggers
        going = ended = 0
        for alive, children in zip(live, triggers):
            g, e = (1, 0) if alive else (0, 1)  # a dead branch's g of 0 passes its children by
            for c_going, c_ended in (counts[id(rep.child)] for rep in children):
                g, e = g * c_going, e + g * c_ended
            going, ended = going + g, ended + e
        counts[id(node)] = going, ended
    if (paths := sum(counts[id(rc.root)])) > 2**MAX_MEASUREMENTS:
        raise WidthOverflow(f"{paths} tree paths exceed the 2^{MAX_MEASUREMENTS}-path limit")

    def run(node: RecursiveNode, s: np.ndarray) -> tuple[list, list, np.ndarray, np.ndarray]:
        """The paths through `node` of each row of s, a (k, d) block: their
        bits, whether each ended at a dead K_b, and per row their
        probabilities (k, G) and states (k, G, d)."""
        bits, k_t, live, triggers = tables[id(node)]
        rows, d = s.shape
        v = (s @ k_t).reshape(rows, len(bits), d)
        p = _mass(v.reshape(-1, d)).reshape(rows, -1)
        ok = p >= ZERO
        v = np.divide(v, np.sqrt(p)[..., None], out=np.zeros_like(v), where=ok[..., None])
        p = np.where(ok, p, 0.0)
        out_bits, out_end, out_p, out_s = [], [], [], []
        for b, (alive, children) in enumerate(zip(live, triggers)):
            g_bits, g_end, g_p, g_s = [bits[b]], [not alive], p[:, b:b + 1], v[:, b:b + 1]
            for rep in children if alive else ():
                if (q := rep.pre_pauli_qubit) is not None:
                    g_s = g_s.reshape(-1, 2**q, 2, d >> (q + 1))[:, :, ::-1]
                c_bits, c_end, c_p, c_s = run(rep.child, g_s.reshape(-1, d))
                m = len(c_bits)
                g_p = (g_p[..., None] * c_p.reshape(rows, -1, m)).reshape(rows, -1)
                g_s = c_s.reshape(rows, -1, d)
                if any(g_end):  # an ended path (p 0, a zero row) keeps one zero copy
                    grown = [(i, y, e) for g, (x, end) in enumerate(zip(g_bits, g_end))
                             for i, y, e in ([(g * m, x, True)] if end else zip(
                                 range(g * m, g * m + m), [x + z for z in c_bits], c_end))]
                    take, g_bits, g_end = map(list, zip(*grown))
                    g_p, g_s = g_p[:, take], g_s[:, take]
                else:
                    g_bits, g_end = [x + y for x in g_bits for y in c_bits], c_end * len(g_bits)
            out_bits += g_bits
            out_end += g_end
            out_p.append(g_p)
            out_s.append(g_s)
        return out_bits, out_end, np.concatenate(out_p, axis=1), np.concatenate(out_s, axis=1)

    bits, _, p, s = run(rc.root, input_state.amplitudes[None])
    states = iter(_certified_states(rc.n, s[0][p[0] > 0]))  # p is 0 just where a path died
    return [(b, q, next(states) if q > 0 else None) for b, q in zip(bits, p[0].tolist())]


def resource_report(rc: RecursiveCircuit) -> ResourceReport:
    """Exact counts from one walk of the tree; each node measures its n
    ancilla qubits once, so the two counts agree."""
    qubits, depth = 0, 0
    by_level: dict[int, int] = {}
    for node, d in _nodes(rc.root):
        qubits += node.n
        depth = max(depth, d)
        for rep in node.repairs:
            if rep.pre_pauli_qubit is not None:
                by_level[1] = by_level.get(1, 0) + 1
            if rep.canonical is not None:
                lvl = 1 if rep.klass == "pauli" else 2
                by_level[lvl] = by_level.get(lvl, 0) + 1
    return ResourceReport(qubits, qubits, by_level, depth)


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

    level: int
    mode: str  # "direct" | "injected"
    direct_patterns: tuple[tuple[int, ...], ...] = ()
    children: tuple[tuple[tuple[int, ...], "ControlledRealization"], ...] = ()


@dataclass(frozen=True)
class PreparationStep:
    m: np.ndarray = field(repr=False)
    u_x: np.ndarray = field(repr=False)
    realization: ControlledRealization


@dataclass(frozen=True)
class RecursivePreparation:
    target: StateVector
    steps: tuple[PreparationStep, ...]
    circuit: Circuit
    register: tuple[int, ...]


def _realize_controlled(buf: CircuitBuilder, kappa: int, register: list[int],
                        spare: list[int], payload: np.ndarray,
                        cond=((), ())) -> ControlledRealization:
    """Emit ops applying the payload to the register when qubit kappa is
    |1> and `cond` holds, exactly (the payload's eigenvalue phases included).
    Every injection uses `spare`, allocated at the first (empty until then)."""
    n = len(register)
    level = hierarchy.hierarchy_level(payload, k_max=MAX_RECURSION_LEVEL).level
    if level is None:
        raise SynthesisRefusal(f"controlled payload exceeds level {MAX_RECURSION_LEVEL}")
    if level <= 2:
        buf.cgate(*cond, gates.controlled(payload), [kappa] + register,
                  role="D" if cond[0] else "U")
        return ControlledRealization(level, "direct")

    magic = StateVector(n, payload @ _plus_state(n)).amplitudes
    if not spare:
        spare += buf.alloc_qubits(n, "inject")
    cbits = buf.alloc_cbits(n)
    emit_inject(buf, magic, register, spare, cbits, controls=[kappa], cond=cond)
    direct_patterns: list[tuple[int, ...]] = []
    children: list[tuple[tuple[int, ...], ControlledRealization]] = []
    for vals, w in _pattern_repairs(payload, keep_phase=True):
        sub = _realize_controlled(buf, kappa, register, spare, w,
                                  (cond[0] + tuple(cbits), cond[1] + vals))
        if sub.mode == "direct":
            direct_patterns.append(vals)
        else:
            children.append((vals, sub))
    return ControlledRealization(level, "injected", tuple(direct_patterns), tuple(children))


def recursive_ancilla_prep(spec: GateSpec) -> RecursivePreparation:
    """Prepare U|+...+> from |0...0> by measuring each stabilizer
    U_x·X_i through one control qubit, re-injected as |0> at each step, with
    Z_i repairs on -1 outcomes: at most 2n+1 qubits."""
    u, n, _ = _checked_spec(spec, "preparation")

    target = StateVector(n, u @ _plus_state(n))
    buf = CircuitBuilder(n + 1, 0, ["zero"] * n + ["inject"])
    register, kappa, spare = list(range(n)), n, []
    steps = []
    for i, (m_i, u_x) in enumerate(_x_repairs(u)):
        def controlled_m() -> ControlledRealization:
            buf.gate("CNOT", [kappa, register[i]], role="E")
            return _realize_controlled(buf, kappa, register, spare, u_x)
        realization = emit_stabilizer_step(buf, kappa, controlled_m, "Z", [register[i]])
        steps.append(PreparationStep(m_i, u_x, realization))
    return RecursivePreparation(target, tuple(steps), buf.build(), tuple(register))


def verify_preparation(prep: RecursivePreparation,
                       tol: float = VERIFY_TOL) -> tuple[bool, float]:
    """Verify the circuit as a 0-input isometry, the target state as one
    column on the register: (passed, worst fidelity)."""
    report = verify_gate_equivalence(prep.circuit, prep.target.amplitudes[:, None], (),
                                     prep.register, tol=tol)
    return report.passed, report.worst_fidelity
