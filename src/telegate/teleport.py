"""One-bit teleportation primitives and gate rewriting.

The X and Z primitives move a register through one CNOT, one Z-basis
measurement, and one classically-controlled Pauli.  `emit_teleport` is the
one emitter of that skeleton (receiver preparation, optional Clifford frame,
CNOT coupling, basis change, measurement); the bare and generalized
teleports, the synthesis, the recursion root, the remote pre-rewrite
circuits and Bell teleports are built on it and add only their repairs.
A gate moves through qubit q's teleport when it commutes with q's coupling
CNOT, a test read off q's 2×2 blocks of the gate; both planners reach it
through one guard that refuses a gate failing `clifford.checked_unitary`,
then a too-wide one.  The sandwich synthesis checks u and V that way too.
The synthesis rewrites U = G_b·V·G_a, V commuting with the CNOT layer,
into the skeleton (Gottesman & Chuang, Nature 402:390, 1999): V·A|0...0>
is injected, G_a frames the data and G_b the receiver, and each repair D_i
becomes G_b·V·D_i·V†·G_b†, certified Pauli / Clifford / diagonal-times-X
before emission; V·D_i·V† is an image of `pauli.conjugated_generators`.
A plain synthesis is G_a = G_b = I, V = U.  Every synthesis verifies every
branch against the target before returning.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clifford as clifford_mod
from . import gates, hierarchy, pauli
from .circuit import Circuit, CircuitBuilder, matrix_doc, state_doc
from .clifford import CliffordFrame
from .errors import DimensionMismatch, SynthesisRefusal, ValidationError
from .limits import FLOOR, MAX_HIERARCHY_LEVEL, MAX_PLAN_WIDTH, TOL, VERIFY_TOL, width_of
from .simulator import EquivalenceReport, StateVector, verify_gate_equivalence, zero_state


@dataclass(frozen=True)
class TeleportPlan:
    """Per-qubit choice of X- or Z-teleportation, plus the derived roles."""

    kinds: tuple[str, ...]
    generalized_g: CliffordFrame | None = None

    def __post_init__(self):
        for k in self.kinds:
            if k not in ("X", "Z"):
                raise ValidationError(f"bad teleport kind {k!r}")

    @property
    def n(self) -> int:
        return len(self.kinds)

    @property
    def a_ops(self) -> tuple[str, ...]:
        return tuple("H" if k == "X" else "I" for k in self.kinds)

    @property
    def b_ops(self) -> tuple[str, ...]:
        return tuple("I" if k == "X" else "H" for k in self.kinds)

    @property
    def d_ops(self) -> tuple[str, ...]:
        return tuple("X" if k == "X" else "Z" for k in self.kinds)

    def describe(self) -> str:
        return "".join(self.kinds)


@dataclass(frozen=True)
class Correction:
    """One classically-controlled correction U·D_i·U† with its class."""

    qubit: int
    matrix: np.ndarray
    klass: str  # "pauli" | "clifford" | "diagonal-pauli"
    phase: complex
    canonical: np.ndarray
    pauli_literal: str | None = None
    residue_level: int | None = None


@dataclass(frozen=True)
class SynthesisResult:
    circuit: Circuit
    ancilla_state: StateVector
    corrections: tuple[Correction, ...]
    plan: TeleportPlan
    report: EquivalenceReport

    def sidecar(self) -> dict:
        return {
            "ancilla": state_doc(self.ancilla_state.amplitudes),
            "corrections": [
                {
                    "qubit": c.qubit,
                    "class": c.klass,
                    "matrix": matrix_doc(c.canonical),
                    "phase": state_doc(c.phase)[0],
                    **({"pauli": c.pauli_literal} if c.pauli_literal else {}),
                }
                for c in self.corrections
            ],
        }


def verify_or_refuse(circuit: Circuit, u: np.ndarray, in_map, out_map,
                     tol: float) -> EquivalenceReport:
    """Check every branch against u; refuse the synthesis unless all pass."""
    report = verify_gate_equivalence(circuit, u, in_map, out_map, tol=tol)
    if not report.passed:
        raise SynthesisRefusal(
            f"branch verification failed (worst fidelity {report.worst_fidelity:.12f}"
            f" on branch {report.failing_branch!r})")
    return report


def split_phase(m: np.ndarray) -> tuple[complex, np.ndarray]:
    """Split m into (phase, canonical) with the first nonzero entry made
    real positive; phase * canonical reproduces m."""
    flat = m.ravel()
    for entry in flat:
        if abs(entry) > FLOOR:
            phase = complex(entry / abs(entry))
            return phase, m / phase
    raise ValidationError("zero matrix has no phase convention")


def peel_x_pattern(m: np.ndarray, tol: float = TOL) -> tuple[tuple[int, ...], np.ndarray] | None:
    """Factor m = D · X^x with D diagonal, if the support pattern allows it:
    x is the row of column 0's largest entry, and D is m's columns gathered
    by X^x, which must leave no entry above tol off the diagonal."""
    n = width_of(m.shape[0])
    x_int = int(np.abs(m[:, 0]).argmax())
    diag = m[:, np.arange(len(m)) ^ x_int]
    if not np.array_equal(np.abs(diag) > tol, np.eye(len(m), dtype=bool)):
        return None
    return tuple((x_int >> (n - 1 - q)) & 1 for q in range(n)), diag


def classify_correction(m: np.ndarray, k_hint: int, qubit: int,
                        tol: float = TOL) -> Correction:
    """Certify a correction on the Pauli / Clifford / diagonal·X ladder."""
    phase, canonical = split_phase(m)
    hit = pauli.pauli_from_matrix(m, tol=max(tol, FLOOR))
    if hit is not None:
        c, bare, _ = hit
        return Correction(qubit, m, "pauli", c, pauli.pauli_to_matrix(bare),
                          pauli_literal=pauli.format_literal(bare))
    if clifford_mod.clifford_from_matrix(m, tol=max(tol, FLOOR)) is not None:
        return Correction(qubit, m, "clifford", phase, canonical)
    peeled = peel_x_pattern(m, tol=max(tol, FLOOR))
    if peeled is not None:
        verdict = hierarchy.hierarchy_level(peeled[1], k_max=max(k_hint, 2), tol=tol)
        if verdict.level is not None and verdict.level <= k_hint - 1:
            return Correction(qubit, m, "diagonal-pauli", phase, canonical,
                              residue_level=verdict.level)
    raise SynthesisRefusal(
        f"correction on qubit {qubit} is neither Pauli, Clifford, nor"
        f" diagonal-times-X within level {k_hint - 1}")


def emit_teleport(b: CircuitBuilder, plan: TeleportPlan, data, receiver, cbits,
                  ancilla=None) -> None:
    """Append plan's teleport skeleton from data onto receiver: the A layer
    on |0> (or the injected ancilla), plan.generalized_g on the data, the
    CNOT coupling, the B layer, and data[i] measured into cbits[i].  The
    repairs are the caller's."""
    if ancilla is None:
        for q, name in zip(receiver, plan.a_ops, strict=True):
            if name != "I":
                b.gate(name, [q], role="A")
    else:
        b.inject(ancilla, receiver, role="ancilla-prep")
    g = plan.generalized_g
    if g is not None:
        b.gate(g.name if g.name in gates.GATE_NAMES else g.matrix, data, role="A")
    for kind, d, r in zip(plan.kinds, data, receiver, strict=True):
        # an X teleport's CNOT controls on the receiver, a Z teleport's on the data
        b.gate("CNOT", (r, d) if kind == "X" else (d, r), role="E")
    for q, name in zip(data, plan.b_ops, strict=True):
        if name != "I":
            b.gate(name, [q], role="B")
    for q, c in zip(data, cbits, strict=True):
        b.measure(q, c)


def build_one_bit_teleport(kind: str, n: int = 1) -> Circuit:
    """The bare X- or Z-teleportation of an n-qubit register.

    Data sits on qubits 0..n-1, the receiving ancilla on n..2n-1; each
    measurement outcome i=1 triggers the Pauli repair on ancilla qubit i.
    """
    if kind not in ("X", "Z"):
        raise ValidationError(f"teleport kind must be 'X' or 'Z', got {kind!r}")
    if n < 1:
        raise ValidationError("need at least one qubit")
    plan = TeleportPlan((kind,) * n)
    b = CircuitBuilder(2 * n, n, inputs=["input"] * n + ["zero"] * n)
    emit_teleport(b, plan, range(n), range(n, 2 * n), range(n))
    for i, d_name in enumerate(plan.d_ops):
        b.cgate([i], [1], d_name, [n + i], role="D")
    return b.build()


def build_generalized_teleport(g: CliffordFrame) -> Circuit:
    """Teleport through a Clifford frame: G on the data before the CNOT
    layer, G† on the ancilla after the repairs.  Reduces to X-teleportation
    for G = I and reproduces the Z-teleportation channel for G = H."""
    n = g.n
    b = CircuitBuilder(2 * n, n, inputs=["input"] * n + ["zero"] * n)
    anc = list(range(n, 2 * n))
    emit_teleport(b, TeleportPlan(("X",) * n, generalized_g=g), range(n), anc, range(n))
    for i in range(n):
        b.cgate([i], [1], "X", [n + i], role="D")
    b.gate(g.matrix.conj().T, anc, role="B")
    return b.build()


def _commuting_kinds(u: np.ndarray, tol: float) -> np.ndarray:
    """Row q: whether u commutes with qubit q's coupling in an X teleport (its
    control |1><1|) and in a Z teleport (its target X): with u = [[A, B], [C, D]]
    in q's basis, max(|B|, |C|) and max(|A - D|, |B - C|) below max(tol, FLOOR).
    Both planners pass here: u is checked unitary first, as the X read skips A and D."""
    u = clifford_mod.checked_unitary(u, tol)
    n = width_of(u.shape[0])
    if n > MAX_PLAN_WIDTH:
        raise ValidationError(f"teleport plans are limited to width {MAX_PLAN_WIDTH}")
    residues = np.empty((n, 2))
    for q in range(n):
        (a, b), (c, d) = u.reshape(2**q, 2, -1, 2**q, 2, 2**(n - q - 1)).transpose(1, 4, 0, 2, 3, 5)
        residues[q] = max(abs(b).max(), abs(c).max()), max(abs(a - d).max(), abs(b - c).max())
    return residues < max(tol, FLOOR)


def plan_commutes(u: np.ndarray, kinds: tuple[str, ...], tol: float = TOL) -> bool:
    """Whether u on the receivers commutes with the CNOT layer of kinds.  The
    couplings act on disjoint qubit pairs, so this holds exactly when it
    holds qubit by qubit (Gottesman & Chuang 1999)."""
    if len(kinds) != width_of(u.shape[0]):
        raise DimensionMismatch("plan width does not match the gate")
    return all(ok["XZ".index(k)] for ok, k in zip(_commuting_kinds(u, tol), kinds))


def plan_teleportation(u: np.ndarray, tol: float = TOL) -> TeleportPlan | None:
    """X on each qubit where that commutes, else Z, else None.  Qubits are
    independent, so this is the one commuting plan with the fewest Z."""
    kinds = tuple("X" if x else "Z" if z else None for x, z in _commuting_kinds(u, tol))
    return None if None in kinds else TeleportPlan(kinds)


def _synthesize(u: np.ndarray, plan: TeleportPlan, v: np.ndarray,
                g_b: CliffordFrame | None, k_hint: int, tol: float) -> SynthesisResult:
    """Synthesize u = G_b·V·G_a (G_a is plan.generalized_g; no G_b is I):
    inject V·A|0...0>, run the skeleton, apply G_b to the receiver, repair
    bit i with the classified G_b·V·D_i·V†·G_b†, verify every branch; G_b
    frames V's `pauli.conjugated_generators` images as one stack."""
    n = plan.n
    a_matrix = gates.kron(*(gates.matrix_of(name) for name in plan.a_ops))
    ancilla = StateVector(n, v @ a_matrix @ zero_state(n).amplitudes)
    images = np.concatenate(list(pauli.conjugated_generators(v)))
    # No identity frame product: it can turn a -0.0 in the sidecar into 0.0.
    if g_b is not None:
        images = g_b.matrix @ images @ g_b.matrix.conj().T
    corrections = [classify_correction(images[2 * i + (d_name == "Z")], k_hint, i, tol=tol)
                   for i, d_name in enumerate(plan.d_ops)]

    b = CircuitBuilder(2 * n, n, inputs=["input"] * n + ["inject"] * n)
    anc = list(range(n, 2 * n))
    emit_teleport(b, plan, range(n), anc, range(n), ancilla=ancilla.amplitudes)
    if g_b is not None:
        b.gate(g_b.matrix, anc, role="B")
    for i, corr in enumerate(corrections):
        b.cgate([i], [1], corr.canonical, anc, role="D")
    circuit = b.build()

    report = verify_or_refuse(circuit, u, list(range(n)), anc, tol=VERIFY_TOL)
    return SynthesisResult(circuit, ancilla, tuple(corrections), plan, report)


def synthesize_teleported_gate(u: np.ndarray, plan: TeleportPlan | None = None,
                               k_hint: int = 3,
                               tol: float = TOL) -> SynthesisResult:
    """Rewrite u into teleported form and verify every branch.

    The circuit injects U·A|0...0>, runs the CNOT layer and measurements,
    and repairs with the classified U·D_i·U† (canonical phases dropped at
    emission).  An explicit plan must pass plan_commutes, as an automatic one does."""
    if not 1 <= k_hint <= MAX_HIERARCHY_LEVEL:
        raise ValidationError(f"k_hint must be between 1 and {MAX_HIERARCHY_LEVEL}, got {k_hint}")
    u = np.asarray(u, dtype=complex)
    if plan is None:
        plan = plan_teleportation(u, tol=tol)
        if plan is None:
            raise SynthesisRefusal(
                "no X/Z assignment commutes with the CNOT layer for this gate")
    elif not plan_commutes(u, plan.kinds, tol=tol):
        raise SynthesisRefusal(
            f"plan {plan.describe()} does not commute with the CNOT layer")
    verdict = hierarchy.hierarchy_level(u, k_max=max(k_hint, hierarchy.DEFAULT_K_MAX), tol=tol)
    if verdict.level is None or verdict.level > k_hint:
        found = f"level {verdict.level}" if verdict.level else f"above level {verdict.k_max}"
        raise SynthesisRefusal(f"gate is {found}, above k_hint {k_hint}")
    return _synthesize(u, plan, u, None, k_hint, tol)


def synthesize_sandwiched(u: np.ndarray, g_a: CliffordFrame, v: np.ndarray,
                          g_b: CliffordFrame,
                          tol: float = TOL) -> SynthesisResult:
    """Teleport u = G_b·V·G_a through the Clifford frame: the plain
    synthesis of V on an all-X plan, with G_a on the data before the CNOT
    layer and G_b on the receiver ahead of the repairs."""
    u = clifford_mod.checked_unitary(u, tol)
    v = clifford_mod.checked_unitary(v, tol)
    n = width_of(u.shape[0])
    if (g_a.n, v.shape, g_b.n) != (n, u.shape, n):
        raise DimensionMismatch(f"G_a, V and G_b act on {g_a.n}, {width_of(len(v))} and"
                                f" {g_b.n} qubits; the gate acts on {n}")
    if np.max(np.abs(u - g_b.matrix @ v @ g_a.matrix)) > max(tol, FLOOR):
        raise SynthesisRefusal("decomposition mismatch: u != G_b·V·G_a")
    if not hierarchy.is_diagonal_matrix(v, tol=max(tol, FLOOR)):
        raise SynthesisRefusal("the sandwiched factor V must be diagonal")
    return _synthesize(u, TeleportPlan(("X",) * n, generalized_g=g_a), v, g_b, 3, tol)
