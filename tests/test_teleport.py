"""Teleportation primitives, plans, and gate synthesis."""

import functools
import itertools

import numpy as np
import pytest

from telegate import gates
from telegate.circuit import CircuitBuilder, GateOp
from telegate.clifford import clifford_from_matrix, tableau_from_gate
from telegate.errors import DimensionMismatch, SynthesisRefusal, ValidationError
from telegate.hierarchy import hierarchy_level
from telegate.limits import FLOOR, TOL
from telegate.simulator import (equivalent_up_to_phase, extract_register_state,
                                random_state, run_all_branches,
                                verify_gate_equivalence, zero_state)
from telegate.teleport import (TeleportPlan, build_generalized_teleport,
                               build_one_bit_teleport, emit_teleport, plan_commutes,
                               peel_x_pattern, plan_teleportation, split_phase,
                               synthesize_sandwiched, synthesize_teleported_gate)

from conjugation_oracle import (_perturbation, dense_commutator_max, dense_synthesis_repairs,
                                loop_peel_x_pattern, verdict_sweep)

SQ2 = 1 / np.sqrt(2)


def _elide_identities(circuit):
    kept = []
    for op in circuit.ops:
        if isinstance(op, GateOp) and not op.cond_cbits:
            m = op.resolved_matrix()
            if np.max(np.abs(m - np.eye(m.shape[0]))) < 1e-12:
                continue
        kept.append(op)
    return tuple(kept)


# --- one-bit primitives ------------------------------------------------------

def test_z_teleport_structure_and_identity():
    c = build_one_bit_teleport("Z", 1)
    names = [op.name for op in c.ops if isinstance(op, GateOp) and not op.cond_cbits]
    assert names == ["CNOT", "H"]  # coupling, then the basis change on data
    report = verify_gate_equivalence(c, np.eye(2, dtype=complex), [0], [1])
    assert report.passed


def test_x_teleport_identity():
    report = verify_gate_equivalence(build_one_bit_teleport("X", 1),
                                     np.eye(2, dtype=complex), [0], [1])
    assert report.passed


def test_two_qubit_x_teleport_has_four_branches():
    c = build_one_bit_teleport("X", 2)
    report = verify_gate_equivalence(c, np.eye(4, dtype=complex), [0, 1], [2, 3])
    assert report.passed and len(report.branch_weights) == 4
    for w in report.branch_weights.values():
        assert abs(w - 0.25) < 1e-12


def test_per_measurement_probability_is_half(rng):
    for kind, n in (("X", 1), ("Z", 1), ("X", 2), ("Z", 2)):
        c = build_one_bit_teleport(kind, n)
        psi = random_state(n, rng)
        for b in run_all_branches(c, psi):
            assert abs(b.probability - 0.5**n) < 1e-10


# --- generalized frame -------------------------------------------------------

def test_generalized_identity_reduces_to_x_teleport():
    gen = build_generalized_teleport(tableau_from_gate("I"))
    assert _elide_identities(gen) == build_one_bit_teleport("X", 1).ops


def test_generalized_hadamard_matches_z_teleport_channel(rng):
    gen = build_generalized_teleport(tableau_from_gate("H"))
    z = build_one_bit_teleport("Z", 1)
    for _ in range(5):
        psi = random_state(1, rng)
        left = run_all_branches(gen, psi)
        right = run_all_branches(z, psi)
        assert len(left) == len(right) == 2
        for lb, rb in zip(left, right):
            a = extract_register_state(lb, (1,))
            b = extract_register_state(rb, (1,))
            ok, _ = equivalent_up_to_phase(a, b)
            assert ok


def test_generalized_s_frame_is_identity_channel():
    gen = build_generalized_teleport(tableau_from_gate("S"))
    report = verify_gate_equivalence(gen, np.eye(2, dtype=complex), [0], [1])
    assert report.passed and len(report.branch_weights) == 2


# --- plans -------------------------------------------------------------------

def test_plan_for_t_is_x():
    assert plan_teleportation(gates.T).describe() == "X"


def test_plan_for_toffoli_is_xxz():
    assert plan_teleportation(gates.TOFFOLI).describe() == "XXZ"


def test_no_plan_for_controlled_hadamard():
    assert plan_teleportation(gates.CH) is None


def test_plan_prefers_all_x():
    # Z commutes with every coupling; the tie-break must pick all-X
    assert plan_teleportation(gates.Z).describe() == "X"
    assert plan_teleportation(gates.CZ).describe() == "XX"


def _oracle_commutes(u, kinds):
    """Independent coupling-layer commutation: build each CNOT as a basis
    permutation instead of the embedding helper."""
    n = len(kinds)
    dim = 2 ** (2 * n)
    e = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        data = [(idx >> (2 * n - 1 - q)) & 1 for q in range(n)]
        anc = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        for i, kind in enumerate(kinds):
            if kind == "X":
                data[i] ^= anc[i]
            else:
                anc[i] ^= data[i]
        out = 0
        for q in range(n):
            out |= data[q] << (2 * n - 1 - q)
            out |= anc[q] << (n - 1 - q)
        e[out, idx] = 1.0
    u_ext = np.kron(np.eye(2**n), u)  # u on the ancilla block (low bits)
    return np.max(np.abs(u_ext @ e - e @ u_ext)) < 1e-9


@pytest.mark.parametrize("name", ["T", "CS", "CH", "TOFFOLI"])
def test_commutation_soundness_exhaustive(name):
    u = gates.matrix_of(name)
    n = int(round(np.log2(u.shape[0])))
    for kinds in itertools.product("XZ", repeat=n):
        assert plan_commutes(u, tuple(kinds)) == _oracle_commutes(u, kinds), kinds


# --- the dense oracle --------------------------------------------------------
# The plan rule read off the whole CNOT layer on [data | receiver] as a 4^n
# matrix, with every X/Z assignment searched, fewest Z first: the reference
# that the per-qubit test must match.

@functools.lru_cache(maxsize=None)
def _e_layer(kinds):
    """The CNOT layer on [data 0..n-1 | receiver n..2n-1] as a dense matrix."""
    n = len(kinds)
    total = np.eye(2 ** (2 * n), dtype=complex)
    for i, kind in enumerate(kinds):
        pair = (n + i, i) if kind == "X" else (i, n + i)
        total = gates.embed(gates.CNOT, pair, 2 * n) @ total
    total.flags.writeable = False
    return total


@functools.lru_cache(maxsize=None)
def _e_permutation(kinds):
    """_e_layer(kinds) is a permutation matrix: e @ m is m[rows] and m @ e is
    m[:, cols], entry for entry the dense products."""
    e = _e_layer(kinds)
    return e.argmax(axis=1), e.argmax(axis=0)


def _dense_commutes(u_ext, kinds, ue, eu, tol=TOL):
    """Entrywise test that u_ext, u on the receivers, commutes with _e_layer(kinds);
    ue and eu are u_ext-shaped buffers the two products are gathered into."""
    rows, cols = _e_permutation(kinds)
    np.take(u_ext, cols, axis=1, out=ue, mode="clip")  # the indices are in range: no buffering
    np.take(u_ext, rows, axis=0, out=eu, mode="clip")
    ue -= eu
    return bool(np.max(np.abs(ue)) < max(tol, FLOOR))


def _assert_plans_match_the_oracle(u, label):
    n = int(round(np.log2(u.shape[0])))
    u_ext = np.kron(np.eye(2**n), u)  # the receivers are the low index bits
    ue, eu = np.empty_like(u_ext), np.empty_like(u_ext)
    dense = {kinds: _dense_commutes(u_ext, kinds, ue, eu)
             for kinds in itertools.product("XZ", repeat=n)}
    for kinds, verdict in dense.items():
        assert plan_commutes(u, kinds) == verdict, (label, kinds)
    # the sorted search: all-X first, then fewer Z, then lexicographic
    searched = sorted(dense, key=lambda ks: (ks.count("Z"), ks))
    want = next((kinds for kinds in searched if dense[kinds]), None)
    plan = plan_teleportation(u)
    assert (None if plan is None else plan.kinds) == want, label


def test_plans_match_the_oracle_on_library_gates():
    for name in gates.GATE_NAMES:
        _assert_plans_match_the_oracle(gates.matrix_of(name), name)


@pytest.mark.parametrize("first", gates.GATE_NAMES)
def test_plans_match_the_oracle_on_kronecker_pairs(first):
    a = gates.matrix_of(first)
    for second in gates.GATE_NAMES:
        b = gates.matrix_of(second)
        if a.shape[0] * b.shape[0] <= 16:
            _assert_plans_match_the_oracle(gates.kron(a, b), f"{first}⊗{second}")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_plans_match_the_oracle_on_random_diagonals(n, rng):
    for trial in range(4):
        d = np.diag(np.exp(2j * np.pi * rng.random(2**n)))
        _assert_plans_match_the_oracle(d, f"diagonal {trial}")
        # H on a random subset of qubits: some qubits then need a Z teleport
        on = rng.random(n) < 0.5
        h = gates.kron(*(gates.H if bit else gates.I2 for bit in on))
        _assert_plans_match_the_oracle(h @ d @ h, f"H{on.astype(int)} diagonal {trial}")


def test_block_verdicts_match_the_dense_commutator(rng):
    """Every (qubit, kind) verdict of the 2×2 block read is the dense
    commutator's: on the hierarchy sweep, on its first 60 unitaries moved by
    0.5, 1 and 2 times FLOOR, the plan's bound, and on library Kronecker pairs."""
    from telegate.teleport import _commuting_kinds
    sweep = verdict_sweep(rng)
    sweep += [u @ _perturbation(rng, u.shape[0], f * FLOOR)
              for u in sweep[:60] for f in (0.5, 1, 2)]
    library = [gates.matrix_of(name) for name in gates.GATE_NAMES]
    sweep += [gates.kron(a, b) for a in library for b in library if len(a) * len(b) <= 16]
    near = 0
    for u in sweep:
        verdicts = _commuting_kinds(u, TOL)
        for q in range(len(verdicts)):
            for j, kind in enumerate("XZ"):
                dense = dense_commutator_max(u, q, kind)
                assert verdicts[q, j] == (dense < max(TOL, FLOOR)), (q, kind, dense)
                near += 0.3 * FLOOR <= dense <= 3 * FLOOR
    assert len(sweep) == 667 and near > 100


@pytest.mark.parametrize("u", [np.diag([1, np.nan, 1, 1]), np.array([[1, 1], [0, 1]])],
                         ids=["nan-identity", "shear"])
def test_both_planners_refuse_a_matrix_that_is_not_unitary(u):
    # The block read skips the NaN that poisons the dense product, so the
    # unitarity check runs ahead of it for either planner.
    kinds = ("X",) * int(np.log2(len(u)))
    for call in (lambda: plan_teleportation(u), lambda: plan_commutes(u, kinds)):
        with pytest.raises(ValidationError, match="^input matrix is not unitary within tolerance$"):
            call()


def test_automatic_and_explicit_plans_share_one_tolerance():
    # T·R_x(4e-9) couples its receiver by 2e-9, between TOL and FLOOR: both
    # routes accept the X plan, and the synthesis refuses both the same way.
    theta = 4e-9
    u = gates.T @ (np.cos(theta / 2) * gates.I2 - 1j * np.sin(theta / 2) * gates.X)
    assert plan_commutes(u, ("X",))
    assert plan_teleportation(u).kinds == ("X",)
    with pytest.raises(SynthesisRefusal) as auto:
        synthesize_teleported_gate(u)
    with pytest.raises(SynthesisRefusal) as explicit:
        synthesize_teleported_gate(u, TeleportPlan(("X",)))
    assert str(auto.value) == str(explicit.value)


def test_plan_unitarity_check_takes_the_callers_tolerance():
    u = gates.T.copy()
    u[1, 1] *= 1 + 1e-7  # u†u is 2e-7 off the identity
    assert hierarchy_level(u, tol=1e-6).level == 3
    assert plan_teleportation(u, tol=1e-6).kinds == ("X",)


# --- synthesis ---------------------------------------------------------------

def test_synthesize_t():
    res = synthesize_teleported_gate(gates.T)
    want = np.array([1.0, np.exp(1j * np.pi / 4)]) * SQ2
    assert np.max(np.abs(res.ancilla_state.amplitudes - want)) < 1e-12
    corr = res.corrections[0]
    sx = gates.S @ gates.X
    assert corr.klass == "clifford"
    assert np.max(np.abs(corr.matrix - np.exp(-1j * np.pi / 4) * sx)) < 1e-12
    assert np.max(np.abs(corr.canonical - sx)) < 1e-12
    assert abs(corr.phase - np.exp(-1j * np.pi / 4)) < 1e-12
    assert res.report.passed


def test_synthesize_controlled_phase():
    res = synthesize_teleported_gate(gates.CS)
    want = np.array([1, 1, 1, 1j], dtype=complex) / 2
    assert np.max(np.abs(res.ancilla_state.amplitudes - want)) < 1e-12
    refs = (gates.kron(gates.X, gates.S) @ gates.CZ,
            gates.kron(gates.S, gates.X) @ gates.CZ)
    for corr, ref in zip(res.corrections, refs):
        fit = np.trace(ref.conj().T @ corr.matrix) / 4
        assert abs(abs(fit) - 1.0) < 1e-10
        assert np.max(np.abs(corr.matrix - fit * ref)) < 1e-10
        assert corr.klass == "clifford"
    assert res.report.passed and len(res.report.branch_weights) == 4


def test_synthesize_toffoli():
    res = synthesize_teleported_gate(gates.TOFFOLI)
    assert res.plan.describe() == "XXZ"
    want = np.zeros(8, dtype=complex)
    want[[0, 2, 4, 7]] = 0.5
    assert np.max(np.abs(res.ancilla_state.amplitudes - want)) < 1e-12
    refs = (gates.embed(gates.X, (0,), 3) @ gates.embed(gates.CNOT, (1, 2), 3),
            gates.embed(gates.X, (1,), 3) @ gates.embed(gates.CNOT, (0, 2), 3),
            gates.embed(gates.Z, (2,), 3) @ gates.embed(gates.CZ, (0, 1), 3))
    for corr, ref in zip(res.corrections, refs):
        fit = np.trace(ref.conj().T @ corr.matrix) / 8
        assert abs(abs(fit) - 1.0) < 1e-10
        assert np.max(np.abs(corr.matrix - fit * ref)) < 1e-10
    assert res.report.passed and len(res.report.branch_weights) == 8


def test_synthesis_rejects_non_commuting_plan():
    with pytest.raises(SynthesisRefusal):
        synthesize_teleported_gate(gates.TOFFOLI, TeleportPlan(("Z", "X", "X")))
    with pytest.raises(DimensionMismatch, match="plan width does not match the gate"):
        synthesize_teleported_gate(gates.T, TeleportPlan(("X", "Z")))


def test_synthesis_refuses_gate_without_plan():
    with pytest.raises(SynthesisRefusal):
        synthesize_teleported_gate(gates.CH)


def test_ancilla_dual_route_agreement():
    # matrix action vs gate-by-gate simulation, compared inside synthesis;
    # re-check here externally for the three standard gates
    for name, a_ops in (("T", ("H",)), ("CS", ("H", "H")), ("TOFFOLI", ("H", "H", "I"))):
        u = gates.matrix_of(name)
        n = len(a_ops)
        a = gates.kron(*(gates.matrix_of(x) for x in a_ops))
        by_matrix = u @ a @ zero_state(n).amplitudes
        res = synthesize_teleported_gate(u)
        assert np.max(np.abs(res.ancilla_state.amplitudes - by_matrix)) < 1e-12


def test_synthesized_branches_verify_exhaustively(rng):
    for name in ("T", "S", "CS", "TOFFOLI"):
        res = synthesize_teleported_gate(gates.matrix_of(name))
        assert res.report.passed and res.report.worst_fidelity >= 1 - 1e-10


def test_correction_phases_dropped_in_emitted_circuit():
    res = synthesize_teleported_gate(gates.T)
    cgates = [op for op in res.circuit.ops if isinstance(op, GateOp) and op.cond_cbits]
    emitted = cgates[0].matrix
    sx = gates.S @ gates.X
    assert np.max(np.abs(emitted - sx)) < 1e-12  # no e^{-i pi/4} in the circuit


# --- sandwiched synthesis ----------------------------------------------------

def _ch_frames():
    g_a = clifford_from_matrix(gates.kron(gates.I2, gates.Q.conj().T))
    g_b = clifford_from_matrix(gates.CNOT @ gates.kron(gates.I2, gates.Q))
    v = gates.kron(gates.T, gates.I2) @ gates.matrix_of("CS†")
    return g_a, v, g_b


def test_repairs_are_the_dense_products_byte_for_byte():
    """Each repair is an image of `pauli.conjugated_generators`, framed by
    G_b as one stack.  It equals the dense per-qubit product, a zero's sign
    included, on every library gate that synthesizes and on both sandwiches."""
    cases = []
    for name in gates.GATE_NAMES:
        try:
            res = synthesize_teleported_gate(gates.matrix_of(name))
        except SynthesisRefusal:
            continue
        cases.append((res, dense_synthesis_repairs(res.gate, res.plan.d_ops)))
    assert len(cases) == 12
    h = tableau_from_gate("H")
    hth = (gates.H @ gates.T @ gates.H, (h, gates.T, h))
    for u, (g_a, v, g_b) in ((gates.CH, _ch_frames()), hth):
        res = synthesize_sandwiched(u, g_a, v, g_b)
        cases.append((res, dense_synthesis_repairs(v, res.plan.d_ops, g_b.matrix)))
    for res, want in cases:
        assert [c.matrix.tobytes() for c in res.corrections] == [m.tobytes() for m in want]


def test_sandwiched_controlled_hadamard():
    g_a, v, g_b = _ch_frames()
    assert np.max(np.abs(gates.CH - g_b.matrix @ v @ g_a.matrix)) < 1e-12
    res = synthesize_sandwiched(gates.CH, g_a, v, g_b)
    assert res.report.passed and len(res.report.branch_weights) == 4
    want = v @ gates.kron(gates.H, gates.H) @ zero_state(2).amplitudes
    assert np.max(np.abs(res.ancilla_state.amplitudes - want)) < 1e-12
    for corr in res.corrections:
        assert corr.klass in ("pauli", "clifford")


def test_sandwiched_reduces_to_plain_synthesis():
    ident = tableau_from_gate("I")
    r1 = synthesize_sandwiched(gates.T, ident, gates.T, ident)
    r2 = synthesize_teleported_gate(gates.T)
    assert np.allclose(r1.ancilla_state.amplitudes, r2.ancilla_state.amplitudes)
    for c1, c2 in zip(r1.corrections, r2.corrections):
        assert np.max(np.abs(c1.matrix - c2.matrix)) < 1e-12


def test_sandwiched_hth():
    h = tableau_from_gate("H")
    res = synthesize_sandwiched(gates.H @ gates.T @ gates.H, h, gates.T, h)
    assert res.report.passed


def test_sandwiched_rejects_wrong_decomposition():
    h = tableau_from_gate("H")
    with pytest.raises(SynthesisRefusal):
        synthesize_sandwiched(gates.T, h, gates.T, h)


def test_sandwiched_rejects_non_diagonal_core():
    ident = tableau_from_gate("I")
    with pytest.raises(SynthesisRefusal):
        synthesize_sandwiched(gates.H, ident, gates.H, ident)


def test_sandwiched_refuses_factors_of_the_wrong_width():
    h = tableau_from_gate("H")
    with pytest.raises(DimensionMismatch, match="act on 1, 1 and 1 qubits; the gate acts on 2"):
        synthesize_sandwiched(gates.CH, h, gates.T, h)


# --- diagonal-times-X corrections ---------------------------------------------

def test_peel_x_pattern_factors_a_permuted_diagonal():
    x_bits, diag = peel_x_pattern(gates.S @ gates.X)
    assert x_bits == (1,) and np.max(np.abs(diag - gates.S)) < 1e-12
    assert peel_x_pattern(gates.H) is None


def test_peel_x_pattern_agrees_with_the_column_loop(rng):
    """The gather by column 0's X string against the column-by-column
    search and dense X product it replaced, on permuted diagonals with an
    entry nudged, a column zeroed or the columns shuffled."""
    found = 0
    for trial in range(400):
        d = 2 ** int(rng.integers(0, 4))
        m = np.diag(np.exp(2j * np.pi * rng.random(d)))[:, np.arange(d) ^ int(rng.integers(d))]
        kind = trial % 4
        if kind == 1:
            m[rng.integers(d), rng.integers(d)] += rng.choice([0.5 * TOL, 2 * TOL, 0.5])
        elif kind == 2:
            m[:, rng.integers(d)] = 0
        elif kind == 3:
            m = m[:, rng.permutation(d)]
        got, want = peel_x_pattern(m), loop_peel_x_pattern(m)
        assert (got is None) == (want is None)
        if got is not None:
            found += 1
            assert got[0] == want[0] and np.array_equal(got[1], want[1])
    assert 100 < found < 400


def test_level4_rotation_takes_a_diagonal_pauli_correction():
    res = synthesize_teleported_gate(np.diag([1, np.exp(1j * np.pi / 8)]), k_hint=4)
    assert [(c.klass, c.residue_level) for c in res.corrections] == [("diagonal-pauli", 3)]
    assert res.report.passed


def test_controlled_t_takes_two_diagonal_pauli_corrections():
    ct = gates.controlled(gates.T)
    res = synthesize_teleported_gate(ct, k_hint=4)
    assert [(c.klass, c.residue_level) for c in res.corrections] == [("diagonal-pauli", 3)] * 2
    assert res.report.passed
    with pytest.raises(SynthesisRefusal, match="gate is level 4, above k_hint 3"):
        synthesize_teleported_gate(ct, k_hint=3)


def test_sidecar_shape():
    res = synthesize_teleported_gate(gates.T)
    doc = res.sidecar()
    assert len(doc["ancilla"]) == 2
    assert doc["corrections"][0]["class"] == "clifford"
    assert len(doc["corrections"][0]["phase"]) == 2


# --- the one teleport emitter ------------------------------------------------
# The references are the hand-written builders that emit_teleport replaced,
# kept verbatim so that the rebuilt builders are held to the same ops.

def _reference_one_bit(kind, n):
    b = CircuitBuilder(2 * n, n, inputs=["input"] * n + ["zero"] * n)
    if kind == "X":
        for i in range(n):
            b.gate("H", [n + i], role="A")
        for i in range(n):
            b.gate("CNOT", [n + i, i], role="E")
    else:
        for i in range(n):
            b.gate("CNOT", [i, n + i], role="E")
        for i in range(n):
            b.gate("H", [i], role="B")
    for i in range(n):
        b.measure(i, i)
    for i in range(n):
        b.cgate([i], [1], "X" if kind == "X" else "Z", [n + i], role="D")
    return b.build()


def _reference_generalized(g):
    n = g.n
    b = CircuitBuilder(2 * n, n, inputs=["input"] * n + ["zero"] * n)
    for i in range(n):
        b.gate("H", [n + i], role="A")
    data = list(range(n))
    anc = list(range(n, 2 * n))
    if g.name is not None and g.name in gates.GATE_NAMES:
        b.gate(g.name, data, role="A")
    else:
        b.gate(g.matrix, data, role="A")
    for i in range(n):
        b.gate("CNOT", [n + i, i], role="E")
    for i in range(n):
        b.measure(i, i)
    for i in range(n):
        b.cgate([i], [1], "X", [n + i], role="D")
    b.gate(g.matrix.conj().T, anc, role="B")
    return b.build()


@pytest.mark.parametrize("kind", ["X", "Z"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_bit_teleport_matches_hand_written_ops(kind, n):
    assert build_one_bit_teleport(kind, n) == _reference_one_bit(kind, n)


@pytest.mark.parametrize("call, message", [
    (lambda: TeleportPlan(("Y",)), "bad teleport kind 'Y'"),
    (lambda: build_one_bit_teleport("Y"), "teleport kind must be 'X' or 'Z', got 'Y'"),
    (lambda: build_one_bit_teleport("X", 0), "need at least one qubit"),
    (lambda: split_phase(np.zeros((2, 2))), "zero matrix has no phase convention"),
], ids=["plan", "kind", "width", "zero phase"])
def test_a_teleport_outside_its_kinds_and_widths_is_refused(call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("frame", [
    tableau_from_gate("I"), clifford_from_matrix(np.eye(4)), tableau_from_gate("H"),
    tableau_from_gate("S"), tableau_from_gate("CNOT"), clifford_from_matrix(gates.CZ)])
def test_generalized_teleport_matches_hand_written_ops(frame):
    assert build_generalized_teleport(frame) == _reference_generalized(frame)


@pytest.mark.parametrize("kinds", [k for n in (1, 2) for k in itertools.product("XZ", repeat=n)])
def test_emitted_coupling_is_the_e_layer(kinds):
    """The emitter's CNOTs are the oracle's dense layer, and a gate on the
    receivers commutes with their product exactly when plan_commutes says so."""
    n = len(kinds)
    b = CircuitBuilder(2 * n, n, inputs=["input"] * n + ["zero"] * n)
    emit_teleport(b, TeleportPlan(kinds), range(n), range(n, 2 * n), range(n))
    total = np.eye(4**n, dtype=complex)
    for op in b.ops:
        if op.role == "E":
            total = gates.embed(gates.CNOT, op.targets, 2 * n) @ total
    assert np.array_equal(total, _e_layer(kinds))
    for name in gates.GATE_NAMES:
        u = gates.matrix_of(name)
        if u.shape[0] == 2**n:
            u_ext = gates.embed(u, tuple(range(n, 2 * n)), 2 * n)
            dense = np.max(np.abs(u_ext @ total - total @ u_ext)) < max(TOL, FLOOR)
            assert dense == plan_commutes(u, kinds), name


def test_emitter_refuses_mismatched_registers():
    b = CircuitBuilder(4, 2, inputs=["input"] * 2 + ["zero"] * 2)
    with pytest.raises(ValueError):
        emit_teleport(b, TeleportPlan(("X", "X")), [0, 1], [2], [0, 1])


def test_sandwich_emits_a_named_frame_by_name():
    h = tableau_from_gate("H")
    res = synthesize_sandwiched(gates.H @ gates.T @ gates.H, h, gates.T, h)
    frame = [op for op in res.circuit.ops
             if isinstance(op, GateOp) and not op.cond_cbits and op.role == "A"]
    assert [(op.name, op.targets) for op in frame] == [("H", (0,))]


@pytest.mark.parametrize("name", ["T", "CS", "TOFFOLI"])
def test_a_wrong_ancilla_is_refused(monkeypatch, name):
    # The ancilla goes into the circuit that is verified on every branch,
    # so an ancilla prepared from |0...01> instead of |0...0> is refused.
    from telegate import teleport
    from telegate.simulator import basis_state
    monkeypatch.setattr(teleport, "zero_state", lambda n: basis_state(n, 1))
    with pytest.raises(SynthesisRefusal):
        synthesize_teleported_gate(gates.matrix_of(name))


def test_a_sandwich_whose_repairs_stay_too_deep_is_refused():
    """Teleporting CT = diag(1, 1, 1, e^{iπ/4}) bare through the level-3
    skeleton leaves level-3 residues, which no repair class admits."""
    from telegate.recursive import controlled_rotation_spec
    ct, i = controlled_rotation_spec(1, 4).matrix, clifford_from_matrix(np.eye(4))
    with pytest.raises(SynthesisRefusal, match=r"^correction on qubit 0 is neither Pauli,"
                       r" Clifford, nor diagonal-times-X within level 2$"):
        synthesize_sandwiched(ct, i, ct, i)
