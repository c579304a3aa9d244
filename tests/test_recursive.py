"""Recursive expansion: all-branch equivalence, level descent, resources,
tree/flattened agreement, and recursive magic-state preparation."""

from dataclasses import replace

import numpy as np
import pytest

from telegate import gates, simulator
from telegate.circuit import CircuitBuilder, GateOp, InjectOp, MeasureOp
from telegate.errors import (DimensionMismatch, InvalidCircuitError, ValidationError,
                             WidthOverflow)
from telegate.hierarchy import hierarchy_level
from telegate.recursive import (RecursiveNode, controlled_rotation_spec, emit_inject,
                                execute_tree, matrix_spec, recursive_ancilla_prep,
                                resource_report, rotation_spec, synth_recursive,
                                tree_to_json, verify_preparation)
from telegate.gates import apply_to_columns
from telegate.simulator import (StateVector, basis_state, branch_operators,
                                extract_register_state, random_state, run_all_branches,
                                verify_gate_equivalence)
from telegate.teleport import TeleportPlan, emit_teleport

from conjugation_oracle import dense_pattern_repairs, dense_x_repairs


def tree_walk_residues(rc):
    found = []

    def walk(node, depth):
        for rep in node.repairs:
            found.append((depth, rep.residue_level))
            if rep.child is not None:
                walk(rep.child, depth + 1)

    if rc.root is not None:
        walk(rc.root, 1)
    return found


def branch_operator_set(run, dim_in, tol=1e-8):
    """Distinct normalized branch operators (phase-canonical), as a set of
    rounded byte keys.  `run` maps a basis StateVector to branch triples."""
    per_branch: dict[str, np.ndarray] = {}
    for col in range(dim_in):
        n = int(round(np.log2(dim_in)))
        for bits, p, state in run(basis_state(n, col)):
            if state is None or p < 1e-12:
                continue
            block = per_branch.setdefault(bits, np.zeros((dim_in, dim_in), complex))
            block[:, col] = np.sqrt(p) * state.amplitudes
    keys = set()
    for block in per_branch.values():
        block = block / np.linalg.norm(block)
        flat = block.ravel()
        magnitudes = np.abs(flat)
        anchor = flat[int(np.argmax(magnitudes > magnitudes.max() - 1e-9))]
        block = block * (abs(anchor) / anchor)
        keys.add((np.round(block, 6) + 0.0).tobytes())
    return keys


def test_rotation_specs_classify_at_their_level():
    for level in (1, 2, 3, 4, 5):
        spec = rotation_spec(level)
        assert hierarchy_level(spec.matrix, k_max=6).level == level
    for controls, level in ((1, 3), (1, 4), (2, 4)):
        spec = controlled_rotation_spec(controls, level)
        assert hierarchy_level(spec.matrix, k_max=6).level == level


def test_t_expansion_is_single_level():
    rc = synth_recursive(matrix_spec(gates.T, "T"))
    rep = resource_report(rc)
    assert rc.level == 3
    assert (rep.depth, rep.ancilla_qubits, rep.measurements) == (1, 1, 1)
    assert rep.cgates_by_level == {2: 1}  # the S·X repair, applied directly
    assert rc.root.repairs[0].child is None


@pytest.mark.parametrize("level,counts", [(3, (1, 1, 1)), (4, (2, 2, 2)),
                                          (5, (3, 3, 3))])
def test_rotation_resources(level, counts):
    rc = synth_recursive(rotation_spec(level))
    rep = resource_report(rc)
    assert (rep.depth, rep.ancilla_qubits, rep.measurements) == counts


def test_level4_rotation_root_repair_is_t_like():
    rc = synth_recursive(rotation_spec(4))
    rep = rc.root.repairs[0]
    assert rep.child is not None and rep.pre_pauli_qubit == 0
    residue = rep.child.gate
    fit = np.trace(gates.T.conj().T @ residue) / 2
    assert abs(abs(fit) - 1.0) < 1e-10  # residue is T up to phase
    assert np.max(np.abs(residue - fit * gates.T)) < 1e-10


def test_controlled_phase_expansion_no_recursion():
    rc = synth_recursive(controlled_rotation_spec(1, 3))  # = CS
    assert rc.level == 3
    rep = resource_report(rc)
    assert rep.depth == 1 and rep.measurements == 2
    refs = (gates.kron(gates.X, gates.S) @ gates.CZ,
            gates.kron(gates.S, gates.X) @ gates.CZ)
    for repair, ref in zip(rc.root.repairs, refs):
        assert repair.child is None
        fit = np.trace(ref.conj().T @ repair.canonical) / 4
        assert np.max(np.abs(repair.canonical - fit * ref)) < 1e-10


@pytest.mark.parametrize("spec,label", [
    (rotation_spec(3), "V3"),
    (rotation_spec(4), "V4"),
    (rotation_spec(5), "V5"),
    (controlled_rotation_spec(1, 3), "CV3"),
    (controlled_rotation_spec(1, 4), "CV4"),
])
def test_flattened_all_branch_equivalence(spec, label):
    rc = synth_recursive(spec, flatten=True, tol=1e-9)
    assert rc.flattened is not None  # verification happens inside synthesis


def test_width3_level4_flattened():
    ccs = controlled_rotation_spec(2, 4)  # doubly-controlled S
    rc = synth_recursive(ccs, flatten=True, tol=1e-9)
    assert rc.level == 4
    assert rc.flattened.n_qubits == 6  # magic recycles the measured data qubits


def test_width2_level5_flattened():
    # the heavyweight case: 18 measurements, all 2^18 branches verified
    # inside synthesis, a stack of branches at a time
    rc = synth_recursive(controlled_rotation_spec(1, 5), flatten=True, tol=1e-9)
    assert rc.level == 5
    assert resource_report(rc).depth == 3


def test_width2_level5_tree_equivalence(rng):
    rc = synth_recursive(controlled_rotation_spec(1, 5), flatten=False)
    assert rc.level == 5
    for _ in range(3):
        psi = random_state(2, rng)
        want = rc.gate @ psi.amplitudes
        total = 0.0
        for bits, p, s in execute_tree(rc, psi):
            if s is None:
                continue
            total += p
            assert abs(np.vdot(want, s.amplitudes)) > 1 - 1e-9
        assert abs(total - 1.0) < 1e-9


def test_correction_level_descent():
    for spec in (rotation_spec(3), rotation_spec(4), rotation_spec(5),
                 controlled_rotation_spec(1, 4), controlled_rotation_spec(2, 4)):
        rc = synth_recursive(spec, flatten=False)
        k = rc.level
        residues = tree_walk_residues(rc)
        assert residues
        for depth, level in residues:
            assert level <= k - depth, (spec.label, depth, level)


def test_leaf_corrections_are_clifford_or_pauli():
    for spec in (rotation_spec(4), rotation_spec(5), controlled_rotation_spec(1, 4)):
        rc = synth_recursive(spec, flatten=False)

        def walk(node):
            for rep in node.repairs:
                if rep.child is None:
                    assert rep.klass in ("pauli", "clifford")
                else:
                    walk(rep.child)

        walk(rc.root)


def test_the_ladder_decides_each_repair_once(monkeypatch):
    """Every repair of the tree, a child's included, is one
    `classify_correction` call hinted with its node's level: CCV4's four
    nodes hold 24 repairs."""
    from telegate import recursive
    hints, classify = [], recursive.classify_correction

    def counted(m, k_hint, qubit, *args, **kwargs):
        hints.append(k_hint)
        return classify(m, k_hint, qubit, *args, **kwargs)

    monkeypatch.setattr(recursive, "classify_correction", counted)
    rc = synth_recursive(controlled_rotation_spec(2, 4), flatten=False)
    nodes = list(_nodes(rc.root))
    assert len(nodes) == 4 and len(hints) == 24
    assert sorted(hints) == sorted(node.level for node in nodes for _ in node.repairs)


def test_a_phase_error_the_ladder_tolerates_is_synthesized():
    """V4 with a 5e-10 rad phase error is level 4 to the hierarchy, and its
    child's pattern repair is Clifford within the ladder's tolerance: the
    recursion builds and verifies it rather than refusing it."""
    rc = synth_recursive(matrix_spec(np.diag([1, np.exp(1j * (np.pi / 8 + 5e-10))])))
    assert (rc.level, resource_report(rc).depth) == (4, 2)
    assert rc.flattened is not None


def test_tree_depth_is_level_minus_two():
    for spec in (rotation_spec(2), rotation_spec(3), rotation_spec(4),
                 rotation_spec(5), controlled_rotation_spec(1, 3),
                 controlled_rotation_spec(1, 4)):
        rc = synth_recursive(spec, flatten=False)
        assert resource_report(rc).depth == rc.level - 2


def test_closure_of_products():
    prod = controlled_rotation_spec(1, 4).matrix @ controlled_rotation_spec(1, 3).matrix
    level = hierarchy_level(prod, k_max=6).level
    assert level is not None and level <= 4


def test_flattened_and_tree_operator_sets_match(rng):
    for spec in (rotation_spec(4), controlled_rotation_spec(1, 4)):
        rc = synth_recursive(spec, flatten=True)
        dim = 2**rc.n

        def run_tree(psi, rc=rc):
            return execute_tree(rc, psi)

        def run_flat(psi, rc=rc):
            out = []
            for br in run_all_branches(rc.flattened, psi):
                state = None
                if br.state is not None:
                    state = extract_register_state(br, rc.out_map)
                out.append((br.bitstring, br.probability, state))
            return out

        assert branch_operator_set(run_tree, dim) == branch_operator_set(run_flat, dim)


def _hand_flatten(root):
    """Reference: the hand-written flattener synth_recursive used before one
    node emitter wrote both the tree and the flattened circuit, kept verbatim
    but for reading each node's magic state off its own circuit's inject."""
    n = root.n
    b = CircuitBuilder(2 * n, 0, ["input"] * n + ["inject"] * n)
    data = list(range(n))
    anc = list(range(n, 2 * n))

    def emit(node, is_root, cond_bits, cond_vals):
        cbits = b.alloc_cbits(n)
        magic = next(op for op in node.circuit.ops if isinstance(op, InjectOp)).amplitudes
        if is_root:
            emit_teleport(b, TeleportPlan(("X",) * n), data, anc, cbits, ancilla=magic)
        else:
            # Magic recycles the measured data qubits; the coupling fires
            # only when every ancestor condition bit is set.
            b.inject(magic, data, role="ancilla-prep")
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


@pytest.mark.parametrize("controls,level", [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4),
                                            (2, 3), (2, 4)])
def test_flattened_circuit_matches_the_hand_written_flattener(controls, level):
    spec = rotation_spec(level) if controls == 0 else controlled_rotation_spec(controls, level)
    rc = synth_recursive(spec)
    assert _hand_flatten(rc.root) == rc.flattened


def _segments(rc):
    """(node, its cbits, its ancestor condition, its ops' span) for every
    node, depth first.  A segment is the gadget (inject, n couplings, n
    measurements), then per repair a direct gate, or the X half and the
    child's segment; each node takes the next n cbits."""
    n = rc.n
    found = []

    def walk(node, cond, lo):
        index = len(found)
        found.append(None)
        cbits = tuple(range(index * n, (index + 1) * n))
        hi = lo + 1 + 2 * n
        for rep in node.repairs:
            if rep.child is None:
                hi += 1
                continue
            hi += rep.pre_pauli_qubit is not None
            hi = walk(rep.child, (cond[0] + tuple(cbits[c] for c in rep.cond_cbits_local),
                                  cond[1] + rep.cond_values), hi)
        found[index] = (node, cbits, cond, range(lo, hi))
        return hi

    walk(rc.root, ((), ()), 0)
    return found


@pytest.mark.parametrize("spec", [rotation_spec(5), controlled_rotation_spec(1, 4),
                                  controlled_rotation_spec(2, 4)], ids=lambda s: s.label)
def test_child_segments_leave_the_live_register_alone_when_their_condition_fails(spec):
    """In each child's segment every op but the injects and measurements
    (its own and its descendants') is gated on the child's ancestor bits,
    and those injects and measurements touch only the recycled data qubits
    [0..n-1]: with the condition false the segment leaves the live register
    [n..2n-1] untouched."""
    rc = synth_recursive(spec)
    n, ops = rc.n, rc.flattened.ops
    segments = _segments(rc)
    assert len(segments) > 1 and segments[0][3] == range(len(ops))
    for node, cbits, (bits, vals), span in segments[1:]:
        assert bits and isinstance(ops[span[0]], InjectOp)
        own_measures = ops[span[0] + 1 + n:span[0] + 1 + 2 * n]
        assert [(op.qubit, op.cbit) for op in own_measures] == list(zip(range(n), cbits))
        for op in ops[span[0]:span[-1] + 1]:
            if isinstance(op, InjectOp):
                assert set(op.targets) == set(range(n))
            elif isinstance(op, MeasureOp):
                assert op.qubit < n
            else:
                assert isinstance(op, GateOp) and op.cond_cbits
                assert (op.cond_cbits[:len(bits)], op.cond_values[:len(vals)]) == (bits, vals)


def test_emit_inject_couples_by_cnot_or_by_gated_toffoli():
    magic = np.full(4, 0.5, dtype=complex)
    b = CircuitBuilder(4, 2, ["input"] * 2 + ["inject"] * 2)
    emit_inject(b, magic, [0, 1], [2, 3], [0, 1])
    assert [type(op) for op in b.ops] == [InjectOp, GateOp, GateOp, MeasureOp, MeasureOp]
    assert not b.ops[1].cond_cbits and not b.ops[2].cond_cbits
    assert b.ops[0].targets == (2, 3) and b.ops[0].role == "ancilla-prep"
    assert [(op.name, op.targets, op.role) for op in b.ops[1:3]] == [
        ("CNOT", (0, 2), "E"), ("CNOT", (1, 3), "E")]
    assert [(op.qubit, op.cbit) for op in b.ops[3:]] == [(2, 0), (3, 1)]
    b.build()

    b = CircuitBuilder(1, 1, ["zero"])
    b.measure(0, 0)
    kappa = b.alloc_qubits(1, "zero")[0]
    live, spare = b.alloc_qubits(2, "zero"), b.alloc_qubits(2, "inject")
    emit_inject(b, magic, live, spare, b.alloc_cbits(2), controls=[kappa],
                cond=((0,), (1,)))
    couplings = b.ops[2:4]
    assert all(isinstance(op, GateOp) and op.cond_cbits and op.name == "TOFFOLI"
               for op in couplings)
    assert [(op.cond_cbits, op.cond_values, op.targets) for op in couplings] == [
        ((0,), (1,), (kappa, live[0], spare[0])), ((0,), (1,), (kappa, live[1], spare[1]))]
    assert [(op.qubit, op.cbit) for op in b.ops[4:]] == [(spare[0], 1), (spare[1], 2)]
    b.build()


def test_level_two_gate_is_direct():
    rc = synth_recursive(rotation_spec(2))  # the S gate
    assert rc.root is None and rc.level == 2
    rep = resource_report(rc)
    assert (rep.depth, rep.ancilla_qubits, rep.measurements) == (0, 0, 0)
    (bits, p, s) = execute_tree(rc, basis_state(1, 1))[0]
    assert abs(s.amplitudes[1] - 1j) < 1e-12


@pytest.mark.parametrize("tol", [5, 1.0, float("nan"), -1])
@pytest.mark.parametrize("level, flatten", [(2, True), (4, False)])
def test_synthesis_refuses_a_tolerance_outside_the_unit_interval(level, flatten, tol):
    """Refused before any circuit is built: at the parent neither the one-op
    level-2 gate nor an unflattened tree reached a check of the margin."""
    with pytest.raises(ValidationError, match=r"^tolerance .* is not in \(0, 1\)$"):
        synth_recursive(rotation_spec(level), flatten=flatten, tol=tol)


def test_rejects_non_diagonal():
    with pytest.raises(ValidationError):
        synth_recursive(matrix_spec(gates.H, "H"))


def test_tree_serialization_nests_children():
    import json
    rc = synth_recursive(rotation_spec(4), flatten=False)
    doc = json.loads(tree_to_json(rc))
    assert doc["mode"] == "teleport" and doc["level"] == 4
    assert len(doc["children"]) == 1
    child = doc["children"][0]
    assert child["on"] == {"cbits": [0], "equals": [1]}
    assert child["mode"] == "inject" and child["children"] == []


# --- recursive preparation ---------------------------------------------------

@pytest.mark.parametrize("spec,label", [
    (matrix_spec(gates.T, "T"), "T"),
    (rotation_spec(4), "V4"),
    (controlled_rotation_spec(1, 3), "CV3"),
])
def test_recursive_preparation_reaches_target(spec, label):
    prep = recursive_ancilla_prep(spec)
    ok, worst = verify_preparation(prep, tol=1e-9)
    assert ok, (label, worst)


def test_t_preparation_is_base_level():
    prep = recursive_ancilla_prep(matrix_spec(gates.T, "T"))
    (step,) = prep.steps
    # the stabilizer payload is e^{-i pi/4} S: Clifford, performed directly
    assert step.realization.level == 2
    assert step.realization.mode == "direct"
    sx = gates.S @ gates.X
    assert np.max(np.abs(step.m - np.exp(-1j * np.pi / 4) * sx)) < 1e-12


def test_level4_preparation_expands_controlled_t():
    prep = recursive_ancilla_prep(rotation_spec(4))
    (step,) = prep.steps
    assert step.realization.level == 3
    assert step.realization.mode == "injected"
    fit = np.trace(gates.T.conj().T @ step.u_x) / 2
    assert np.max(np.abs(step.u_x - fit * gates.T)) < 1e-10
    # its pattern repairs are all base-level (direct controlled diagonals)
    assert step.realization.children == ()
    assert step.realization.direct_patterns


def test_cs_preparation_two_base_level_steps():
    prep = recursive_ancilla_prep(controlled_rotation_spec(1, 3))
    assert len(prep.steps) == 2
    for step in prep.steps:
        assert step.realization.level <= 2
        assert step.realization.mode == "direct"


def test_preparation_circuit_round_trips():
    from telegate.circuit import InjectOp, deserialize, serialize
    prep = recursive_ancilla_prep(controlled_rotation_spec(1, 4))
    injects = [op for op in prep.circuit.ops if isinstance(op, InjectOp)]
    assert injects
    assert all(op.role == "ancilla-prep" and op.label is None for op in injects)
    assert deserialize(serialize(prep.circuit)) == prep.circuit


def test_preparation_branch_probabilities_sum(rng):
    prep = recursive_ancilla_prep(rotation_spec(4))
    total = sum(b.probability for b in run_all_branches(prep.circuit, None))
    assert abs(total - 1.0) < 1e-10


def test_recursion_too_large_to_enumerate_is_refused():
    """CCV at level 5 flattens to 75 measurements: refused with the count
    instead of starting a 2^75-branch walk."""
    with pytest.raises(WidthOverflow, match="75 measurements"):
        synth_recursive(controlled_rotation_spec(2, 5))


@pytest.mark.parametrize("controls,level", [(12, 13), (19, 20)])
def test_a_rotation_past_the_qubit_limit_is_refused_before_its_matrix_is_built(
        monkeypatch, controls, level):
    monkeypatch.setattr(gates, "controlled", lambda *a, **k: pytest.fail("matrix built"))
    with pytest.raises(WidthOverflow, match=f"^{controls + 1} qubits exceeds the 12-qubit limit$"):
        controlled_rotation_spec(controls, level)


@pytest.mark.parametrize("spec", [
    pytest.param(controlled_rotation_spec(3, 5), id="CCCV5"),
    pytest.param(matrix_spec(np.ones((16, 16))), id="non-unitary"),
    pytest.param(matrix_spec(np.eye(512)), id="9-qubit"),
])
def test_an_over_wide_spec_is_refused_before_the_unitarity_product(monkeypatch, spec):
    from telegate import recursive
    monkeypatch.setattr(recursive, "checked_unitary", lambda *a: pytest.fail("matrix checked"))
    with pytest.raises(WidthOverflow, match="^recursive synthesis is limited to 3 qubits$"):
        synth_recursive(spec)
    with pytest.raises(WidthOverflow, match="^preparation is limited to 3 qubits$"):
        recursive_ancilla_prep(spec)


@pytest.mark.parametrize("matrix", [np.array(1.0), np.ones(16), np.ones((4, 4, 4)),
                                    np.ones((16, 8))], ids=["0-d", "1-d", "3-d", "16x8"])
def test_a_matrix_that_is_not_square_is_refused_as_not_unitary(matrix):
    for build in (synth_recursive, recursive_ancilla_prep):
        with pytest.raises(ValidationError, match="^input matrix is not unitary within tolerance$"):
            build(matrix_spec(matrix))


def test_preparation_refuses_a_gate_wider_than_its_limit():
    with pytest.raises(WidthOverflow, match="^preparation is limited to 3 qubits$"):
        recursive_ancilla_prep(matrix_spec(np.diag(np.exp(0.1j * np.arange(16)))))


def test_ccv5_preparation_fits_its_register_and_is_refused_at_verification():
    """Every injection reuses one spare register, so CCV5's preparation
    builds on 2n+1 = 7 qubits; its 75 measurements are refused with the
    count when it is verified."""
    prep = recursive_ancilla_prep(controlled_rotation_spec(2, 5))
    assert prep.circuit.n_qubits == 7
    with pytest.raises(WidthOverflow, match="75 measurements"):
        verify_preparation(prep)


@pytest.mark.parametrize("spec,width", [
    (matrix_spec(gates.T, "T"), 2), (rotation_spec(5), 3),
    (controlled_rotation_spec(1, 4), 5), (controlled_rotation_spec(2, 3), 4),
    (controlled_rotation_spec(2, 4), 7), (controlled_rotation_spec(1, 5), 5),
])
def test_preparation_recycles_one_control_and_one_spare_register(spec, width):
    """One control qubit, re-injected as |0> at each step, and one spare
    register, allocated at the first injection: at most 2n+1 qubits."""
    prep = recursive_ancilla_prep(spec)
    c = prep.circuit
    assert c.n_qubits == width <= 2 * spec.n + 1
    kappa = spec.n
    assert c.inputs[:kappa + 1] == ("zero",) * kappa + ("inject",)
    assert all(tag == "inject" for tag in c.inputs[kappa + 1:])
    resets = [op for op in c.ops if isinstance(op, InjectOp) and op.targets == (kappa,)]
    assert len(resets) == len(prep.steps)


def test_ccv4_preparation_verifies():
    ok, worst = verify_preparation(recursive_ancilla_prep(controlled_rotation_spec(2, 4)))
    assert ok and worst >= 1 - 1e-10, worst


def test_preparation_with_a_dropped_repair_fails_at_a_named_branch():
    prep = recursive_ancilla_prep(controlled_rotation_spec(1, 4))
    ops = list(prep.circuit.ops)
    first = next(i for i, op in enumerate(ops) if isinstance(op, GateOp) and op.cond_cbits)
    del ops[first]
    broken = replace(prep.circuit, ops=tuple(ops))
    report = verify_gate_equivalence(broken, prep.target.amplitudes[:, None], (),
                                     prep.register)
    assert not report.passed and report.failing_branch is not None
    assert len(report.failing_branch) == 6
    assert not verify_preparation(replace(prep, circuit=broken))[0]


def test_cv5_preparation_verifies_streaming_its_branches():
    """2^18 branches on 5 qubits: the fold holds one capped stack at a
    time, not a list of every branch (hundreds of MB)."""
    import tracemalloc
    prep = recursive_ancilla_prep(controlled_rotation_spec(1, 5))
    tracemalloc.start()
    try:
        ok, worst = verify_preparation(prep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and worst >= 1 - 1e-10, worst
    assert peak < 24_000_000, peak


def _oracle_execute_tree(rc, input_state):
    """Reference: the tree interpreter that re-ran a node's circuit for every
    parent branch that triggered it, kept verbatim but for applying the X
    half with the gate kernel."""
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
                        s = StateVector(s.n, apply_to_columns(
                            s.amplitudes.reshape(-1, 1), gates.X, (rep.pre_pauli_qubit,), s.n))
                    for cbits2, cp, cs in exec_node(rep.child, s, False):
                        nxt.append((bits + cbits2, p * cp, cs))
                cur = nxt
            results.extend(cur)
        return results

    return [("".join(map(str, bits)), p, s)
            for bits, p, s in exec_node(rc.root, input_state, True)]


TREES = [pytest.param(spec, flatten, id=spec.label) for spec, flatten in (
    (rotation_spec(4), True), (rotation_spec(5), True), (controlled_rotation_spec(1, 4), True),
    (controlled_rotation_spec(2, 3), True), (controlled_rotation_spec(2, 4), True),
    (controlled_rotation_spec(1, 5), False))]


def _nodes(node):
    yield node
    for rep in node.repairs:
        if rep.child is not None:
            yield from _nodes(rep.child)


@pytest.mark.parametrize("spec,flatten", TREES)
def test_tree_execution_matches_the_per_branch_interpreter(spec, flatten, rng):
    rc = synth_recursive(spec, flatten=flatten)
    inputs = [random_state(rc.n, rng) for _ in range(3)] + [basis_state(rc.n, 2**rc.n - 1)]
    for psi in inputs:
        got, want = execute_tree(rc, psi), _oracle_execute_tree(rc, psi)
        assert [bits for bits, _, _ in got] == [bits for bits, _, _ in want]
        for (_, p, s), (_, wp, ws) in zip(got, want):
            assert abs(p - wp) < 1e-12
            assert (s is None) == (ws is None)
            if s is not None:
                assert np.max(np.abs(s.amplitudes - ws.amplitudes)) < 1e-12


def test_tree_execution_walks_each_node_once(monkeypatch, rng):
    rc = synth_recursive(controlled_rotation_spec(2, 4), flatten=False)
    walks = []
    enumerate_ = simulator._enumerate

    def counted(*args, **kwargs):
        walks.append(args[0])
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(simulator, "_enumerate", counted)
    paths = execute_tree(rc, random_state(rc.n, rng))
    assert len(paths) == 729
    assert len(walks) == len(list(_nodes(rc.root))) == 4
    assert {id(c) for c in walks} == {id(node.circuit) for node in _nodes(rc.root)}


def test_tree_execution_refuses_an_invalid_node_circuit(rng):
    """Each node's walk is guarded: a child whose circuit gates a measured
    qubit is refused, not run."""
    rc = synth_recursive(controlled_rotation_spec(2, 4), flatten=False)
    i, rep = next((i, rep) for i, rep in enumerate(rc.root.repairs) if rep.child is not None)
    child = rep.child
    measured = min(child.circuit.measured_qubits())
    bad = replace(child.circuit, ops=child.circuit.ops + (GateOp((measured,), name="H"),))
    repairs = list(rc.root.repairs)
    repairs[i] = replace(rep, child=replace(child, circuit=bad))
    broken = replace(rc, root=replace(rc.root, repairs=tuple(repairs)))
    with pytest.raises(InvalidCircuitError, match="measured qubit"):
        execute_tree(broken, random_state(rc.n, rng))


@pytest.mark.parametrize("level", [2, 4])
def test_tree_execution_refuses_an_input_of_the_wrong_width(level, rng):
    """At the parent numpy's matmul raised on both the level <= 2 path and the tree."""
    rc = synth_recursive(rotation_spec(level), flatten=False)
    assert (rc.root is None) == (level == 2)
    with pytest.raises(DimensionMismatch, match="^input must cover the 1 logical qubits$"):
        execute_tree(rc, random_state(2, rng))


@pytest.mark.parametrize("spec,flatten", TREES)
def test_every_node_branch_has_probability_two_to_the_minus_n(spec, flatten):
    """K_b†K_b = 2^-n·I for every branch of every node: each branch has
    probability 2^-n on every input, so no path of `execute_tree` dies."""
    rc = synth_recursive(spec, flatten=flatten)
    for node in _nodes(rc.root):
        n, c = node.n, node.circuit
        out_reg = range(n, 2 * n) if node.mode == "teleport" else range(n)
        for stack, blocks in branch_operators(c, c.symbolic_qubits, out_reg):
            assert stack.live.all()
            for k_b in blocks:
                assert np.max(np.abs(k_b.conj().T @ k_b - np.eye(2**n) / 2**n)) < 1e-12


def test_x_and_pattern_repairs_are_the_dense_products_byte_for_byte(monkeypatch):
    """g·X_i·g† is an image of `pauli.conjugated_generators` and every
    product with an X string a column gather; each equals the dense product,
    a zero's sign included, on every node gate of the CV5, CCV4 and CCV5
    trees and every payload of CCV4's preparation."""
    from telegate import recursive
    from telegate.recursive import _pattern_repairs, _x_repairs
    node_gates = [node.gate for spec in (controlled_rotation_spec(1, 5),
                                         controlled_rotation_spec(2, 4),
                                         controlled_rotation_spec(2, 5))
                  for node in _nodes(synth_recursive(spec, flatten=False).root)]
    payloads, realize = [], recursive._realize_controlled

    def recorded(buf, kappa, register, spare, payload, *cond):
        payloads.append(payload)
        return realize(buf, kappa, register, spare, payload, *cond)

    monkeypatch.setattr(recursive, "_realize_controlled", recorded)
    recursive_ancilla_prep(controlled_rotation_spec(2, 4))
    assert (len(node_gates), len(payloads)) == (38, 24)

    def raw(pairs):
        return [(key if isinstance(key, tuple) else key.tobytes(), m.tobytes())
                for key, m in pairs]

    for g in node_gates + payloads:
        assert raw(_x_repairs(g)) == raw(dense_x_repairs(g))
        for keep_phase in (False, True):
            assert raw(_pattern_repairs(g, keep_phase)) == raw(dense_pattern_repairs(g, keep_phase))


def test_tree_execution_refuses_more_paths_than_the_limit(monkeypatch, rng):
    """The tables count CCV4's 729 paths before any state is touched: over
    2^9 they are refused with their count, under 2^10 they run."""
    from telegate import recursive
    rc = synth_recursive(controlled_rotation_spec(2, 4), flatten=False)
    psi = random_state(rc.n, rng)
    mass = recursive._mass
    monkeypatch.setattr(recursive, "_mass", lambda rows: pytest.fail("a state was touched"))
    monkeypatch.setattr(recursive, "MAX_MEASUREMENTS", 9)
    with pytest.raises(WidthOverflow, match=r"^729 tree paths exceed the 2\^9-path limit$"):
        execute_tree(rc, psi)
    monkeypatch.setattr(recursive, "_mass", mass)
    monkeypatch.setattr(recursive, "MAX_MEASUREMENTS", 10)
    assert len(execute_tree(rc, psi)) == 729


def _with_a_dead_branch(node, at_end):
    """The node with one more qubit, at |0>, measured into one more cbit
    first or last: its outcome 1 is a structurally dead branch, with a
    record of one bit or a full one."""
    c = node.circuit
    measure = (MeasureOp(c.n_qubits, c.n_cbits),)
    ops = c.ops + measure if at_end else measure + c.ops
    return replace(node, circuit=replace(c, n_qubits=c.n_qubits + 1, n_cbits=c.n_cbits + 1,
                                         inputs=c.inputs + ("zero",), ops=ops))


@pytest.mark.parametrize("where", ["root", "first child"])
@pytest.mark.parametrize("at_end", [False, True], ids=["short", "full"])
def test_a_dead_branch_ends_its_path_as_the_per_branch_interpreter_ends_it(where, at_end,
                                                                          rng):
    """A dead K_b yields one path with no state and no descent; a path that
    ended in the first child passes the later ones by, as the oracle's does."""
    rc = synth_recursive(controlled_rotation_spec(2, 4), flatten=False)
    if where == "root":
        rc = replace(rc, root=_with_a_dead_branch(rc.root, at_end))
    else:
        i, rep = next((i, rep) for i, rep in enumerate(rc.root.repairs) if rep.child is not None)
        repairs = list(rc.root.repairs)
        repairs[i] = replace(rep, child=_with_a_dead_branch(rep.child, at_end))
        rc = replace(rc, root=replace(rc.root, repairs=tuple(repairs)))
    psi = random_state(rc.n, rng)
    got, want = execute_tree(rc, psi), _oracle_execute_tree(rc, psi)
    assert [bits for bits, _, _ in got] == [bits for bits, _, _ in want]
    dead = [(bits, p) for bits, p, s in got if s is None]
    if not at_end:  # a one-bit record, and after root branch 111 the later children passed by
        assert ("1", 0.0) in dead if where == "root" else ("1111", 0.0) in dead
    assert len(dead) == {("root", False): 1, ("root", True): 8, ("first child", False): 4,
                         ("first child", True): 32}[where, at_end]
    for (_, p, s), (_, wp, ws) in zip(got, want):
        assert abs(p - wp) < 1e-12
        assert (s is None) == (ws is None)
        if s is not None:
            assert np.max(np.abs(s.amplitudes - ws.amplitudes)) < 1e-12


def test_the_ccv5_tree_runs_its_195112_paths(rng):
    rc = synth_recursive(controlled_rotation_spec(2, 5), flatten=False)
    psi = random_state(rc.n, rng)
    paths = execute_tree(rc, psi)
    assert len(paths) == 195_112
    assert abs(sum(p for _, p, _ in paths) - 1.0) < 1e-9
    states = np.array([s.amplitudes for _, _, s in paths])
    assert np.min(np.abs(states.conj() @ (rc.gate @ psi.amplitudes))) > 1 - 1e-9
