"""Stabilizer derivation and the measurement-based preparation routes."""

import itertools

import numpy as np
import pytest

from telegate import gates
from telegate.ancilla import (build_preparation, derive_stabilizers,
                              is_product_state, make_stabilizer_spec,
                              measure_operator, product_factor_stabilizers,
                              run_script, script_circuit, script_to_json,
                              shortcut_preparation, verify_script)
from telegate.circuit import CircuitBuilder
from telegate.errors import InternalConsistencyError, ValidationError
from telegate.limits import ZERO
from telegate.simulator import (Branch, StateVector, random_state, run_all_branches,
                                state_from, zero_state)

SQ2 = 1 / np.sqrt(2)
I2 = np.eye(2)


def test_t_gate_stabilizer_forms():
    spec = derive_stabilizers(gates.T, ("H",))
    m, q = spec.pairs[0].m, spec.pairs[0].q
    sx = gates.S @ gates.X
    assert np.max(np.abs(m - np.exp(-1j * np.pi / 4) * sx)) < 1e-12
    assert np.max(np.abs(q - gates.Z)) < 1e-12
    assert spec.pairs[0].m_level == 2 and spec.pairs[0].q_level == 1
    assert spec.warnings == ()


def test_controlled_phase_stabilizer_forms():
    spec = derive_stabilizers(gates.CS, ("H", "H"))
    refs = (gates.kron(gates.X, gates.S) @ gates.CZ,
            gates.kron(gates.S, gates.X) @ gates.CZ)
    for pair, ref, idx in zip(spec.pairs, refs, (0, 1)):
        assert np.max(np.abs(pair.m - ref)) < 1e-12
        z_i = gates.embed(gates.Z, (idx,), 2)
        assert np.max(np.abs(pair.q - z_i)) < 1e-12
        assert pair.m_level == 2


def test_toffoli_stabilizer_forms():
    spec = derive_stabilizers(gates.TOFFOLI, ("H", "H", "I"))
    refs = (gates.embed(gates.X, (0,), 3) @ gates.embed(gates.CNOT, (1, 2), 3),
            gates.embed(gates.X, (1,), 3) @ gates.embed(gates.CNOT, (0, 2), 3),
            gates.embed(gates.Z, (2,), 3) @ gates.embed(gates.CZ, (0, 1), 3))
    q_refs = (gates.embed(gates.Z, (0,), 3), gates.embed(gates.Z, (1,), 3),
              gates.embed(gates.X, (2,), 3))
    for pair, m_ref, q_ref in zip(spec.pairs, refs, q_refs):
        assert np.max(np.abs(pair.m - m_ref)) < 1e-12
        assert np.max(np.abs(pair.q - q_ref)) < 1e-12


def test_spec_conditions_checked():
    target = state_from([1.0, 0.0])
    # X does not stabilize |0>
    with pytest.raises(InternalConsistencyError):
        make_stabilizer_spec(target, [gates.X], [gates.Z])
    # Z stabilizes |0> and anticommutes with X: fine
    spec = make_stabilizer_spec(target, [gates.Z], [gates.X])
    assert spec.pairs[0].m_level == 1
    # Q must anticommute with M
    with pytest.raises(InternalConsistencyError):
        make_stabilizer_spec(target, [gates.Z], [gates.Z])


def _spec_of_two_qubit_pairs(ms, qs):
    return make_stabilizer_spec(zero_state(2), [gates.kron(*m) for m in ms],
                                [gates.kron(*q) for q in qs])


def _three_qubit_spec_whose_stabilizers_do_not_commute():
    """M_0 = Z_1 or Z_2 as qubit 0 reads 0 or 1, M_1 = X_0 and Q_1 = Z_0:
    each pair holds and [M_0, Q_1] = 0, but [M_0, M_1] != 0."""
    zero, one = np.diag([1, 0]), np.diag([0, 1])
    ms = [gates.kron(zero, gates.Z, I2) + gates.kron(one, I2, gates.Z), gates.kron(gates.X, I2, I2)]
    qs = [gates.kron(zero, gates.X, I2) + gates.kron(one, I2, gates.X), gates.kron(gates.Z, I2, I2)]
    return make_stabilizer_spec(state_from(np.kron([SQ2, SQ2], [1, 0, 0, 0])), ms, qs)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: make_stabilizer_spec(zero_state(1), [gates.CZ], [gates.X]),
                 InternalConsistencyError, "pair 0: operator width mismatch", id="width"),
    pytest.param(lambda: make_stabilizer_spec(zero_state(1), [gates.S], [gates.X]),
                 InternalConsistencyError, "pair 0: M is not an involution", id="involution"),
    pytest.param(lambda: _spec_of_two_qubit_pairs([(gates.Z, I2), (I2, gates.Z)],
                                                  [(gates.X, I2), (gates.X, gates.X)]),
                 InternalConsistencyError, r"pairs 0,1: \[M_i, Q_j\] != 0", id="M-Q"),
    pytest.param(_three_qubit_spec_whose_stabilizers_do_not_commute,
                 InternalConsistencyError, r"pairs 0,1: \[M_i, M_j\] != 0", id="M-M"),
    pytest.param(lambda: _spec_of_two_qubit_pairs([(gates.Z, I2)], [(gates.X, I2)]),
                 InternalConsistencyError, "width-2 target needs exactly 2 pairs", id="count"),
    pytest.param(lambda: derive_stabilizers(gates.T, ("H", "H")),
                 ValidationError, "gate width does not match the A layer", id="A-layer"),
    pytest.param(lambda: build_preparation(derive_stabilizers(gates.T, ("H",)), zero_state(2)),
                 ValidationError, "initial state width mismatch", id="initial"),
    pytest.param(lambda: shortcut_preparation(derive_stabilizers(gates.T, ("H",)), 5),
                 ValidationError, "no stabilizer pair 5", id="shortcut"),
    pytest.param(lambda: measure_operator(zero_state(2), gates.Z),
                 ValidationError, "operator width does not match the state", id="measured width"),
])
def test_each_refusal_names_its_fault(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_measure_operator_plus_state():
    plus = state_from([SQ2, SQ2])
    b0, b1 = measure_operator(plus, gates.Z)
    assert abs(b0.probability - 0.5) < 1e-12
    assert abs(b1.probability - 0.5) < 1e-12
    assert np.max(np.abs(b0.state.amplitudes - [1, 0])) < 1e-12
    assert np.max(np.abs(b1.state.amplitudes - [0, 1])) < 1e-12


def test_measure_operator_t_stabilizer_on_zero():
    m = np.exp(-1j * np.pi / 4) * gates.S @ gates.X
    b0, b1 = measure_operator(zero_state(1), m)
    want = np.array([1.0, np.exp(1j * np.pi / 4)]) * SQ2
    assert np.max(np.abs(b0.state.amplitudes - want)) < 1e-12
    assert abs(b0.probability - 0.5) < 1e-12


def test_measure_operator_on_eigenstate():
    m = np.exp(-1j * np.pi / 4) * gates.S @ gates.X
    plus_eig = state_from([1.0, np.exp(1j * np.pi / 4)])
    b0, b1 = measure_operator(plus_eig, m)
    assert abs(b0.probability - 1.0) < 1e-12
    assert b1.probability == 0.0 and b1.state is None


def test_measure_operator_rejects_non_involution():
    with pytest.raises(ValidationError):
        measure_operator(zero_state(1), gates.T)


def test_measure_operator_matches_control_qubit_circuit(rng):
    # oracle: one control qubit, controlled-M, H, measure
    for m in (gates.Z, gates.X, np.exp(-1j * np.pi / 4) * gates.S @ gates.X):
        psi = random_state(1, rng)
        b = CircuitBuilder(2, 1, ["zero", "input"])
        b.gate("H", [0])
        b.gate(gates.controlled(m), [0, 1])
        b.gate("H", [0])
        b.measure(0, 0)
        circuit_branches = run_all_branches(b.build(), psi)
        op_branches = measure_operator(psi, m)
        for cb, ob in zip(circuit_branches, op_branches):
            assert abs(cb.probability - ob.probability) < 1e-10
            if ob.state is None:
                continue
            sub = cb.state.amplitudes.reshape(2, 2)[cb.measured_values[0], :]
            sub = sub / np.linalg.norm(sub)
            fid = abs(np.vdot(sub, ob.state.amplitudes))
            assert fid > 1 - 1e-10


@pytest.mark.parametrize("name,a_ops,n_branches", [
    ("T", ("H",), 2), ("CS", ("H", "H"), 4), ("TOFFOLI", ("H", "H", "I"), 8),
])
def test_full_preparation_reaches_target(name, a_ops, n_branches):
    spec = derive_stabilizers(gates.matrix_of(name), a_ops)
    script = build_preparation(spec)
    branches = run_script(script)
    assert len(branches) == n_branches
    live = [b for b in branches if b.state is not None]
    assert live
    ok, worst = verify_script(script)
    assert ok and worst >= 1 - 1e-10
    # every final state is a +1 eigenstate of every stabilizer
    for b in live:
        for pair in spec.pairs:
            expect = np.vdot(b.state.amplitudes, pair.m @ b.state.amplitudes)
            assert abs(expect - 1.0) < 1e-10


def test_preparation_from_random_initial(rng):
    spec = derive_stabilizers(gates.CS, ("H", "H"))
    script = build_preparation(spec, initial=random_state(2, rng))
    ok, worst = verify_script(script)
    assert ok, worst


def test_measure_then_correct_lands_in_plus_eigenspace(rng):
    # measuring any library involution and applying its anticommuting
    # partner on -1 lands in the +1 eigenspace, equal to (I+M)Q^a psi
    pairs = [(gates.Z, gates.X), (gates.X, gates.Z), (gates.Y, gates.X),
             (gates.kron(gates.X, gates.X), gates.embed(gates.Z, (0,), 2))]
    for m, q in pairs:
        n = int(round(np.log2(m.shape[0])))
        psi = random_state(n, rng)
        plus, minus = measure_operator(psi, m)
        eye = np.eye(2**n)
        for branch, a in ((plus, 0), (minus, 1)):
            if branch.state is None:
                continue
            vec = branch.state.amplitudes if a == 0 else q @ branch.state.amplitudes
            expect = np.vdot(vec, m @ vec)
            assert abs(expect - 1.0) < 1e-10
            want = (eye + m) @ (np.linalg.matrix_power(q, a) @ psi.amplitudes)
            want = want / np.linalg.norm(want)
            assert abs(abs(np.vdot(want, vec)) - 1.0) < 1e-10


@pytest.mark.parametrize("name,a_ops,index,factors", [
    ("CS", ("H", "H"), 0, ["+Z", "+X"]),
    ("CS", ("H", "H"), 1, ["+X", "+Z"]),
    ("TOFFOLI", ("H", "H", "I"), 0, ["+Z", "+X", "+Z"]),
    ("TOFFOLI", ("H", "H", "I"), 1, ["+X", "+Z", "+Z"]),
    ("TOFFOLI", ("H", "H", "I"), 2, ["+X", "+X", "+X"]),
])
def test_shortcut_intermediates_are_products(name, a_ops, index, factors):
    spec = derive_stabilizers(gates.matrix_of(name), a_ops)
    script = shortcut_preparation(spec, index)
    assert script.product_intermediate
    assert is_product_state(script.initial_state)
    assert product_factor_stabilizers(script.initial_state) == factors
    ok, worst = verify_script(script)
    assert ok and worst >= 1 - 1e-10
    assert len(script.steps) == 1


def test_shortcut_t_gate():
    spec = derive_stabilizers(gates.T, ("H",))
    script = shortcut_preparation(spec, 0)
    ok, _ = verify_script(script)
    assert ok


def test_removing_one_pair_leaves_two_dimensions():
    for name, a_ops in (("CS", ("H", "H")), ("TOFFOLI", ("H", "H", "I"))):
        spec = derive_stabilizers(gates.matrix_of(name), a_ops)
        n = spec.target.n
        dim = 2**n
        for skip in range(n):
            proj = np.eye(dim, dtype=complex)
            for j, pair in enumerate(spec.pairs):
                if j != skip:
                    proj = proj @ (np.eye(dim) + pair.m) / 2
            rank = int(round(np.real(np.trace(proj))))
            assert rank == 2, (name, skip)


def test_non_product_intermediate_warns():
    # Bell state stabilized by XX and ZZ; Q for the XX stabilizer is Z_0,
    # giving the non-product intermediate (|00>+|11>+|10>+|01> - ...)/..
    bell = state_from([SQ2, 0, 0, SQ2])
    ms = [gates.kron(gates.X, gates.X), gates.kron(gates.Z, gates.Z)]
    qs = [gates.embed(gates.Z, (0,), 2), gates.embed(gates.X, (0,), 2)]
    spec = make_stabilizer_spec(bell, ms, qs)
    script = shortcut_preparation(spec, 0)
    assert script.product_intermediate  # (I+Z0)|bell> = |00> is a product
    script2 = shortcut_preparation(spec, 1)
    # (I+X0)|bell> = (|00>+|11>+|10>+|01>)/2 = |+>|+>: also product
    assert script2.product_intermediate


def test_is_product_state_detects_entanglement():
    bell = state_from([SQ2, 0, 0, SQ2])
    assert not is_product_state(bell)
    assert is_product_state(state_from([0.5, 0.5, 0.5, 0.5]))


EIGENSTATES = {"+Z": [1, 0], "-Z": [0, 1], "+X": [SQ2, SQ2], "-X": [SQ2, -SQ2],
               "+Y": [SQ2, 1j * SQ2], "-Y": [SQ2, -1j * SQ2]}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_factor_letters_of_every_eigenstate_product(n, rng):
    for letters in itertools.product(EIGENSTATES, repeat=n):
        factors = [np.exp(2j * np.pi * rng.random()) * np.array(EIGENSTATES[p])
                   for p in letters]
        s = state_from(gates.kron(*(f[:, None] for f in factors)))
        assert product_factor_stabilizers(s) == list(letters)


@pytest.mark.parametrize("angle", [1e-5, 1e-8])
def test_a_factor_near_an_eigenstate_has_no_letter(angle):
    near = [np.cos(angle), np.sin(angle)]
    assert product_factor_stabilizers(state_from(near)) == [None]
    s = state_from(np.kron(EIGENSTATES["+X"], near))
    assert product_factor_stabilizers(s) == ["+X", None]


def test_an_entangled_qubit_has_no_letter():
    assert product_factor_stabilizers(state_from([SQ2, 0, 0, SQ2])) == [None, None]
    ghz_and_zero = np.kron([SQ2, 0, 0, 0, 0, 0, 0, SQ2], [1, 0])
    assert product_factor_stabilizers(state_from(ghz_and_zero)) == [None] * 3 + ["+Z"]


def test_script_serialization_round_shape():
    import json
    spec = derive_stabilizers(gates.T, ("H",))
    doc = json.loads(script_to_json(shortcut_preparation(spec, 0)))
    assert set(doc) >= {"initial", "steps", "target", "shortcut_index"}
    assert len(doc["steps"]) == 1
    assert len(doc["steps"][0]["measure"]["matrix"]) == 2


def _projector_walk(script):
    """Reference: the projector-arithmetic walk run_script used before it
    ran on the simulator's branch walk, kept verbatim."""
    results = []

    def walk(step, vec, bits):
        if step == len(script.steps):
            p = float(np.linalg.norm(vec) ** 2)
            state = StateVector(script.initial_state.n, vec) if p >= ZERO else None
            results.append(Branch(bits, p if state else 0.0, state,
                                  {k: b for k, b in enumerate(bits)}, {}))
            return
        m, q = script.steps[step]
        for outcome, sign in ((0, 1.0), (1, -1.0)):
            child = (vec + sign * (m @ vec)) / 2.0
            if float(np.linalg.norm(child) ** 2) < ZERO:
                results.append(Branch(bits + (outcome,), 0.0, None,
                                      {k: b for k, b in enumerate(bits + (outcome,))}, {}))
                continue
            if outcome == 1:
                child = q @ child
            walk(step + 1, child, bits + (outcome,))

    walk(0, script.initial_state.amplitudes.copy(), ())
    return results


def _every_script(rng):
    for name, a_ops in (("T", ("H",)), ("CS", ("H", "H")), ("TOFFOLI", ("H", "H", "I"))):
        spec = derive_stabilizers(gates.matrix_of(name), a_ops)
        yield build_preparation(spec)
        yield from (shortcut_preparation(spec, i) for i in range(len(a_ops)))
        if name == "CS":
            yield build_preparation(spec, initial=random_state(2, rng))


def test_run_script_matches_the_projector_walk(rng):
    for script in _every_script(rng):
        want, got = _projector_walk(script), run_script(script)
        assert [b.bits for b in got] == [b.bits for b in want]
        assert [b.cbits for b in got] == [b.cbits for b in want]
        assert [b.state is None for b in got] == [b.state is None for b in want]
        for g, w in zip(got, want):
            assert abs(g.probability - w.probability) < 1e-12
            if w.state is not None:
                assert np.max(np.abs(g.state.amplitudes - w.state.amplitudes)) < 1e-12


def test_script_circuit_layout():
    """A preparation from nothing: every qubit is injected, the register
    first with the initial state, then the control at each step."""
    script = build_preparation(derive_stabilizers(gates.CS, ("H", "H")))
    c = script_circuit(script)
    assert (c.n_qubits, c.n_cbits) == (3, 2)
    assert c.inputs == ("inject", "inject", "inject") and c.symbolic_qubits == ()
    first = c.ops[0]
    assert first.targets == (0, 1)
    assert np.array_equal(first.amplitudes, script.initial_state.amplitudes)
    assert [(type(op).__name__, bool(getattr(op, "cond_cbits", ()))) for op in c.ops] == [
        ("InjectOp", False)] + [
        ("InjectOp", False), ("GateOp", False), ("GateOp", False), ("GateOp", False),
        ("MeasureOp", False), ("GateOp", True)] * 2


def test_a_zero_qubit_script_allocates_no_control():
    """A 1×1 gate has no stabilizer to measure: its script has no step, so
    its circuit has no control qubit left neither measured nor an output."""
    script = build_preparation(derive_stabilizers(np.eye(1, dtype=complex), ()))
    c = script_circuit(script)
    assert script.steps == () and (c.n_qubits, c.n_cbits) == (0, 0)
    assert verify_script(script) == (True, 1.0)


def test_running_a_script_leaves_its_matrices_writeable():
    spec = derive_stabilizers(gates.TOFFOLI, ("H", "H", "I"))
    for script in (build_preparation(spec), shortcut_preparation(spec, 0)):
        arrays = [a for step in script.steps for a in step]
        assert all(a.flags.writeable for a in arrays)
        run_script(script)
        assert all(a.flags.writeable for a in arrays)
