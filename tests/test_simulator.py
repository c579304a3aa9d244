"""Statevector engine: gate action, branch enumeration, equivalence checks,
and the two circuit identities that anchor the teleport derivations (the
two-CNOT swap against |0>, and measure-then-classically-control)."""

import numpy as np
import pytest

from telegate import gates
from telegate.circuit import CircuitBuilder
from telegate.errors import DimensionMismatch, ValidationError, WidthOverflow
from telegate.simulator import (MAX_QUBITS, Branch, apply_gate, basis_state,
                                branches_to_json, equivalent_up_to_phase,
                                extract_register_state, kron_states,
                                random_state, register_offsets,
                                run_all_branches, state_from,
                                verify_gate_equivalence, worst_fidelity, zero_state)
from telegate.teleport import build_one_bit_teleport

SQ2 = 1 / np.sqrt(2)


def test_apply_hadamard():
    out = apply_gate(zero_state(1), "H", [0])
    assert np.allclose(out.amplitudes, [SQ2, SQ2])


def test_bell_pair():
    s = apply_gate(zero_state(2), "H", [0])
    s = apply_gate(s, "CNOT", [0, 1])
    assert np.allclose(s.amplitudes, [SQ2, 0, 0, SQ2])


def test_t_on_plus():
    plus = state_from([SQ2, SQ2])
    out = apply_gate(plus, "T", [0])
    assert np.allclose(out.amplitudes, [SQ2, SQ2 * np.exp(1j * np.pi / 4)])


def test_gate_on_nonadjacent_targets(rng):
    # CNOT on (2, 0) of three qubits against the embedded dense matrix
    psi = random_state(3, rng)
    got = apply_gate(psi, "CNOT", [2, 0])
    want = gates.embed(gates.CNOT, (2, 0), 3) @ psi.amplitudes
    assert np.max(np.abs(got.amplitudes - want)) < 1e-12


def test_x_teleport_branches(rng):
    c = build_one_bit_teleport("X", 1)
    psi = random_state(1, rng)
    branches = run_all_branches(c, psi)
    assert [b.bitstring for b in branches] == ["0", "1"]
    for b in branches:
        assert abs(b.probability - 0.5) < 1e-12
        out = extract_register_state(b, (1,))
        ok, fid = equivalent_up_to_phase(out, psi)
        assert ok, fid


def test_z_teleport_branches(rng):
    c = build_one_bit_teleport("Z", 1)
    psi = random_state(1, rng)
    for b in run_all_branches(c, psi):
        assert abs(b.probability - 0.5) < 1e-12
        ok, _ = equivalent_up_to_phase(extract_register_state(b, (1,)), psi)
        assert ok


def test_no_measurement_single_branch():
    b = CircuitBuilder(1, 0, ["input"])
    b.gate("H", [0])
    branches = run_all_branches(b.build(), zero_state(1))
    assert len(branches) == 1 and abs(branches[0].probability - 1.0) < 1e-12


def test_probabilities_sum_to_one(rng):
    from test_circuit import random_valid_circuit
    for _ in range(25):
        c = random_valid_circuit(rng, int(rng.integers(1, 5)))
        k = len(c.symbolic_qubits)
        psi = random_state(k, rng) if k else None
        total = sum(b.probability for b in run_all_branches(c, psi))
        assert abs(total - 1.0) < 1e-10


def test_branch_linearity(rng):
    # the operator assembled from basis inputs predicts any input's branches
    c = build_one_bit_teleport("X", 2)
    cols = {}
    for idx in range(4):
        for b in run_all_branches(c, basis_state(2, idx)):
            vec = extract_register_state(b, (2, 3)).amplitudes * np.sqrt(b.probability)
            cols.setdefault(b.bitstring, {})[idx] = vec
    psi = random_state(2, rng)
    for b in run_all_branches(c, psi):
        predicted = sum(psi.amplitudes[i] * cols[b.bitstring][i] for i in range(4))
        direct = extract_register_state(b, (2, 3)).amplitudes * np.sqrt(b.probability)
        assert np.max(np.abs(predicted - direct)) < 1e-10


def test_swap_against_zero_with_two_cnots(rng):
    # |0> on the first wire swaps with an unknown state using two CNOTs
    b = CircuitBuilder(2, 0, ["zero", "input"])
    b.gate("CNOT", [1, 0])
    b.gate("CNOT", [0, 1])
    c = b.build()
    for _ in range(10):
        psi = random_state(1, rng)
        (branch,) = run_all_branches(c, psi)
        want = np.kron(psi.amplitudes, [1, 0])
        assert np.max(np.abs(branch.state.amplitudes - want)) < 1e-12


@pytest.mark.parametrize("name", ["X", "Z", "S"])
def test_control_then_measure_equals_measure_then_control(name, rng):
    quantum = CircuitBuilder(2, 1, ["input", "input"])
    quantum.gate(gates.controlled(gates.matrix_of(name)), [0, 1])
    quantum.measure(0, 0)
    classical = CircuitBuilder(2, 1, ["input", "input"])
    classical.measure(0, 0)
    classical.cgate([0], [1], name, [1])
    for _ in range(10):
        psi = random_state(2, rng)
        left = run_all_branches(quantum.build(), psi)
        right = run_all_branches(classical.build(), psi)
        for lb, rb in zip(left, right):
            assert lb.bits == rb.bits
            assert abs(lb.probability - rb.probability) < 1e-12
            if lb.state is not None:
                assert np.max(np.abs(lb.state.amplitudes - rb.state.amplitudes)) < 1e-10


def test_equivalence_up_to_phase_examples():
    zero = zero_state(1)
    ok, fid = equivalent_up_to_phase(zero, state_from(np.exp(0.7j) * zero.amplitudes))
    assert ok and abs(fid - 1.0) < 1e-12
    ok, fid = equivalent_up_to_phase(zero, basis_state(1, 1))
    assert not ok and fid < 1e-12


def test_equivalence_fidelity_between_ancillas():
    # oracle: the overlap is |1 + conj(e^{i pi/4}) * i| / 2 = cos(pi/8)
    t_anc = state_from([1.0, np.exp(1j * np.pi / 4)])
    s_anc = state_from([1.0, 1j])
    expected = abs(1 + np.conj(np.exp(1j * np.pi / 4)) * 1j) / 2
    assert abs(expected - np.cos(np.pi / 8)) < 1e-15
    ok, fid = equivalent_up_to_phase(t_anc, s_anc)
    assert not ok
    assert abs(fid - 0.9238795325112867) < 1e-12


def test_equivalence_dimension_error():
    with pytest.raises(DimensionMismatch):
        equivalent_up_to_phase(zero_state(1), zero_state(2))


def test_verify_identity_circuit():
    b = CircuitBuilder(1, 0, ["input"])
    b.gate("I", [0])
    report = verify_gate_equivalence(b.build(), np.eye(2, dtype=complex), [0], [0])
    assert report.passed and abs(report.branch_scalars[""] - 1.0) < 1e-12


def test_verify_teleport_vs_identity():
    report = verify_gate_equivalence(build_one_bit_teleport("X", 1),
                                     np.eye(2, dtype=complex), [0], [1])
    assert report.passed
    assert set(report.branch_weights) == {"0", "1"}
    for w in report.branch_weights.values():
        assert abs(w - 0.5) < 1e-12


def test_verify_flags_tampered_correction():
    # replace the outcome-1 repair X by Z: branch 1 must fail
    b = CircuitBuilder(2, 1, ["input", "zero"])
    b.gate("H", [1]).gate("CNOT", [1, 0]).measure(0, 0)
    b.cgate([0], [1], "Z", [1])
    report = verify_gate_equivalence(b.build(), np.eye(2, dtype=complex), [0], [1])
    assert not report.passed
    assert report.failing_branch == "1"
    assert report.branch_weights["0"] > 0.4  # the untampered branch still works


def test_verify_requires_measured_non_outputs():
    b = CircuitBuilder(2, 0, ["input", "zero"])
    b.gate("CNOT", [0, 1])
    with pytest.raises(DimensionMismatch):
        verify_gate_equivalence(b.build(), np.eye(2, dtype=complex), [0], [0])


def test_zero_probability_branch_recorded():
    b = CircuitBuilder(1, 1, ["zero"])
    b.measure(0, 0)  # |0> never reads 1
    branches = run_all_branches(b.build(), None)
    assert branches[0].probability == pytest.approx(1.0)
    assert branches[1].probability == 0.0 and branches[1].state is None


def test_branch_report_serialization(rng):
    c = build_one_bit_teleport("X", 1)
    import json
    doc = json.loads(branches_to_json(run_all_branches(c, random_state(1, rng))))
    assert [b["bits"] for b in doc["branches"]] == ["0", "1"]
    assert all(abs(b["p"] - 0.5) < 1e-12 for b in doc["branches"])


def wide_circuit(n=MAX_QUBITS + 1):
    """Qubit 0 passes through; every other qubit is |0> and measured."""
    b = CircuitBuilder(n, n - 1, ["input"] + ["zero"] * (n - 1))
    for q in range(1, n):
        b.measure(q, q - 1)
    return b.build()


def test_branch_engine_entry_points_share_width_limit():
    c = wide_circuit()
    with pytest.raises(WidthOverflow):
        run_all_branches(c, zero_state(1))
    with pytest.raises(WidthOverflow):
        verify_gate_equivalence(c, np.eye(2, dtype=complex), [0], [0])
    at_limit = verify_gate_equivalence(wide_circuit(MAX_QUBITS),
                                       np.eye(2, dtype=complex), [0], [0])
    assert at_limit.passed


def _offsets_by_bit_loop(n, register):
    # the per-bit loop register_offsets replaced
    k = len(register)
    out = []
    for s in range(2**k):
        idx = 0
        for j, q in enumerate(register):
            if (s >> (k - 1 - j)) & 1:
                idx |= 1 << (n - 1 - q)
        out.append(idx)
    return out


def test_register_offsets_match_bit_loop():
    import itertools
    for n in range(1, 6):
        for k in range(n + 1):
            for register in itertools.permutations(range(n), k):
                assert register_offsets(n, register).tolist() \
                    == _offsets_by_bit_loop(n, register), (n, register)


def test_kron_states():
    s = kron_states(basis_state(1, 1), zero_state(1))
    assert np.allclose(s.amplitudes, [0, 0, 1, 0])


def test_engine_refuses_more_measurements_than_the_limit():
    """2^m branches: a circuit over the limit is refused up front by both
    engine entry points, with the count; one at the limit runs."""
    from telegate.limits import MAX_MEASUREMENTS

    def remeasured(count):
        # qubit 1 is measured, re-prepared as |0> and measured again
        b = CircuitBuilder(2, count, ["input", "zero"])
        b.measure(1, 0)
        for cbit in range(1, count):
            b.inject([1.0, 0.0], [1])
            b.measure(1, cbit)
        return b.build()

    over = remeasured(MAX_MEASUREMENTS + 1)
    message = f"{MAX_MEASUREMENTS + 1} measurements"
    with pytest.raises(WidthOverflow, match=message):
        run_all_branches(over, zero_state(1))
    with pytest.raises(WidthOverflow, match=message):
        verify_gate_equivalence(over, np.eye(2, dtype=complex), [0], [0])
    assert verify_gate_equivalence(remeasured(MAX_MEASUREMENTS),
                                   np.eye(2, dtype=complex), [0], [0]).passed


def _embed_by_former_body(matrix, targets, n):
    # gates.embed before it shared the simulator's apply kernel
    targets = tuple(targets)
    k = len(targets)
    dim = 2**n
    tensor = np.eye(dim, dtype=complex).reshape([2] * n + [dim])
    moved = np.moveaxis(tensor, targets, range(k))
    rest = moved.shape[k:]
    flat = np.asarray(matrix, dtype=complex) @ moved.reshape(2**k, -1)
    moved = flat.reshape([2] * k + list(rest))
    return np.moveaxis(moved, range(k), targets).reshape(dim, dim)


def test_embed_on_shared_kernel_matches_former_body():
    import itertools
    from telegate import simulator
    assert simulator.apply_to_columns is gates.apply_to_columns
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        for k in range(1, min(n, 3) + 1):
            m = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
            for targets in itertools.permutations(range(n), k):
                assert np.array_equal(gates.embed(m, targets, n),
                                      _embed_by_former_body(m, targets, n)), (n, targets)


def test_state_from_refuses_a_non_power_of_two():
    with pytest.raises(ValidationError, match="dimension 3 is not a power of two"):
        state_from([1.0, 0.0, 0.0])


def test_verification_streams_its_branches():
    """1,024 branches of a 6-qubit, 32-column verification: the walk
    yields each branch as it reaches it, so the traced peak stays near one
    path's columns; collecting every branch first (32 KB each) peaks
    above 30 MB."""
    import tracemalloc
    data, m = 5, 10
    b = CircuitBuilder(data + 1, m, ["input"] * data + ["inject"])
    for cbit in range(m):
        b.inject([SQ2, SQ2], [data])
        b.measure(data, cbit)
    c = b.build()
    tracemalloc.start()
    try:
        report = verify_gate_equivalence(c, np.eye(2**data), range(data), range(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and len(report.branch_weights) == 2**m
    assert peak < 3_000_000, peak


def test_worst_fidelity_skips_dead_branches_and_reads_the_register():
    # qubit 1 measured as 1; the register (qubit 0) holds |+>
    plus_one = state_from([0, SQ2, 0, SQ2])
    live = Branch((1,), 1.0, plus_one, {0: 1}, {1: 1})
    dead = Branch((0,), 0.0, None, {0: 0}, {1: 0})
    plus, zero = state_from([SQ2, SQ2]), zero_state(1)
    assert worst_fidelity([dead, live], plus, register=(0,)) == pytest.approx(1.0)
    assert worst_fidelity([dead, live], zero, register=(0,)) == pytest.approx(SQ2)
    assert worst_fidelity([live], state_from([0, 0, 0, 1])) == pytest.approx(SQ2)
    assert worst_fidelity([dead], zero) == 1.0
