"""Statevector engine: gate action, branch enumeration, equivalence checks,
and the two circuit identities that anchor the teleport derivations (the
two-CNOT swap against |0>, and measure-then-classically-control)."""

import re
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import pytest

from telegate import ancilla, gates, recursive, remote, simulator, teleport
from telegate.circuit import Circuit, CircuitBuilder, GateOp, InjectOp, MeasureOp
from telegate.errors import (DimensionMismatch, InvalidCircuitError, ValidationError,
                             WidthOverflow)
from telegate.gates import apply_to_columns
from telegate.limits import MAX_QUBITS, MAX_STACK_AMPLITUDES, TOL, VERIFY_TOL, ZERO
from telegate.simulator import (Branch, StateVector, apply_gate, basis_state,
                                equivalent_up_to_phase, extract_register_state,
                                random_state, register_offsets,
                                run_all_branches, state_from,
                                verify_gate_equivalence, zero_state)
from telegate.teleport import build_one_bit_teleport

SQ2 = 1 / np.sqrt(2)
EPS = np.finfo(float).eps


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


def test_apply_gate_takes_a_gate_op_but_refuses_a_conditioned_one():
    out = apply_gate(zero_state(1), GateOp((0,), name="X"))
    assert np.allclose(out.amplitudes, [0, 1])
    bare = apply_gate(zero_state(2), gates.CNOT @ gates.kron(gates.X, gates.I2), [0, 1])
    assert np.array_equal(bare.amplitudes, [0, 0, 0, 1])
    conditioned = GateOp((0,), name="X", cond_cbits=(0,), cond_values=(1,))
    with pytest.raises(ValidationError, match="condition"):
        apply_gate(zero_state(1), conditioned)


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


@pytest.mark.parametrize("register", [(1, 1), (0, 1, 1), (2,)])
def test_a_repeated_or_out_of_range_register_qubit_is_refused(rng, register):
    """At the parent (1, 1) read a duplicated amplitude as a 2-qubit state
    and (0, 1, 1) raised IndexError."""
    branch = run_all_branches(build_one_bit_teleport("X", 1), random_state(1, rng))[0]
    with pytest.raises(DimensionMismatch,
                       match=re.escape(f"bad register {register} for width 2")):
        extract_register_state(branch, register)


def test_z_teleport_branches(rng):
    c = build_one_bit_teleport("Z", 1)
    psi = random_state(1, rng)
    for b in run_all_branches(c, psi):
        assert abs(b.probability - 0.5) < 1e-12
        ok, _ = equivalent_up_to_phase(extract_register_state(b, (1,)), psi)
        assert ok


def test_a_re_injected_qubit_is_no_longer_measured(rng):
    """The round trip q0 -> q1 -> q0 ends with q0 live: its first outcome
    no longer pins it, so q1's register is refused and q0's holds the input."""
    from test_circuit import recycled_round_trip
    c = recycled_round_trip()
    psi = random_state(1, rng)
    assert c.measured_qubits() == {1}
    for b in run_all_branches(c, psi):
        assert list(b.measured_values) == [1] and b.measured_values[1] == b.bits[1]
        with pytest.raises(DimensionMismatch,
                           match="^qubit 0 is neither in the register nor measured$"):
            extract_register_state(b, (1,))
        assert equivalent_up_to_phase(extract_register_state(b, (0,)), psi)[0]


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


def _apply_to_one_block(cols, matrix, targets, n):
    """The kernel's arithmetic on one (2**n, m) block alone: one np.matmul."""
    order, undo = gates.target_axes(targets, n)
    tensor = cols.reshape([1] + [2] * n + [cols.shape[-1]]).transpose(order)
    flat = np.matmul(matrix, tensor.reshape(1, 2 ** len(targets), -1))
    return flat.reshape(tensor.shape).transpose(undo).reshape(cols.shape)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_one_product_per_stack_gives_each_block_its_own_bits(k):
    """A stack takes one product when each block has at least 4 columns
    past the targets and one per block below that; either way every block
    gets the bits it gets alone, in the gate kernel and for a non-square matrix."""
    rng = np.random.default_rng(k)
    matrix = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
    for width in (1, 2, 4, 8):  # columns per block past the targets
        n = k + (width > 1)  # one qubit besides the targets once there is room
        targets = tuple(int(t) for t in rng.permutation(n)[:k])
        for rows in (1, 2, 3, 17, 256):
            stack = (rng.standard_normal((rows, 2**n, width >> (n - k)))
                     + 1j * rng.standard_normal((rows, 2**n, width >> (n - k))))
            got = apply_to_columns(stack, matrix, targets, n)
            for r in range(rows):
                want = _apply_to_one_block(stack[r], matrix, targets, n)
                assert np.array_equal(got[r], want), (width, rows, r)
                assert np.array_equal(apply_to_columns(stack[r], matrix, targets, n), want)
    for din in (1, 2, 4, 8):  # a (din x dout) matrix times (dout x din) blocks
        dout = 2**k
        u_dagger = (rng.standard_normal((din, dout)) + 1j * rng.standard_normal((din, dout)))
        for rows in (1, 2, 3, 17, 256, 1024):
            blocks = (rng.standard_normal((rows, dout, din))
                      + 1j * rng.standard_normal((rows, dout, din)))
            got = gates.stacked_product(u_dagger, blocks)
            assert np.array_equal(got, np.matmul(u_dagger, blocks)), (din, rows)
            for r in range(rows):
                assert np.array_equal(got[r], u_dagger @ blocks[r]), (din, rows, r)


def _clifford_diagonal(k, rng):
    """diag(i^q(x)) for a random quadratic form q mod 4: S, Z, CZ powers and a phase."""
    x = (np.arange(2**k)[:, None] >> np.arange(k)[::-1]) & 1
    linear, pairs = rng.integers(4, size=k), np.triu(rng.integers(2, size=(k, k)), 1)
    q = rng.integers(4) + x @ linear + 2 * np.einsum("xj,jl,xl->x", x, pairs, x)
    return 1j ** (q % 4)


def test_exact_monomial_gates_gather_the_products_bits():
    """The walk's gate step sends an exact monomial gate (one nonzero per row
    and column, each 1, -1, i or -i) to a gather and a phase multiply: every
    library gate, times 1, -1, i or -i, and random Clifford diagonals give
    `apply_to_columns`'s bits on random targets of 1 to 6 qubits, on every
    row of a stack or on a random subset.  T, H, CH, Q, a random unitary and
    a diagonal a rounding away from S stay on the product."""
    rng = np.random.default_rng(19)
    gathered = {"I", "X", "Y", "Z", "S", "S†", "CNOT", "CZ", "SWAP", "CS", "CS†", "TOFFOLI"}
    assert {name for name in gates.GATE_NAMES
            if gates.monomial(gates.matrix_of(name)) is not None} == gathered
    unitary = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    for m in (gates.T, gates.H, gates.CH, gates.Q, unitary, np.diag([1, 1j + 1e-16])):
        assert gates.monomial(m) is None
    matrices = [phase * gates.matrix_of(name) for name in gates.GATE_NAMES
                for phase in (1, -1, 1j, -1j)]
    matrices += [np.diag(_clifford_diagonal(k, rng)) for k in (1, 2, 3) for _ in range(4)]
    for m in matrices:
        k = len(m).bit_length() - 1
        for n in range(k, 7):
            targets = tuple(int(t) for t in rng.permutation(n)[:k])
            for rows in (1, 3, 256):
                m_cols = int(rng.choice([1, 2, 4]))
                stack = (rng.standard_normal((rows, 2**n, m_cols))
                         + 1j * rng.standard_normal((rows, 2**n, m_cols)))
                want = apply_to_columns(stack, m, targets, n)
                assert np.array_equal(simulator._apply(stack.copy(), m, targets, n), want)
                match = rng.random(rows) < 0.5
                match[rng.integers(rows)] = True  # the walk skips a gate no row matches
                got, want = stack.copy(), stack.copy()
                got[match] = simulator._apply(got[match], m, targets, n)
                want[match] = apply_to_columns(stack[match], m, targets, n)
                assert np.array_equal(got, want), (m, targets, n, rows)


def test_a_measurement_decides_death_by_the_one_mass():
    """A measurement keeps a child live exactly when `_mass` puts it at ZERO
    or above, also for children within rounding of ZERO; a dead child is a
    row of zeros whose record ends there, and a dead row's next measurement
    keeps its outcome-0 child alone.  Each branch's probability is `_mass`
    of its row alone, bit for bit."""
    rng = np.random.default_rng(5)
    cols = rng.standard_normal((64, 8, 2)) + 1j * rng.standard_normal((64, 8, 2))
    scale = [1] * 40 + [1 - 1e-15, 1 + 1e-15, 1 - 1e-10, 1 + 1e-10, 0.5, 2, 0] * 2
    for r, s in enumerate(scale):  # each row's outcome-1 child, qubit 1 of 3
        child = cols[r].reshape(2, 2, 2, 2)[:, 1]
        child *= np.sqrt(ZERO * s / simulator._mass(child[None])[0])
    children, codes, died, dead = simulator._measure(cols, 1, np.arange(len(cols)),
                                                     np.zeros(len(cols), dtype=np.int8), 3)
    split = cols.reshape(-1, 2, 2, 2, 2).swapaxes(1, 2).reshape(-1, 4, 2)
    alive = simulator._mass(split) >= ZERO
    assert dead and codes.tolist() == list(range(2 * len(cols)))
    assert died.tolist() == np.where(alive, 0, 3).tolist()
    assert np.array_equal(children[alive], split[alive]) and not children[~alive].any()
    grand, codes, died, dead = simulator._measure(children, 0, codes, died, 4)
    assert codes.tolist() == [code for code in range(4 * len(cols))
                              if alive[code >> 1] or code % 2 == 0]
    from_live = alive[codes >> 1]
    assert (died[~from_live] == 3).all() and set(died[from_live].tolist()) <= {0, 4}
    assert dead and not grand[died > 0].any()
    assert not simulator._measure(cols, 0, np.arange(len(cols)),
                                  np.zeros(len(cols), dtype=np.int8), 3)[3]
    c = recursive.synth_recursive(recursive.controlled_rotation_spec(1, 4)).flattened
    psi = random_state(len(c.symbolic_qubits), rng)
    rows = [row for stack in simulator._enumerate(c, simulator._initial_columns(c, psi))
            for row in stack.cols]
    probs = [b.probability for b in run_all_branches(c, psi)]
    assert len(probs) > 1 and probs == [simulator._mass(row[None])[0] for row in rows]


@pytest.mark.parametrize("matrix,targets,message", [
    (gates.CNOT, (0,), "gate matrix does not match target count"),
    (gates.CNOT, (1, 1), r"bad targets \(1, 1\) for width 2"),
    (gates.H, (2,), r"bad targets \(2,\) for width 2"),
])
def test_apply_to_columns_refuses_a_wrong_matrix_or_bad_targets(matrix, targets, message):
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        apply_to_columns(np.eye(4, dtype=complex), matrix, targets, 2)


@pytest.mark.parametrize("n,amps,error,message", [
    (2, [1.0, 0.0], DimensionMismatch, r"amplitude count must be 2\*\*n"),
    (1, [0.0, 0.0], ValidationError, "state has zero norm"),
], ids=["count", "zero"])
def test_a_state_refuses_a_wrong_count_or_a_zero_norm(n, amps, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        StateVector(n, amps)


def _one_input():
    return CircuitBuilder(2, 1, ["input", "zero"]).gate("CNOT", [0, 1]).measure(1, 0).build()


@pytest.mark.parametrize("walk", [
    run_all_branches,
    lambda c, psi: simulator.sample_branches(c, psi, 4, np.random.default_rng(0)),
], ids=["run_all_branches", "sample_branches"])
@pytest.mark.parametrize("c,psi,message", [
    (CircuitBuilder(1, 0, ["zero"]).gate("H", [0]).build(), zero_state(1),
     "circuit has no symbolic inputs"),
    (_one_input(), None, "input must cover the 1 symbolic-input qubits"),
    (_one_input(), zero_state(2), "input must cover the 1 symbolic-input qubits"),
], ids=["no inputs", "missing", "too wide"])
def test_a_walk_refuses_an_input_that_does_not_fit(walk, c, psi, message):
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        walk(c, psi)


def test_a_dead_branch_has_no_register_state():
    c = CircuitBuilder(2, 1, ["input", "zero"]).measure(1, 0).build()  # outcome 1 dies
    live, dead = run_all_branches(c, zero_state(1))
    assert live.state is not None and dead.state is None
    with pytest.raises(ValidationError, match="^dead branches carry no state$"):
        extract_register_state(dead, (0,))


def test_state_from_refuses_a_non_power_of_two():
    with pytest.raises(ValidationError, match="dimension 3 is not a power of two"):
        state_from([1.0, 0.0, 0.0])


@pytest.mark.parametrize("amps", [[np.nan, 0.0], [np.inf, 1.0]], ids=["nan", "inf"])
def test_a_state_refuses_non_finite_amplitudes(amps):
    """Refused before the division, which would warn and leave all NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^state has non-finite amplitudes$"):
            StateVector(1, amps)


@pytest.mark.parametrize("amps", [[1e200, 0.0], [0.0, -1e200j], [1e308 + 1e308j, 1e308]])
def test_a_state_of_huge_finite_amplitudes_is_normalized(amps):
    """Squares past the float range are rescaled, not refused: the norm
    used to overflow, warn, and call the state non-finite."""
    want = np.array(amps) / np.max(np.abs([np.real(amps), np.imag(amps)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = StateVector(1, amps).amplitudes
    assert np.allclose(got, want / np.linalg.norm(want), atol=0, rtol=4 * EPS)
    assert StateVector(1, [1e200, 0.0]).amplitudes.tolist() == [1.0, 0.0]


def test_an_ordinary_state_keeps_numpys_norm(rng):
    for scale in (1e-6, 1.0, 1e8, 1e150):
        amps = scale * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        assert np.array_equal(StateVector(3, amps).amplitudes, amps / np.linalg.norm(amps))


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



def _traced(fn):
    """fn's result, and the bytes traced at its peak and still held after."""
    import tracemalloc
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


def test_the_level5_report_is_written_in_place():
    """CV5's flattened check, 2^18 branches: each stack's slice is written
    into one set of arrays, 26 B a branch (6.8 MB), so the traced peak stays
    under 10 MB; concatenating a list of per-stack parts peaked at 17.9 MB."""
    rc = recursive.synth_recursive(recursive.controlled_rotation_spec(1, 5), flatten=True)
    report, peak, _ = _traced(
        lambda: verify_gate_equivalence(rc.flattened, rc.gate, rc.in_map, rc.out_map))
    assert report.passed and len(report.branch_weights) == 2**18
    assert peak < 10_000_000, peak


def test_a_report_keeps_only_the_slots_it_filled():
    """|0> re-injected and measured 20 times: 21 records, where the fold
    sets out 2^20 slots; the report keeps a copy of the 21 filled ones."""
    b = CircuitBuilder(2, 20, ["input", "zero"])
    for cbit in range(20):
        if cbit:
            b.inject([1.0, 0.0], [1])
        b.measure(1, cbit)
    c = b.build()
    report, _, held = _traced(lambda: verify_gate_equivalence(c, np.eye(2), [0], [0]))
    assert report.passed and len(report.branch_weights) == 21
    assert list(report.branch_weights)[:2] == ["0" * 20, "0" * 19 + "1"]
    assert held < 50_000, held


def _sampled_from_branches(c, state, shots, seed):
    """The draws `sample_branches` made before it read the walk directly:
    from `run_all_branches`' probabilities, keyed by each branch's bitstring."""
    branches = run_all_branches(c, state)
    probs = np.array([b.probability for b in branches])
    counts = {}
    for idx in np.random.default_rng(seed).choice(len(branches), size=shots,
                                                  p=probs / probs.sum()):
        key = branches[int(idx)].bitstring
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_sampling_draws_from_the_walks_probabilities(rng):
    dead = CircuitBuilder(2, 3, ["input", "zero"])
    dead.measure(1, 0).inject([1.0, 0.0], [1]).measure(1, 1).measure(0, 2)
    cases = [
        (teleport.synthesize_teleported_gate(gates.T).circuit, random_state(1, rng)),
        (recursive.recursive_ancilla_prep(recursive.controlled_rotation_spec(1, 4)).circuit,
         None),
        (dead.build(), random_state(1, rng)),
    ]
    for c, state in cases:
        for seed in range(3):
            counts = simulator.sample_branches(c, state, 200, np.random.default_rng(seed))
            assert counts == _sampled_from_branches(c, state, 200, seed)
    assert set(counts) == {"000", "001"}  # never the dead branches "1" and "01"


def test_sampling_builds_no_branch_state():
    """CCV4's flattened circuit, 4,096 branches: drawing from the walk's
    probabilities keeps the traced peak near one stack's columns, where a
    full-width state per branch peaked at 11.7 MB."""
    rc = recursive.synth_recursive(recursive.controlled_rotation_spec(2, 4), flatten=True)
    state = random_state(len(rc.in_map), np.random.default_rng(0))
    counts, peak, _ = _traced(lambda: simulator.sample_branches(
        rc.flattened, state, 10, np.random.default_rng(0)))
    assert sum(counts.values()) == 10
    assert peak < 4_000_000, peak


# ---------------------------------------------------------------------------
# the oracle: the depth-first walk the batched engine replaced, and its fold


def _project_columns(cols, qubit, outcome, n):
    tensor = cols.reshape([2] * n + [-1]).copy()
    idx = [slice(None)] * (n + 1)
    idx[qubit] = 1 - outcome
    tensor[tuple(idx)] = 0.0
    return tensor.reshape(cols.shape)


def _inject_columns(cols, targets, amplitudes, n):
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
    bits: tuple
    cbits: dict
    measured_values: dict
    cols: np.ndarray | None  # unnormalized; None for dead branches


def _enumerate_depth_first(c, cols):
    """Depth-first over measurement outcomes, outcome 0 first, yielding each
    branch.  Its measured values are the qubits measured after the last op:
    an inject drops its targets, and a dead branch drops the qubits a later
    op measures or injects."""
    n = c.n_qubits

    def walk(op_index, cols, bits, cbits, measured):
        for k in range(op_index, len(c.ops)):
            op = c.ops[k]
            if isinstance(op, GateOp):
                if all(cbits.get(b) == v for b, v in zip(op.cond_cbits, op.cond_values)):
                    cols = apply_to_columns(cols, op.resolved_matrix(), op.targets, n)
            elif isinstance(op, InjectOp):
                cols = _inject_columns(cols, op.targets, op.amplitudes, n)
                measured = {q: v for q, v in measured.items() if q not in op.targets}
            elif isinstance(op, MeasureOp):
                later = set()  # the qubits a later op measures or re-injects
                for o in c.ops[k + 1:]:
                    if isinstance(o, MeasureOp):
                        later.add(o.qubit)
                    elif isinstance(o, InjectOp):
                        later.update(o.targets)
                for outcome in (0, 1):
                    child = _project_columns(cols, op.qubit, outcome, n)
                    total = float(np.sum(np.abs(child) ** 2))
                    new_bits = bits + (outcome,)
                    new_cbits = dict(cbits)
                    new_cbits[op.cbit] = outcome
                    new_measured = dict(measured)
                    new_measured[op.qubit] = outcome
                    if total < ZERO:
                        yield _RawBranch(new_bits, new_cbits, {
                            q: v for q, v in new_measured.items() if q not in later}, None)
                    else:
                        yield from walk(k + 1, child, new_bits, new_cbits, new_measured)
                return
        yield _RawBranch(bits, cbits, measured, cols)

    return walk(0, cols, (), {}, {})


def _full_columns(c, cols):
    """A block over the symbolic inputs as one over every qubit, each other
    qubit at |0>: the depth-first walk's starting block."""
    full = np.zeros((2**c.n_qubits, cols.shape[1]), dtype=complex)
    full[register_offsets(c.n_qubits, c.symbolic_qubits)] = cols
    return full


def _oracle_branches(c, psi):
    """run_all_branches over the depth-first walk."""
    branches = []
    for raw in _enumerate_depth_first(c, _full_columns(c, simulator._initial_columns(c, psi))):
        live = raw.cols is not None
        p = float(np.sum(np.abs(raw.cols) ** 2)) if live else 0.0
        state = StateVector(c.n_qubits, raw.cols[:, 0]) if live else None
        branches.append(Branch(raw.bits, p, state, raw.cbits, raw.measured_values))
    return branches


def _oracle_report(c, u, in_map, out_map, tol=VERIFY_TOL):
    """verify_gate_equivalence's fold over the depth-first walk, with dicts."""
    n = c.n_qubits
    k = len(in_map)
    dim = 2**k
    cols = np.zeros((2**n, dim), dtype=complex)
    cols[register_offsets(n, in_map), np.arange(dim)] = 1.0
    out_offsets = register_offsets(n, out_map)
    measured_shifts = [(q, n - 1 - q) for q in range(n) if q not in out_map]
    scalars, weights = {}, {}
    worst = 1.0
    failing = None
    sqrt_dim = np.sqrt(dim)
    for raw in _enumerate_depth_first(c, cols):
        bits = "".join(str(b) for b in raw.bits)
        total_mass = 0.0 if raw.cols is None else float(np.sum(np.abs(raw.cols) ** 2))
        if total_mass / dim < ZERO:
            weights[bits] = 0.0
            continue
        base = 0
        for q, shift in measured_shifts:
            base |= raw.measured_values[q] << shift
        block = raw.cols[base + out_offsets, :]
        coeff = complex(np.einsum("ij,rij->r", u.conj(), block[None])[0] / dim)
        assert abs(coeff - np.trace(u.conj().T @ block) / dim) < 1e-15  # the trace, as a check
        # the fold's numpy modulus and division: Python's abs and / can differ in the last bit
        coeffs = np.array([coeff])
        size = np.abs(coeffs)
        scalar = complex((coeffs / np.where(size > 0, size, 1.0))[0])
        size = float(size[0])
        assert abs(size - abs(coeff)) <= 2 * EPS * abs(coeff)
        assert abs(scalar - (coeff / abs(coeff) if abs(coeff) > 0 else 0.0)) <= 2 * EPS
        fidelity = size * dim / (sqrt_dim * np.sqrt(total_mass))
        weights[bits] = size * size
        scalars[bits] = scalar
        if fidelity < worst:
            worst = fidelity
            if fidelity < 1.0 - tol:
                failing = bits
    return worst >= 1.0 - tol, float(worst), failing, scalars, weights


def _dying_circuit():
    """Branches die at three depths: a |0> measured, a qubit copied from a
    measured |+> and measured again, and a re-injected |+> measured after H."""
    b = CircuitBuilder(4, 4, ["input", "zero", "zero", "zero"])
    b.measure(1, 0)                      # outcome 1 dies at once: record "1"
    b.gate("H", [2]).measure(2, 1)
    b.cgate([1], [1], "X", [3])
    b.measure(3, 2)                      # the outcome that disagrees with cbit 1 dies
    b.inject([SQ2, SQ2], [1])
    b.gate("H", [1]).measure(1, 3)       # |+> under H: outcome 1 dies
    return b.build()


@pytest.fixture(scope="module")
def suite_circuits():
    """(circuit, input) pairs: the suite's circuits with up to 12 measurements."""
    from test_circuit import random_valid_circuit
    rng = np.random.default_rng(77)
    cases = []

    def add(c):
        k = len(c.symbolic_qubits)
        cases.append((c, random_state(k, rng) if k else None))

    for _ in range(60):
        c = random_valid_circuit(rng, int(rng.integers(1, 5)))
        if _measurements(c) <= 12:
            add(c)
    for kind in ("X", "Z"):
        for n in (1, 2):
            add(build_one_bit_teleport(kind, n))
    for name in ("T", "CS", "TOFFOLI", "CNOT", "CZ", "S"):
        add(teleport.synthesize_teleported_gate(gates.matrix_of(name)).circuit)
    for style in ("direct", "four_step"):
        add(remote.build_remote_cnot(style).circuit)
    for pattern in ("XZ", "ZX"):
        add(remote.build_two_bit_teleportation(pattern).circuit)
    for spec in (recursive.rotation_spec(4), recursive.rotation_spec(5),
                 recursive.controlled_rotation_spec(1, 3),
                 recursive.controlled_rotation_spec(1, 4),
                 recursive.controlled_rotation_spec(2, 3),
                 recursive.controlled_rotation_spec(2, 4)):
        add(recursive.synth_recursive(spec, flatten=True).flattened)
    for spec in (recursive.rotation_spec(5), recursive.controlled_rotation_spec(1, 4),
                 recursive.controlled_rotation_spec(2, 3)):
        add(recursive.recursive_ancilla_prep(spec).circuit)
    for name in ("T", "CS", "TOFFOLI"):
        u = gates.matrix_of(name)
        spec = ancilla.derive_stabilizers(u, teleport.plan_teleportation(u).a_ops)
        scripts = [ancilla.build_preparation(spec)]
        scripts += [ancilla.shortcut_preparation(spec, i) for i in range(len(spec.pairs))]
        for s in scripts:
            add(ancilla.script_circuit(s))
    add(_dying_circuit())
    return cases


def _scanned_layout(c):
    """The active qubits before each op and after the last, found by scanning
    every qubit at every op: on a valid circuit a gate or an injection makes
    its targets active and a measurement retires its qubit."""
    status = ["active" if tag == "input" else "idle" for tag in c.inputs]
    layout = []
    for op in c.ops:
        layout.append(tuple(q for q, s in enumerate(status) if s == "active"))
        for q in [op.qubit] if isinstance(op, MeasureOp) else op.targets:
            status[q] = "measured" if isinstance(op, MeasureOp) else "active"
    layout.append(tuple(q for q, s in enumerate(status) if s == "active"))
    return tuple(layout)


def test_the_status_layout_is_the_per_op_scan(suite_circuits):
    from test_circuit import recycled_round_trip
    for c in [c for c, _ in suite_circuits] + [recycled_round_trip()]:
        assert c.status.violations == ()
        assert c.status.layout == _scanned_layout(c)


def _assert_same_branches(got, want):
    assert [b.bits for b in got] == [b.bits for b in want]
    for g, w in zip(got, want):
        assert g.cbits == w.cbits and g.measured_values == w.measured_values
        assert (g.state is None) == (w.state is None), g.bits
        assert abs(g.probability - w.probability) < 1e-12
        if w.state is not None:
            assert np.max(np.abs(g.state.amplitudes - w.state.amplitudes)) < 1e-12


def _measurements(c):
    return sum(isinstance(op, MeasureOp) for op in c.ops)


def _flat_stacks(c, cols, cap=MAX_STACK_AMPLITUDES):
    """Every branch the batched walk yields from a block over the symbolic
    inputs, one row each: (outcome bits, columns over every qubit or None);
    a dead branch's row must be zeros."""
    width = _measurements(c)
    out = []
    for stack in simulator._enumerate(c, cols, cap):
        for code, length, alive, row in zip(stack.codes.tolist(), stack.lengths.tolist(),
                                            stack.live.tolist(),
                                            stack.rows_over(range(c.n_qubits))):
            bits = tuple((code >> (width - 1 - p)) & 1 for p in range(length))
            assert alive or not row.any(), bits
            out.append((bits, row if alive else None))
    return out


def test_batched_walk_matches_the_depth_first_walk(suite_circuits):
    assert any(any(b.state is None for b in _oracle_branches(c, psi))
               for c, psi in suite_circuits)
    for c, psi in suite_circuits:
        _assert_same_branches(run_all_branches(c, psi), _oracle_branches(c, psi))


def test_batched_walk_under_a_small_cap_matches_the_depth_first_walk(suite_circuits):
    """A cap of one amplitude splits every stack down to single rows before
    any op that widens a row or measures; branch order, dead records and
    every amplitude stay the same, bit for bit, as under the default cap."""
    for c, psi in suite_circuits:
        if _measurements(c) > 8:
            continue
        cols = simulator._initial_columns(c, psi)
        want = [(raw.bits, raw.cols)
                for raw in _enumerate_depth_first(c, _full_columns(c, cols))]
        small = _flat_stacks(c, cols, cap=1)
        assert [bits for bits, _ in small] == [bits for bits, _ in want]
        for (_, g), (_, w) in zip(small, want):
            assert (g is None) == (w is None)
            if w is not None:
                assert np.max(np.abs(g - w)) < 1e-12
        default = _flat_stacks(c, cols)
        assert [bits for bits, _ in default] == [bits for bits, _ in small]
        for (_, a), (_, b) in zip(default, small):
            assert (a is None and b is None) or np.array_equal(a, b)


def test_operator_mode_walk_matches_the_depth_first_walk(suite_circuits):
    # every computational-basis input at once, as verification runs it
    for c, _ in suite_circuits:
        if _measurements(c) > 8:
            continue
        cols = np.eye(2 ** len(c.symbolic_qubits), dtype=complex)
        want = [(raw.bits, raw.cols)
                for raw in _enumerate_depth_first(c, _full_columns(c, cols))]
        for cap in (MAX_STACK_AMPLITUDES, 1):
            got = _flat_stacks(c, cols, cap)
            assert [bits for bits, _ in got] == [bits for bits, _ in want]
            for (_, g), (_, w) in zip(got, want):
                assert (g is None) == (w is None)
                if w is not None:
                    assert np.max(np.abs(g - w)) < 1e-12


def _record_stack_sizes(monkeypatch) -> list:
    """Record each call of the walk's three row-making steps as (rows it
    got, rows it made, amplitudes per row made); returns the live record.
    A gate step is `_apply`, a product or a gather."""
    made = []

    def recording(step, rows_of):
        def wrapped(cols, *args):
            out = step(cols, *args)
            rows = rows_of(out)
            made.append((len(cols), len(rows), rows[0].size if len(rows) else 0))
            return out
        return wrapped

    for name, rows_of in (("_measure", lambda out: out[0]), ("_insert", lambda out: out),
                          ("_apply", lambda out: out)):
        monkeypatch.setattr(simulator, name, recording(getattr(simulator, name), rows_of))
    return made


def test_the_cap_bounds_every_stack(suite_circuits, monkeypatch):
    """After every op, a stack that held more than one row holds at most
    `cap` amplitudes: the walk splits before any op that would pass it.
    Only a single row over the cap walks on whole.  At the default cap the
    level-5 check's stacks are full: 256 of them, and 16 for CCV4."""
    cv5 = recursive.synth_recursive(recursive.controlled_rotation_spec(1, 5), flatten=True)
    ccv4 = recursive.synth_recursive(recursive.controlled_rotation_spec(2, 4), flatten=True)
    made = _record_stack_sizes(monkeypatch)
    cases = [(c, cap) for c, _ in suite_circuits for cap in (1, 64, 4096, MAX_STACK_AMPLITUDES)]
    # smaller caps on CV5's 2^18 branches take seconds each
    cases += [(cv5.flattened, cap) for cap in (4096, MAX_STACK_AMPLITUDES)]
    for c, cap in cases:
        made.clear()
        for _ in simulator._enumerate(c, np.eye(2 ** len(c.symbolic_qubits), dtype=complex), cap):
            pass
        assert made
        for rows_in, rows, size in made:
            assert rows * size <= cap or rows_in == 1, (cap, rows_in, rows, size)
    for rc, count in ((cv5, 256), (ccv4, 16)):
        assert sum(1 for _ in simulator.branch_operators(rc.flattened, rc.in_map,
                                                         rc.out_map)) == count


def test_a_split_falls_before_a_measurement_of_an_untouched_qubit(monkeypatch):
    """Measuring a present qubit keeps a stack's amplitude count; measuring
    one no gate has touched doubles it, so a stack at the cap splits first."""
    b = CircuitBuilder(3, 2, ["input", "input", "zero"])
    b.gate("H", [0]).measure(0, 0).measure(2, 1)
    c = b.build()
    cols = np.eye(4, dtype=complex)
    made = _record_stack_sizes(monkeypatch)
    stacks = list(simulator._enumerate(c, cols, 16))
    # H on one row of 16; qubit 0 measured into two rows of 8, at the cap;
    # qubit 2 measured in each half alone, its outcome 1 a dead row of zeros
    assert made == [(1, 1, 16), (1, 2, 8), (1, 2, 8), (1, 2, 8)]
    assert [stack.codes.tolist() for stack in stacks] == [[0b00, 0b01], [0b10, 0b11]]
    whole = list(simulator._enumerate(c, cols))
    assert len(whole) == 1
    assert np.array_equal(np.concatenate([stack.cols for stack in stacks]), whole[0].cols)


def test_the_fold_is_the_same_under_any_cap(monkeypatch):
    """CCV4's report, passing and with a repair removed, is the same bit for
    bit with every branch its own stack, with 256 stacks and with 16."""
    rc = recursive.synth_recursive(recursive.controlled_rotation_spec(2, 4), flatten=True)
    walk = simulator._enumerate
    for c in (rc.flattened, _tampered(rc.flattened)):
        reports = []
        for cap in (1, 1024, MAX_STACK_AMPLITUDES):
            monkeypatch.setattr(simulator, "_enumerate", partial(walk, cap=cap))
            r = verify_gate_equivalence(c, rc.gate, rc.in_map, rc.out_map)
            reports.append((r.passed, r.worst_fidelity, r.failing_branch,
                            r.branch_scalars.items(), r.branch_weights.items()))
        assert reports[0] == reports[1] == reports[2]
    assert not reports[0][0] and reports[0][2] is not None  # the tampered check fails


def test_an_inject_onto_an_active_qubit_is_refused_at_every_entry():
    """Validation, not the walk, keeps an inject off a qubit still in play:
    every engine entry refuses it before walking."""
    c = Circuit(2, 0, ("input", "zero"),
                (GateOp((1,), name="H"), InjectOp((1,), np.array([1.0, 0.0]))))
    cnot = gates.CNOT[:, [0, 2]]  # |x> -> |xx>, an isometry onto both qubits
    with pytest.raises(InvalidCircuitError, match="inject target 1"):
        run_all_branches(c, zero_state(1))
    with pytest.raises(InvalidCircuitError, match="inject target 1"):
        verify_gate_equivalence(c, cnot, [0], [0, 1])
    with pytest.raises(InvalidCircuitError, match="inject target 1"):
        next(simulator.branch_operators(c, [0], [0, 1]))


def _edge_circuits():
    """(name, circuit, isometry, in_map, out_map): the walk's edge paths."""
    b = CircuitBuilder(3, 2, ["input", "zero", "zero"])
    b.gate("H", [0]).gate("CNOT", [0, 1]).measure(1, 0)
    b.gate("H", [2])                      # qubit 2 first touched after a measurement
    b.gate("CNOT", [2, 0]).cgate([0], [1], "X", [0]).measure(2, 1)
    yield "fresh after a measurement", b.build(), gates.H, (0,), (0,)
    b = CircuitBuilder(2, 1, ["input", "zero"])
    b.measure(1, 0).gate("T", [0])        # qubit 1 never touched: outcome 1 dies
    yield "untouched qubit measured", b.build(), gates.T, (0,), (0,)
    copy = gates.CNOT[:, [0, 2]]
    b = CircuitBuilder(2, 1, ["input", "zero"])
    b.gate("H", [0]).gate("CNOT", [0, 1]).measure(0, 0)
    yield "measured output", b.build(), copy, (0,), (0, 1)
    b = CircuitBuilder(3, 0, ["input", "zero", "inject"])
    b.gate("H", [0])                      # qubits 1 and 2 stay at |0>, outputs anyway
    yield "untouched outputs", b.build(), np.kron(copy, [[1], [0]]), (0,), (1, 0, 2)
    b = CircuitBuilder(2, 2, ["input", "zero"])
    b.gate("H", [1]).gate("CNOT", [1, 0]).measure(1, 0).cgate([0], [1], "X", [0])
    b.inject([SQ2, 1j * SQ2], [1])        # onto the measured qubit, after the repair
    b.gate("CNOT", [1, 0]).measure(1, 1)
    yield "inject after a repair", b.build(), np.eye(2), (0,), (0,)
    b = CircuitBuilder(3, 2, ["input", "input", "zero"])
    b.gate("CNOT", [1, 2]).measure(0, 0).measure(2, 1)
    yield "unsorted maps", b.build(), gates.SWAP, (1, 0), (1, 0)
    b = CircuitBuilder(2, 1, ["input", "zero"])
    b.gate("H", [1]).measure(1, 0).cgate([0, 0], [1, 0], "X", [0])
    yield "a cbit read as 0 and as 1", b.build(), np.eye(2), (0,), (0,)
    b = CircuitBuilder(2, 1, ["input", "zero"])
    b.gate("CNOT", [0, 1]).gate("H", [0]).measure(0, 0)
    b.cgate([0, 0], [1, 1], "Z", [1])     # one-bit Z teleport, its repair read twice
    yield "a cbit read twice alike", b.build(), np.eye(2), (0,), (1,)
    b = CircuitBuilder(4, 3, ["input", "zero", "zero", "zero"])
    for q in (1, 2, 3):
        b.gate("H", [q]).measure(q, q - 1)
    b.cgate([0, 2], [1, 0], "S", [0])     # under cap=1, each stack splits on cbit 2
    b.cgate([0, 1], [1, 1], "T", [0])     # bits every row of a small stack shares
    yield "an early and a late bit", b.build(), np.eye(2), (0,), (0,)
    b = CircuitBuilder(3, 2, ["input", "zero", "zero"])
    b.measure(1, 0)                       # |0>: record "1" dies here
    b.gate("H", [2]).measure(2, 1).cgate([0, 1], [0, 1], "Z", [0])
    yield "a condition beside dead records", b.build(), gates.Z, (0,), (0,)


@pytest.mark.parametrize("name", [case[0] for case in _edge_circuits()])
def test_edge_paths_match_the_depth_first_walk(name, rng):
    """Rows that leave out measured and untouched qubits give the branches
    and the report of the depth-first walk over whole registers, and the
    same bits under any cap."""
    c, u, in_map, out_map = next(case[1:] for case in _edge_circuits() if case[0] == name)
    k = len(c.symbolic_qubits)
    for psi in (random_state(k, rng), basis_state(k, 0), basis_state(k, 2**k - 1)):
        _assert_same_branches(run_all_branches(c, psi), _oracle_branches(c, psi))
    report = verify_gate_equivalence(c, u, in_map, out_map)
    passed, worst, failing, scalars, weights = _oracle_report(c, u, in_map, out_map)
    assert (report.passed, report.failing_branch) == (passed, failing)
    assert abs(report.worst_fidelity - worst) < 1e-12
    assert list(report.branch_weights) == list(weights)
    assert list(report.branch_scalars) == list(scalars)
    for got, want in ((report.branch_weights, weights), (report.branch_scalars, scalars)):
        assert np.max(np.abs(np.subtract(got.values(), list(want.values()))), initial=0) < 1e-12
    small, default = _flat_stacks(c, np.eye(2**k), cap=1), _flat_stacks(c, np.eye(2**k))
    assert [bits for bits, _ in small] == [bits for bits, _ in default]
    for (_, a), (_, b) in zip(small, default):
        assert (a is None and b is None) or np.array_equal(a, b)


def test_rows_that_all_die_before_the_last_op_still_fold():
    """Once every row is dead the walk carries zero rows to the end: the
    stack it yields has rows of the final width, so the fold and the
    listing go through."""
    c = Circuit(2, 1, ("input", "zero"), (_zeroed(GateOp((0,), matrix=gates.H)),
                                          MeasureOp(0, 0), GateOp((1,), name="H")))
    report = verify_gate_equivalence(c, gates.H, [0], [1])
    assert (report.passed, report.worst_fidelity, report.failing_branch) == (False, 0.0, "0")
    assert dict(report.branch_weights.items()) == {"0": 0.0, "1": 0.0}
    assert [b.state for b in run_all_branches(c, zero_state(1))] == [None, None]


def test_the_walk_writes_no_yielded_stack_and_not_the_callers_block():
    """Repairs write the walk's own rows in place: every yielded stack
    still holds, after the walk, what it held when yielded, and a read-only
    block passed in comes back untouched.  The first measurement of an
    input would otherwise leave rows that view the caller's block."""
    rc = recursive.synth_recursive(recursive.controlled_rotation_spec(2, 4), flatten=True)
    b = CircuitBuilder(2, 1, ["input", "input"])
    b.measure(0, 0).cgate([0], [1], "X", [1])
    rng = np.random.default_rng(3)
    for c in (rc.flattened, _dying_circuit(), b.build()):
        k = len(c.symbolic_qubits)
        block = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
        block.flags.writeable = False
        kept = block.copy()
        for cap in (MAX_STACK_AMPLITUDES, 1):
            seen = [(stack, stack.cols.copy()) for stack in simulator._enumerate(c, block, cap)]
            for stack, cols in seen:
                assert np.array_equal(stack.cols, cols)
        assert np.array_equal(block, kept)


def _tampered(c):
    """The circuit with its last classically controlled repair removed."""
    ops = list(c.ops)
    last = max(i for i, op in enumerate(ops) if isinstance(op, GateOp) and op.cond_cbits)
    ops[last] = replace(ops[last], name=None,
                        matrix=np.eye(2 ** len(ops[last].targets), dtype=complex))
    return Circuit(c.n_qubits, c.n_cbits, c.inputs, tuple(ops))


def test_compact_report_matches_the_depth_first_fold():
    rc = recursive.synth_recursive(recursive.controlled_rotation_spec(2, 4), flatten=True)
    assert _measurements(rc.flattened) == 12
    tampered = _tampered(rc.flattened)
    # the phased target gives every branch a general complex coefficient
    for c, u in ((rc.flattened, rc.gate), (tampered, rc.gate),
                 (tampered, np.exp(0.3j) * rc.gate)):
        report = verify_gate_equivalence(c, u, rc.in_map, rc.out_map)
        passed, worst, failing, scalars, weights = _oracle_report(c, u, rc.in_map, rc.out_map)
        assert report.passed == passed
        assert abs(report.worst_fidelity - worst) < 1e-12
        assert report.failing_branch == failing
        assert set(report.branch_weights) == set(weights)
        assert list(report.branch_weights) == list(weights)  # walk order
        assert set(report.branch_scalars) == set(scalars)
        assert len(report.branch_weights) == len(weights) == 2**12
        for bits, w in weights.items():
            assert abs(report.branch_weights[bits] - w) < 1e-12
        for bits, s in scalars.items():
            assert abs(report.branch_scalars[bits] - s) < 1e-12
        assert dict(report.branch_scalars.items()) == scalars  # bit for bit
        assert report.branch_weights.values() == list(weights.values())
    assert not passed and failing is not None  # the tampered runs fail


def test_compact_report_keeps_dead_branches_and_refuses_assignment():
    b = CircuitBuilder(3, 2, ["input", "zero", "zero"])
    b.measure(1, 0)                      # |0>: branch "1" dies here
    b.gate("H", [2]).measure(2, 1)
    b.gate("H", [0]).gate("H", [0])
    report = verify_gate_equivalence(b.build(), np.eye(2), [0], [0])
    weights, scalars = report.branch_weights, report.branch_scalars
    assert list(weights) == ["00", "01", "1"] and set(scalars) == {"00", "01"}
    assert weights["1"] == 0.0 and weights.get("1") == 0.0
    assert "1" in weights and "1" not in scalars and "0" not in weights
    for key in ("", "10", "001", "2", "0b1", " 1", 1, None):
        assert weights.get(key) is None
    assert weights.get("0", -1.0) == -1.0
    assert weights.values() == [weights[k] for k in weights]
    assert [k for k, _ in weights.items()] == ["00", "01", "1"]
    assert weights["00"] == pytest.approx(0.5) and weights["01"] == pytest.approx(0.5)
    with pytest.raises(KeyError):
        weights["11"]
    with pytest.raises(TypeError):
        weights["00"] = 1.0
    with pytest.raises(TypeError):
        scalars["00"] = 1.0
    with pytest.raises(TypeError):
        del weights["00"]


def test_compact_report_holds_no_bitstring_keys():
    """4,096 branches: the report holds arrays (about 120 KB traced), not
    two dicts keyed by 4,096 bitstrings each (about 730 KB)."""
    import tracemalloc
    rc = recursive.synth_recursive(recursive.controlled_rotation_spec(2, 4), flatten=True)
    tracemalloc.start()
    try:
        report = verify_gate_equivalence(rc.flattened, rc.gate, rc.in_map, rc.out_map)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.passed and len(report.branch_weights) == 2**12
    assert held < 250_000, held


# ---------------------------------------------------------------------------
# states through the fold: a preparation is a 0-input isometry


def _oracle_worst_fidelity(branches, want, register=None):
    """The branch-by-branch state score the fold replaced, kept verbatim: the
    lowest fidelity against `want` over the live branches (1.0 when none is
    live), read off `register` when given, else the whole state."""
    worst = 1.0
    for br in branches:
        if br.state is not None:
            got = br.state if register is None else extract_register_state(br, register)
            worst = min(worst, equivalent_up_to_phase(want, got)[1])
    return worst


def _assert_fold_matches_the_oracle(passed, worst, branches, want, register=None):
    oracle = _oracle_worst_fidelity(branches, want, register)
    assert passed == (oracle >= 1.0 - VERIFY_TOL)
    assert abs(worst - oracle) < 1e-12, (worst, oracle)


def test_script_verdict_matches_the_branch_by_branch_score():
    """Every T/CS/TOFFOLI script: the full one, each shortcut, and CS from a
    random initial state."""
    from test_ancilla import _every_script
    for script in _every_script(np.random.default_rng(5)):
        passed, worst = ancilla.verify_script(script)
        _assert_fold_matches_the_oracle(passed, worst, ancilla.run_script(script),
                                        script.expected_final)


def test_preparation_verdict_matches_the_branch_by_branch_score():
    specs = (recursive.matrix_spec(gates.T, "T"), recursive.rotation_spec(4),
             recursive.rotation_spec(5), recursive.controlled_rotation_spec(1, 3),
             recursive.controlled_rotation_spec(1, 4), recursive.controlled_rotation_spec(2, 3))
    for spec in specs:
        prep = recursive.recursive_ancilla_prep(spec)
        passed, worst = recursive.verify_preparation(prep)
        _assert_fold_matches_the_oracle(passed, worst, run_all_branches(prep.circuit),
                                        prep.target, prep.register)


def test_fold_skips_dead_branches_and_reads_the_register():
    """The dying circuit with qubit 0 prepared as |+> and kept as the one
    output: branches die at three depths, and each live one leaves |+> on
    qubit 0 next to three measured qubits."""
    dying = _dying_circuit()
    c = Circuit(4, 4, ("zero",) * 4, (GateOp((0,), name="H"),) + dying.ops)
    branches = run_all_branches(c)
    assert any(br.state is None for br in branches)
    for want, fidelity in ((state_from([SQ2, SQ2]), 1.0), (zero_state(1), SQ2)):
        report = verify_gate_equivalence(c, want.amplitudes[:, None], (), (0,))
        assert report.worst_fidelity == pytest.approx(fidelity)
        assert len(report.branch_weights) == len(branches)
        _assert_fold_matches_the_oracle(report.passed, report.worst_fidelity, branches,
                                        want, (0,))
    assert not report.passed and report.failing_branch is not None


def _zeroed(op):
    """The op with its frozen matrix swapped for zeros, which no public
    path can build: an op certifies its matrix unitary."""
    object.__setattr__(op, "matrix", np.zeros_like(op.matrix))
    return op


def test_a_fold_with_no_scored_branch_fails():
    """Every branch dead is no pass: worst fidelity 0, the first branch
    named, whether the lone branch ends with zero norm or every branch dies
    at a measurement.  The same circuit left intact reports as the
    depth-first fold does."""
    intact = Circuit(1, 0, ("input",), (GateOp((0,), matrix=gates.H),))
    report = verify_gate_equivalence(intact, gates.H, [0], [0])
    passed, worst, failing, scalars, weights = _oracle_report(intact, gates.H, [0], [0])
    assert (report.passed, report.worst_fidelity, report.failing_branch) == (
        passed, worst, failing)
    assert report.passed and report.worst_fidelity > 1.0 - 1e-12
    assert dict(report.branch_scalars.items()) == scalars
    assert dict(report.branch_weights.items()) == weights
    alone = Circuit(1, 0, ("input",), (_zeroed(GateOp((0,), matrix=gates.H)),))
    report = verify_gate_equivalence(alone, gates.H, [0], [0])
    assert (report.passed, report.worst_fidelity, report.failing_branch) == (False, 0.0, "")
    assert dict(report.branch_weights.items()) == {"": 0.0}
    assert len(report.branch_scalars) == 0
    measured = Circuit(2, 1, ("input", "zero"),
                       (_zeroed(GateOp((0,), matrix=gates.H)), MeasureOp(0, 0)))
    report = verify_gate_equivalence(measured, np.eye(2), [0], [1])
    assert (report.passed, report.worst_fidelity, report.failing_branch) == (False, 0.0, "0")
    assert dict(report.branch_weights.items()) == {"0": 0.0, "1": 0.0}
    assert len(report.branch_scalars) == 0


def test_a_target_must_be_a_finite_isometry():
    """A target that gains or loses probability, or holds a NaN, is refused
    before any branch runs: 2·I used to pass with weight 2 on each branch."""
    gate = build_one_bit_teleport("X", 1)
    nan_entry = np.eye(2, dtype=complex)
    nan_entry[1, 1] = np.nan
    for bad in (2 * np.eye(2), nan_entry, np.diag([1.0, np.inf]), np.zeros((2, 2))):
        with pytest.raises(ValidationError, match="not a finite isometry"):
            verify_gate_equivalence(gate, bad, [0], [1])
    state = Circuit(4, 4, ("zero",) * 4, _dying_circuit().ops)
    for bad in (np.array([[1.0], [1.0]]), np.array([[np.nan], [0.0]])):
        with pytest.raises(ValidationError, match="not a finite isometry"):
            verify_gate_equivalence(state, bad, (), (0,))
    with pytest.raises(DimensionMismatch, match="matrix shape"):
        verify_gate_equivalence(state, np.array([1.0, 0.0]), (), (0,))
