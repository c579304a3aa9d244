"""Clifford frames: recognition, conjugation images read from the frame's
matrix against the dense oracle, products of frames, and immutability."""

import dataclasses
import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from telegate import gates
from telegate.clifford import clifford_from_matrix, tableau_from_gate
from telegate.errors import ClassificationError, ValidationError
from telegate.pauli import (PauliOperator, pauli_from_matrix, pauli_to_matrix,
                            single)

from conjugation_oracle import loop_is_clifford, verdict_sweep

CLIFFORD_1Q = ("I", "X", "Y", "Z", "H", "S", "S†", "Q", "Q†")
CLIFFORD_2Q = ("CNOT", "CZ", "SWAP")
NON_CLIFFORD = ("T", "T†", "CS", "CS†", "CH", "TOFFOLI")

INVERSES = {"I": "I", "X": "X", "Y": "Y", "Z": "Z", "H": "H", "S": "S†",
            "S†": "S", "Q": "Q†", "Q†": "Q", "CNOT": "CNOT", "CZ": "CZ",
            "SWAP": "SWAP"}


def all_phase_free(n):
    for bits in itertools.product((0, 1), repeat=2 * n):
        yield PauliOperator(n, bits[:n], bits[n:], 0)


def dense_image(g_matrix, p):
    return g_matrix @ pauli_to_matrix(p) @ g_matrix.conj().T


def image(frame, p):
    """frame·p·frame† as an exact Pauli, read from the frame's matrix."""
    c, bare, strict = pauli_from_matrix(dense_image(frame.matrix, p))
    assert strict
    k = int(round(np.angle(c) / (np.pi / 2))) % 4
    return PauliOperator(bare.n, bare.x_bits, bare.z_bits, k)


def product(*names):
    return clifford_from_matrix(reduce(np.matmul, map(gates.matrix_of, names)))


def test_hadamard_tableau():
    t = tableau_from_gate("H")
    assert (t.n, t.name) == (1, "H")
    assert image(t, single(1, 0, "X")) == single(1, 0, "Z")
    assert image(t, single(1, 0, "Z")) == single(1, 0, "X")


def test_s_tableau():
    t = tableau_from_gate("S")
    assert image(t, single(1, 0, "X")) == single(1, 0, "Y")
    assert image(t, single(1, 0, "Z")) == single(1, 0, "Z")


def test_cnot_tableau_against_dense_oracle():
    t = tableau_from_gate("CNOT")
    assert np.array_equal(t.matrix, gates.CNOT)
    assert image(t, single(2, 0, "X")) == PauliOperator(2, (1, 1), (0, 0), 0)  # X0 -> XX
    assert image(t, single(2, 1, "Z")) == PauliOperator(2, (0, 0), (1, 1), 0)  # Z1 -> ZZ


def test_non_clifford_names_rejected():
    for name in ("T", "CS", "TOFFOLI"):
        with pytest.raises(ClassificationError):
            tableau_from_gate(name)


def test_tableau_from_gate_certifies_exactly_the_library_cliffords():
    cliffords = {"I", "X", "Y", "Z", "H", "S", "S†", "Q", "Q†", "CNOT", "CZ", "SWAP"}
    for name in gates.GATE_NAMES:
        if name in cliffords:
            frame = tableau_from_gate(name)
            assert (frame.n, frame.name) == (gates.arity_of(name), name)
            assert np.array_equal(frame.matrix, gates.matrix_of(name))
            assert not frame.matrix.flags.writeable
        else:
            with pytest.raises(ClassificationError,
                               match=f"^gate '{name}' is not a Clifford gate$"):
                tableau_from_gate(name)
    assert set(gates.GATE_NAMES) - cliffords == set(NON_CLIFFORD)
    assert tableau_from_gate("sdg").name == "S†"


def test_conjugation_matches_dense_for_whole_library():
    for name in CLIFFORD_1Q + CLIFFORD_2Q:
        t = tableau_from_gate(name)
        m = gates.matrix_of(name)
        for p in all_phase_free(t.n):
            got = pauli_to_matrix(image(t, p))
            assert np.max(np.abs(got - dense_image(m, p))) < 1e-10, (name, p)


def test_conjugate_examples():
    assert image(tableau_from_gate("H"), single(1, 0, "X")) == single(1, 0, "Z")
    assert image(tableau_from_gate("S"), single(1, 0, "Z")) == single(1, 0, "Z")
    z0 = single(2, 0, "Z")
    assert image(tableau_from_gate("CNOT"), z0) == z0


def test_compose_examples():
    x, z = single(1, 0, "X"), single(1, 0, "Z")
    hh = product("H", "H")
    assert image(hh, x) == x and image(hh, z) == z
    ss = product("S", "S")
    assert [image(ss, p) for p in (x, z)] == [image(tableau_from_gate("Z"), p) for p in (x, z)]
    # the two orders differ: H·S maps X to -Y, S·H maps it to Z
    assert image(product("H", "S"), x) == PauliOperator(1, (1,), (1,), 3)
    assert image(product("S", "H"), x) == z


def test_compose_associative(rng):
    names = CLIFFORD_1Q
    for _ in range(50):
        a, b, c = (gates.matrix_of(names[int(i)]) for i in rng.integers(0, len(names), 3))
        left, right = clifford_from_matrix((a @ b) @ c), clifford_from_matrix(a @ (b @ c))
        for p in all_phase_free(1):
            assert image(left, p) == image(right, p)


def test_compose_with_inverse_is_identity():
    for name, inv in INVERSES.items():
        t = product(name, inv)
        for i in range(t.n):
            for letter in "XZ":
                assert image(t, single(t.n, i, letter)) == single(t.n, i, letter), name


def test_from_matrix_accepts_exactly_the_clifford_subset(rng):
    for name in gates.GATE_NAMES:
        tab = clifford_from_matrix(gates.matrix_of(name))
        if name in CLIFFORD_1Q + CLIFFORD_2Q:
            assert tab is not None, name
        else:
            assert tab is None, name
    # composite Cliffords: random H/S/CNOT words on two qubits, with a random
    # global phase, are accepted; the same word after T on qubit 0 is not
    letters = (gates.kron(gates.H, gates.I2), gates.kron(gates.I2, gates.H),
               gates.kron(gates.S, gates.I2), gates.kron(gates.I2, gates.S),
               gates.CNOT, gates.SWAP @ gates.CNOT @ gates.SWAP)
    t0 = gates.kron(gates.T, gates.I2)
    for _ in range(50):
        word = np.eye(4, dtype=complex)
        for i in rng.integers(0, len(letters), int(rng.integers(1, 13))):
            word = letters[int(i)] @ word
        word = np.exp(2j * np.pi * rng.random()) * word
        assert clifford_from_matrix(word) is not None
        assert clifford_from_matrix(word @ t0) is None


def test_from_matrix_rejects_non_unitary():
    with pytest.raises(ValidationError):
        clifford_from_matrix(np.array([[1, 1], [0, 1]], dtype=complex))


def test_global_phase_ignored():
    phased = np.exp(0.377j) * gates.CNOT
    tab = clifford_from_matrix(phased)
    assert tab is not None and tab.n == 2
    assert np.array_equal(tab.matrix, phased)


def test_tableau_invariants_enforced():
    t = tableau_from_gate("H")
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.matrix = gates.S
    with pytest.raises(ValueError):
        t.matrix[0, 0] = 5
    # identity equality: frames of different Cliffords are never equal
    assert t != tableau_from_gate("S") and t == t


def test_frame_does_not_alias_the_callers_matrix():
    u = gates.CNOT.copy()
    frame = clifford_from_matrix(u)
    u[0, 0] = 5
    assert np.array_equal(frame.matrix, gates.CNOT)
    assert not frame.matrix.flags.writeable


# --- the batched certification against the per-generator loop -----------------

def test_verdicts_match_the_per_generator_loop(rng):
    sweep = verdict_sweep(rng)
    verdicts = [clifford_from_matrix(u) is not None for u in sweep]
    assert verdicts == [loop_is_clifford(u) for u in sweep]
    assert 0 < sum(verdicts) < len(sweep)


def test_seven_qubit_certification_builds_no_generator_stack():
    n = 7
    u = gates.kron(*[gates.H] * n)
    for q in range(n - 1):
        u = gates.embed(gates.CNOT, (q, q + 1), n) @ u
    u = gates.embed(gates.S, (3,), n) @ u
    tracemalloc.start()
    try:
        frame = clifford_from_matrix(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame is not None
    # the 2n dense generators (or their 2n images) would take 2n·4^n·16 bytes,
    # 3.7 MB; one chunk's working set is a few 4^n-entry arrays
    assert peak < n * 4**n * 16
