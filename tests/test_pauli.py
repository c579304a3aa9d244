"""Pauli operators: recognition of dense products, matrix round-trips, literals."""

import itertools
import warnings
from functools import reduce

import numpy as np
import pytest

from telegate import gates, pauli
from telegate.errors import DimensionMismatch, ValidationError
from telegate.limits import MAX_STACK_AMPLITUDES, TOL
from telegate.pauli import (PauliOperator, conjugated_generators, format_literal,
                            pauli_from_matrix, pauli_to_matrix, single, strict_paulis)

from conjugation_oracle import clifford_word, dense_images, scalar_pauli_from_matrix


def all_phase_free(n):
    for bits in itertools.product((0, 1), repeat=2 * n):
        yield PauliOperator(n, bits[:n], bits[n:], 0)


def random_pauli(rng, n):
    return PauliOperator(
        n,
        tuple(int(b) for b in rng.integers(0, 2, n)),
        tuple(int(b) for b in rng.integers(0, 2, n)),
        int(rng.integers(0, 4)),
    )


def mul(p, q):
    """The Pauli p·q, recognized from the dense product with its exact phase."""
    c, bare, strict = pauli_from_matrix(pauli_to_matrix(p) @ pauli_to_matrix(q))
    assert strict
    k = int(round(np.angle(c) / (np.pi / 2))) % 4
    return PauliOperator(bare.n, bare.x_bits, bare.z_bits, k)


def test_mul_identity_case():
    x = single(1, 0, "X")
    assert mul(x, x) == PauliOperator(1, (0,), (0,), 0)


def test_mul_x_z_gives_minus_i_y():
    product = mul(single(1, 0, "X"), single(1, 0, "Z"))
    assert np.allclose(pauli_to_matrix(product), -1j * gates.Y)
    assert format_literal(product) == "-iY"


def test_mul_disjoint_supports():
    p = PauliOperator(2, (1, 0), (0, 0))
    q = PauliOperator(2, (0, 0), (0, 1))
    assert format_literal(mul(p, q)) == "+XZ"


def test_mul_width_mismatch():
    with pytest.raises(DimensionMismatch):
        PauliOperator(2, (1,), (0, 0))


def test_pauli_from_matrix_refuses_a_non_square_matrix():
    with pytest.raises(ValidationError, match="^matrix must be square$"):
        pauli_from_matrix(np.eye(2, 4))


def test_mul_matches_dense_product(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p, q = random_pauli(rng, n), random_pauli(rng, n)
        got = pauli_to_matrix(mul(p, q))
        want = pauli_to_matrix(p) @ pauli_to_matrix(q)
        assert np.max(np.abs(got - want)) < 1e-12


def test_square_is_plus_or_minus_identity(rng):
    for _ in range(100):
        p = random_pauli(rng, int(rng.integers(1, 5)))
        square = mul(p, p)
        assert square.phase_quarters % 2 == 0
        assert not any(square.x_bits) and not any(square.z_bits)


def test_to_matrix_examples():
    assert np.allclose(pauli_to_matrix(PauliOperator(1, (0,), (0,))), np.eye(2))
    assert np.allclose(pauli_to_matrix(single(1, 0, "Z")), np.diag([1, -1]))
    minus_i_y = PauliOperator(1, (1,), (1,), 0)  # XZ = -iY
    assert np.allclose(pauli_to_matrix(minus_i_y), [[0, -1], [1, 0]])
    assert format_literal(minus_i_y) == "-iY"


def test_from_matrix_y():
    c, bare, strict = pauli_from_matrix(gates.Y)
    assert abs(c - 1j) < 1e-12
    assert bare == PauliOperator(1, (1,), (1,), 0)
    assert strict


def test_from_matrix_rejects_hadamard():
    assert pauli_from_matrix(gates.H) is None


def test_from_matrix_scaled_x():
    # oracle: fit the scalar entrywise against the known X pattern
    scalar = np.exp(1j * np.pi / 4)
    m = scalar * gates.X
    fit = m[1, 0]  # X has a 1 there, so the entry is the scalar itself
    assert abs(fit - scalar) < 1e-15
    c, bare, strict = pauli_from_matrix(m)
    assert abs(c - fit) < 1e-12
    assert bare == PauliOperator(1, (1,), (0,), 0)
    assert not strict  # e^{i pi/4} is not one of {1, i, -1, -i}


def test_matrix_round_trip_exhaustive():
    for n in (1, 2, 3):
        for p in all_phase_free(n):
            c, bare, strict = pauli_from_matrix(pauli_to_matrix(p))
            assert strict and abs(c - 1.0) < 1e-12
            assert bare == p


def test_literal_round_trip():
    # each Y carries one factor of i of the stored phase
    for text, p in (("+XZI", PauliOperator(3, (1, 0, 0), (0, 1, 0), 0)),
                    ("-iYXI", PauliOperator(3, (1, 1, 0), (1, 0, 0), 0)),
                    ("+iYY", PauliOperator(2, (1, 1), (1, 1), 3)),
                    ("-Z", PauliOperator(1, (0,), (1,), 2)),
                    ("+IIX", PauliOperator(3, (0, 0, 1), (0, 0, 0), 0))):
        assert format_literal(p) == text


def test_literal_matches_matrix(rng):
    # oracle: the printed phase times the Kronecker product of the letters
    prefixes = {"+": 1, "+i": 1j, "-": -1, "-i": -1j}
    for _ in range(50):
        p = random_pauli(rng, int(rng.integers(1, 4)))
        text = format_literal(p)
        body = text.lstrip("+-i")
        want = prefixes[text[:len(text) - len(body)]] * gates.kron(
            *(gates.matrix_of(letter) for letter in body))
        assert np.max(np.abs(pauli_to_matrix(p) - want)) < 1e-12


# --- the memo against the kron chain it replaces ------------------------------

def _kron_chain(p):
    """A fresh construction, step for step the one the memo wraps, so the
    bytes (signed zeros included) must match."""
    factors = []
    for x, z in zip(p.x_bits, p.z_bits):
        f = np.eye(2, dtype=complex)
        if z:
            f = gates.Z @ f
        if x:
            f = gates.X @ f
        factors.append(f)
    return (1j ** p.phase_quarters) * reduce(np.kron, factors, np.array([[1.0 + 0j]]))


def test_memoized_matrices_are_the_kron_chain_byte_for_byte():
    count = 0
    for n in (1, 2, 3, 4):
        for bare in all_phase_free(n):
            for phase in range(4):
                p = PauliOperator(n, bare.x_bits, bare.z_bits, phase)
                got, want = pauli_to_matrix(p), _kron_chain(p)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), format_literal(p)
                count += 1
    assert count == 1360


def test_matrices_are_read_only_and_shared():
    p = PauliOperator(2, (1, 0), (1, 1), 3)
    m = pauli_to_matrix(p)
    with pytest.raises(ValueError):
        m[0, 0] = 5.0
    assert m.tobytes() == _kron_chain(p).tobytes()


def test_wide_matrices_are_read_only_and_not_retained():
    p = PauliOperator(5, (1, 0, 1, 0, 1), (0, 1, 1, 0, 0), 1)
    m = pauli_to_matrix(p)
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 5.0
    assert m.tobytes() == _kron_chain(p).tobytes()


def test_bits_are_stored_as_int_tuples_and_checked():
    p = PauliOperator(2, [1, 0], np.array([0, 1]))
    assert p.x_bits == (1, 0) and p.z_bits == (0, 1)
    assert all(type(b) is int for b in p.x_bits + p.z_bits)
    assert p == PauliOperator(2, (1, 0), (0, 1))
    assert hash(p) == hash(PauliOperator(2, (1, 0), (0, 1)))
    for x_bits, z_bits in (((2,), (0,)), ((0,), (-1,)), ((0.5,), (0,))):
        with pytest.raises(ValidationError, match="must be 0 or 1"):
            PauliOperator(1, x_bits, z_bits)
    q = PauliOperator(1, (1,), (0,), np.int64(5))
    assert q.phase_quarters == 1 and type(q.phase_quarters) is int
    with pytest.raises(ValidationError, match="must be an integer"):
        PauliOperator(1, (1,), (0,), 1.0)


# --- the batched route against the per-image one it replaces -------------------

def _haar(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _image_corpus(rng):
    """118 unitaries of 1 to 5 qubits: the library, H and T on every qubit,
    Clifford words and Haar-random unitaries."""
    corpus = [gates.matrix_of(name) for name in gates.GATE_NAMES]
    for n in range(1, 6):
        corpus += [gates.kron(*[gates.H] * n), gates.kron(*[gates.T] * n)]
        corpus += [clifford_word(rng, n) for _ in range(6)]
        corpus += [_haar(rng, 2**n) for _ in range(12)]
    return corpus


def _bytes(images):
    """The images' bytes with every -0.0 made +0.0: a zero's sign is the one
    bit a gather and BLAS's product may set differently, and no test reads it."""
    return (np.asarray(images) + 0.0).tobytes()


def test_batched_images_are_the_dense_products_byte_for_byte(rng):
    corpus = _image_corpus(rng)
    assert len(corpus) == 118
    for u in corpus:
        got = np.concatenate(list(conjugated_generators(u)))
        assert _bytes(got) == _bytes(dense_images(u))
    stack = np.array([_haar(rng, 8) for _ in range(9)])
    got = np.concatenate(list(conjugated_generators(stack)))
    assert _bytes(got) == _bytes([dense_images(u) for u in stack])


@pytest.mark.parametrize("cap", [1, 64, 100, 6 * 64, MAX_STACK_AMPLITUDES])
def test_image_chunks_hold_at_most_the_stack_cap(rng, monkeypatch, cap):
    stack = np.array([_haar(rng, 8) for _ in range(5)])
    want = np.concatenate([dense_images(u) for u in stack])
    monkeypatch.setattr(pauli, "MAX_STACK_AMPLITUDES", cap)
    chunks = list(conjugated_generators(stack))
    assert all(chunk.size <= max(cap, 64) for chunk in chunks)
    assert _bytes(np.concatenate(chunks)) == _bytes(want)


def test_recognition_matches_the_scalar_rule(rng):
    strict_count = total = 0
    for n in (1, 2, 3):
        cases = []
        for p in all_phase_free(n):
            for scalar in (1, 1j, -1, np.exp(0.3j)):
                for eps in (0, 0.5 * TOL, TOL, 2 * TOL):
                    m = scalar * np.array(pauli_to_matrix(p))
                    m[rng.integers(2**n), rng.integers(2**n)] += eps * np.exp(2j * rng.random())
                    cases.append(m)
        cases += [gates.kron(*[gates.H] * n), gates.kron(*[gates.T] * n), 2 * cases[0],
                  np.zeros((2**n, 2**n))]
        strict = strict_paulis(np.array(cases))
        for i, m in enumerate(cases):
            want, got = scalar_pauli_from_matrix(m), pauli_from_matrix(m)
            assert (want is None) == (got is None), (n, i)
            if want is not None:
                assert got[0] == want[0] and got[1:] == want[1:], (n, i)
            assert strict[i] == (want is not None and want[2]), (n, i)
        strict_count, total = strict_count + strict.sum(), total + len(cases)
    assert 0 < strict_count < total


def test_nan_or_infinite_entries_are_never_a_pauli():
    off_support = np.eye(4, dtype=complex)
    off_support[0, 3] = np.nan  # the scalar rule's `> tol` passed this as +II
    in_column_0 = np.eye(4, dtype=complex)
    in_column_0[1, 0] = np.nan
    infinite = np.array(gates.X)
    infinite[0, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (off_support, in_column_0, infinite):
            assert pauli_from_matrix(m) is None
        assert not strict_paulis(np.array([off_support, in_column_0])).any()


def test_a_zero_qubit_matrix_has_no_images_and_is_a_pauli():
    """A 1x1 unitary has no generators: one empty chunk of images, and the
    recognizer reads it as c times the empty Pauli."""
    chunks = list(conjugated_generators(np.eye(1)))
    assert [chunk.shape for chunk in chunks] == [(0, 1, 1)]
    assert pauli_from_matrix(np.array([[1j]])) == (1j, PauliOperator(0, (), ()), True)
    assert strict_paulis(np.array([[[1]], [[0.6 + 0.8j]], [[2]]])).tolist() == [True, False, False]
