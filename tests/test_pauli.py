"""Pauli operators: recognition of dense products, matrix round-trips, literals."""

import itertools
from functools import reduce

import numpy as np
import pytest

from telegate import gates, pauli
from telegate.errors import DimensionMismatch, ValidationError
from telegate.pauli import (PauliOperator, format_literal, pauli_from_matrix,
                            pauli_to_matrix, single)


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
    assert pauli_to_matrix(PauliOperator(2, (1, 0), (1, 1), 3)) is m
    with pytest.raises(ValueError):
        m[0, 0] = 5.0
    assert m.tobytes() == _kron_chain(p).tobytes()


def test_wide_matrices_are_read_only_and_not_retained():
    p = PauliOperator(5, (1, 0, 1, 0, 1), (0, 1, 1, 0, 0), 1)
    held = pauli._memoized_matrix.cache_info().currsize
    m = pauli_to_matrix(p)
    assert pauli._memoized_matrix.cache_info().currsize == held
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 5.0
    assert m.tobytes() == _kron_chain(p).tobytes()
    assert pauli_to_matrix(p) is not m


def test_bits_are_stored_as_int_tuples_and_checked():
    p = PauliOperator(2, [1, 0], np.array([0, 1]))
    assert p.x_bits == (1, 0) and p.z_bits == (0, 1)
    assert all(type(b) is int for b in p.x_bits + p.z_bits)
    assert pauli_to_matrix(p) is pauli_to_matrix(PauliOperator(2, (1, 0), (0, 1)))
    for x_bits, z_bits in (((2,), (0,)), ((0,), (-1,)), ((0.5,), (0,))):
        with pytest.raises(ValidationError, match="must be 0 or 1"):
            PauliOperator(1, x_bits, z_bits)
    q = PauliOperator(1, (1,), (0,), np.int64(5))
    assert q.phase_quarters == 1 and type(q.phase_quarters) is int
    with pytest.raises(ValidationError, match="must be an integer"):
        PauliOperator(1, (1,), (0,), 1.0)
