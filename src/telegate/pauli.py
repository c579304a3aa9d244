"""n-qubit Pauli operators: their matrices, recognition and literals.

A PauliOperator stores per-qubit X and Z exponents plus a quarter-turn
phase: the operator is  i**phase_quarters * (X^x0 Z^z0) (x) ... (x)
(X^x{n-1} Z^z{n-1}).  The letter Y corresponds to (x, z) = (1, 1) with an
extra factor of i (Y = i X Z), which the literal formatter folds into the
printed phase prefix.  `pauli_from_matrix` recognizes a dense matrix as a
scaled Pauli; that test is what certifies corrections and Clifford frames.

Qubit 0 is the leftmost tensor factor and the most significant bit of a
basis index.  All values are immutable, matrices included: every array
`pauli_to_matrix` returns is read-only, and one of at most MAX_PLAN_WIDTH
qubits is memoized, so every caller asking for that Pauli shares one array.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from numbers import Integral

import numpy as np

from . import gates
from .errors import DimensionMismatch, ValidationError
from .limits import MAX_PLAN_WIDTH, TOL, check_width, width_of

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}
_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


@dataclass(frozen=True)
class PauliOperator:
    """i**phase_quarters times a tensor product of X^x Z^z factors."""

    n: int
    x_bits: tuple[int, ...]
    z_bits: tuple[int, ...]
    phase_quarters: int = 0

    def __post_init__(self):
        if len(self.x_bits) != self.n or len(self.z_bits) != self.n:
            raise DimensionMismatch("bit-vector lengths must equal qubit count")
        for name in ("x_bits", "z_bits"):
            bits = getattr(self, name)
            if any(b not in (0, 1) for b in bits):
                raise ValidationError(f"{name} must be 0 or 1, got {tuple(bits)}")
            object.__setattr__(self, name, tuple(int(b) for b in bits))
        if not isinstance(self.phase_quarters, Integral):
            raise ValidationError(
                f"phase_quarters must be an integer, got {self.phase_quarters!r}")
        object.__setattr__(self, "phase_quarters", int(self.phase_quarters) % 4)


def single(n: int, qubit: int, letter: str) -> PauliOperator:
    """Embed a single-qubit Pauli letter at the given position."""
    x, z = _LETTER_TO_BITS[letter.upper()]
    xs, zs = [0] * n, [0] * n
    xs[qubit], zs[qubit] = x, z
    phase = 1 if letter.upper() == "Y" else 0
    return PauliOperator(n, tuple(xs), tuple(zs), phase)


def pauli_to_matrix(p: PauliOperator) -> np.ndarray:
    """Exact dense matrix, qubit 0 as the leftmost tensor factor.

    The result is read-only.  For p on at most MAX_PLAN_WIDTH qubits it is
    memoized and shared by every caller; copy it before writing.  A wider
    Pauli (4^n entries) is built afresh on each call and not retained."""
    check_width(p.n)
    if p.n <= MAX_PLAN_WIDTH:
        return _memoized_matrix(p.x_bits, p.z_bits, p.phase_quarters)
    return _build_matrix(p.x_bits, p.z_bits, p.phase_quarters)


def _build_matrix(x_bits, z_bits, phase_quarters) -> np.ndarray:
    factors = []
    for x, z in zip(x_bits, z_bits):
        f = np.eye(2, dtype=complex)
        if z:
            f = gates.Z @ f
        if x:
            f = gates.X @ f  # X applied after Z: matrix X^x Z^z
        factors.append(f)
    m = (1j ** phase_quarters) * reduce(np.kron, factors, np.array([[1.0 + 0j]]))
    m.flags.writeable = False
    return m


# 4^MAX_PLAN_WIDTH entries of 16 bytes: at most 4 KB a matrix, 512 KB in all.
_memoized_matrix = lru_cache(maxsize=128)(_build_matrix)


def x_matrix(bits) -> np.ndarray:
    """The matrix of X on every qubit whose bit is set."""
    return pauli_to_matrix(PauliOperator(len(bits), tuple(bits), (0,) * len(bits)))


def pauli_from_matrix(
    m: np.ndarray, tol: float = TOL
) -> tuple[complex, PauliOperator, bool] | None:
    """Recognize m = c·P for a unit-modulus scalar c and phase-free Pauli P.

    Returns (c, P, strict) where strict is True iff c is one of {1, i, -1, -i}
    within tol, or None when m is not a scaled Pauli.  The phase of m is
    folded entirely into c; the returned P has phase_quarters == 0.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("matrix must be square")
    n = width_of(m.shape[0])

    # Column 0 of a scaled Pauli has its single nonzero at the row index given
    # by the X bit-vector; signs on the weight-one columns give the Z bits.
    col0 = m[:, 0]
    row = int(np.argmax(np.abs(col0)))
    c = complex(col0[row])
    if abs(abs(c) - 1.0) > tol:
        return None
    x_bits = tuple((row >> (n - 1 - qubit)) & 1 for qubit in range(n))

    z_bits = []
    for qubit in range(n):
        col = 1 << (n - 1 - qubit)
        ratio = m[row ^ col, col] / c
        if abs(ratio - 1.0) <= 0.5:
            z_bits.append(0)
        elif abs(ratio + 1.0) <= 0.5:
            z_bits.append(1)
        else:
            return None
    candidate = PauliOperator(n, x_bits, tuple(z_bits), 0)
    if np.max(np.abs(m - c * pauli_to_matrix(candidate))) > tol:
        return None
    strict = any(abs(c - 1j**k) <= tol for k in range(4))
    return c, candidate, strict


def format_literal(p: PauliOperator) -> str:
    """Render as e.g. '+XZI' or '-iYXI' (each Y absorbs one factor of i)."""
    letters = []
    y_count = 0
    for x, z in zip(p.x_bits, p.z_bits):
        letter = _BITS_TO_LETTER[(x, z)]
        if letter == "Y":
            y_count += 1
        letters.append(letter)
    prefix = _PHASE_PREFIX[(p.phase_quarters - y_count) % 4]
    return prefix + "".join(letters)
