"""n-qubit Pauli operators: their matrices, recognition and literals.

A PauliOperator stores per-qubit X and Z exponents plus a quarter-turn
phase: the operator is  i**phase_quarters * (X^x0 Z^z0) (x) ... (x)
(X^x{n-1} Z^z{n-1}).  The letter Y corresponds to (x, z) = (1, 1) with an
extra factor of i (Y = i X Z), which the literal formatter folds into the
printed phase prefix.  One rule recognizes a dense matrix as a scaled
Pauli: `strict_paulis` applies it to a stack of matrices at once and
`pauli_from_matrix` to one.  It certifies corrections, and, on the images
`conjugated_generators` makes, Clifford frames and hierarchy levels; the
synthesis and recursion repairs are those images too, and a product with
an X string is a column gather, so no caller multiplies by a dense Pauli.

Qubit 0 is the leftmost tensor factor and the most significant bit of a
basis index.  All values are immutable, matrices included: every array
`pauli_to_matrix` returns is read-only.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache, reduce
from numbers import Integral

import numpy as np

from . import gates
from .errors import DimensionMismatch, ValidationError
from .limits import MAX_STACK_AMPLITUDES, TOL, check_tolerance, check_width, width_of

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
    """Exact dense matrix, qubit 0 as the leftmost tensor factor, built
    afresh on each call and returned read-only."""
    check_width(p.n)
    factors = []
    for x, z in zip(p.x_bits, p.z_bits):
        f = np.eye(2, dtype=complex)
        if z:
            f = gates.Z @ f
        if x:
            f = gates.X @ f  # X applied after Z: matrix X^x Z^z
        factors.append(f)
    m = (1j ** p.phase_quarters) * reduce(np.kron, factors, np.array([[1.0 + 0j]]))
    m.flags.writeable = False
    return m


def conjugated_generators(us: np.ndarray) -> Iterator[np.ndarray]:
    """u·P·u† for P = X_0, Z_0, X_1, Z_1, ... and each u of a (K, d, d) stack
    or one (d, d) matrix, in that order, as (k, d, d) chunks of at most
    MAX_STACK_AMPLITUDES amplitudes (one image if it alone exceeds that, one
    empty chunk for 1×1).  u·P is a column gather with a sign flip, so no
    generator matrix is built, and each image equals u @ P @ u† entry for
    entry, a zero's sign aside."""
    us = np.asarray(us, dtype=complex)
    d = us.shape[-1]
    n = width_of(d)
    generators = max(1, 2 * n)  # zero qubits have none, and yield one empty chunk
    us = us.reshape(-1, d, d)
    cols, signs = _generator_columns(n)
    per_chunk = max(1, MAX_STACK_AMPLITUDES // d**2)
    u_step, g_step = max(1, per_chunk // generators), min(per_chunk, generators)
    rows = np.arange(d)[:, None]
    for lo in range(0, len(us), u_step):
        u = us[lo:lo + u_step]
        u_dag = u.conj().transpose(0, 2, 1)[:, None]
        which = np.arange(len(u))[:, None, None, None]
        for g in range(0, generators, g_step):
            left = u[which, rows, cols[g:g + g_step, None]]
            left *= signs[g:g + g_step, None]
            yield (left @ u_dag).reshape(-1, d, d)


@lru_cache(maxsize=None)
def _generator_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (2n, 2**n) tables with (u·P_g)[:, j] = u[:, cols[g, j]] *
    signs[g, j] for P_g = X_0, Z_0, X_1, Z_1, ...; at most MAX_QUBITS of them."""
    index = np.arange(2**n)
    cols, signs = np.empty((2 * n, 2**n), dtype=index.dtype), np.ones((2 * n, 2**n))
    for qubit in range(n):
        bit = 1 << (n - 1 - qubit)
        cols[2 * qubit], cols[2 * qubit + 1] = index ^ bit, index
        signs[2 * qubit + 1] = np.where(index & bit, -1.0, 1.0)
    cols.flags.writeable = signs.flags.writeable = False
    return cols, signs


def _recognize(stack: np.ndarray, tol: float):
    """The one recognition rule, over a (K, d, d) stack: per matrix the scalar
    c, P's X bits as a row index, P's Z bits, and whether the matrix is c·P
    within tol, and so with c in {1, i, -1, -i}.  Column 0 of c·P has its one
    nonzero at the X row; the signs on the weight-one columns give the Z bits.
    Every test is `<= tol` with warnings off: NaN and inf fail, silently."""
    cols, signs = _generator_columns(width_of(stack.shape[-1]))
    # X_q's gather moves column 0 to qubit q's weight-one column, and Z_q's
    # signs are (-1)^(bit q of the column)
    index, weight_one, z_signs = np.arange(stack.shape[-1]), cols[0::2, 0], signs[1::2]
    which = np.arange(len(stack))[:, None]
    with np.errstate(all="ignore"):
        rows = np.abs(stack[:, :, 0]).argmax(axis=1)
        at = (which, rows[:, None] ^ index, index)  # where c·P is nonzero
        support = stack[at]
        c = support[:, 0]
        ratio = support[:, weight_one] / c[:, None]
        minus = np.abs(ratio + 1.0) <= 0.5
        banded = (minus | (np.abs(ratio - 1.0) <= 0.5)).all(axis=1)
        scaled = (np.abs(np.abs(c) - 1.0) <= tol) & banded
        if scaled.any():  # else every matrix failed already
            deviation = np.abs(stack)
            deviation[at] = np.abs(
                support - c[:, None] * np.where(minus[:, :, None], z_signs, 1.0).prod(axis=1))
            scaled &= deviation.max(axis=(1, 2)) <= tol
        strict = scaled & (np.abs(c[:, None] - (1, 1j, -1, -1j)) <= tol).any(axis=1)
    return c, rows, minus, scaled, strict


def strict_paulis(stack: np.ndarray, tol: float = TOL) -> np.ndarray:
    """For each matrix of a (K, d, d) stack, whether it is i^k times a Pauli
    within tol: the test that certifies Clifford images."""
    return _recognize(stack, tol)[4]


def pauli_from_matrix(
    m: np.ndarray, tol: float = TOL
) -> tuple[complex, PauliOperator, bool] | None:
    """Recognize m = c·P for a unit-modulus scalar c and phase-free Pauli P.

    Returns (c, P, strict) where strict is True iff c is one of {1, i, -1, -i}
    within tol, or None when m is not a scaled Pauli (a NaN or infinite
    entry included).  The phase of m is folded entirely into c; the returned
    P has phase_quarters == 0.  This is `strict_paulis`'s rule on one matrix.
    A tol outside (0, 1) is refused.
    """
    check_tolerance(tol)
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("matrix must be square")
    n = width_of(m.shape[0])
    c, row, z_bits, scaled, strict = _recognize(m[None], tol)
    if not scaled[0]:
        return None
    x_bits = tuple((int(row[0]) >> (n - 1 - qubit)) & 1 for qubit in range(n))
    return complex(c[0]), PauliOperator(n, x_bits, tuple(z_bits[0]), 0), bool(strict[0])


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
