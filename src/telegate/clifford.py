"""Certified Clifford frames: a unitary known to map Paulis to Paulis.

A frame is the unitary's matrix, copied and frozen, after every conjugated
generator U·X_i·U† and U·Z_i·U† was recognized as a strict Pauli (i^k times
a Pauli string) by `all_clifford`, the one level-2 test.  Each rewrite that
uses a frame is proved by branch simulation, so no conjugation images are
stored.  Frames compare by identity: two frames of different Cliffords on n
qubits are never equal.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gates, pauli
from .errors import ClassificationError, ValidationError
from .limits import FLOOR, TOL, check_tolerance, width_of


@dataclass(frozen=True, eq=False)
class CliffordFrame:
    """An n-qubit Clifford unitary, with an optional gate name.  A frame is
    certified only when `clifford_from_matrix` or `tableau_from_gate` made
    it; the constructor itself checks nothing."""

    n: int
    matrix: np.ndarray = field(repr=False)
    name: str | None = None


def is_isometry(m: np.ndarray, tol: float = TOL) -> bool:
    """Whether m†m = I within tol; NaN, infinite and overflowing entries fail, silently."""
    m = np.asarray(m, dtype=complex)
    with np.errstate(all="ignore"):
        return m.ndim == 2 and bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))) <= tol)


def is_unitary(m: np.ndarray, tol: float = TOL) -> bool:
    return np.ndim(m) == 2 and np.shape(m)[0] == np.shape(m)[1] and is_isometry(m, tol)


def checked_unitary(m: np.ndarray, tol: float = TOL) -> np.ndarray:
    """m as a complex array, refused unless tol is in (0, 1) and m a finite
    unitary within max(tol, FLOOR): the one input check of a caller's matrix."""
    check_tolerance(tol)
    if not is_unitary(m, max(tol, FLOOR)):
        raise ValidationError("input matrix is not unitary within tolerance")
    return np.asarray(m, dtype=complex)


def clifford_from_matrix(m: np.ndarray, tol: float = TOL) -> CliffordFrame | None:
    """The frame of m iff every conjugated generator is a strict Pauli.

    Returns None when some image U·P·U† is not i^k times a Pauli, i.e. when
    m is outside the Clifford group.  Raises for non-unitary input.  The
    frame holds a read-only copy of m, so the caller's array stays its own.
    """
    m = np.array(checked_unitary(m, tol))
    if not all_clifford(m, tol):
        return None
    m.flags.writeable = False
    return CliffordFrame(width_of(m.shape[0]), m)


def all_clifford(us: np.ndarray, tol: float = TOL) -> bool:
    """Whether every u of a (K, d, d) stack, or one (d, d) matrix, is at level 2."""
    return all(pauli.strict_paulis(images, tol).all()
               for images in pauli.conjugated_generators(us))


def tableau_from_gate(name: str) -> CliffordFrame:
    """Frame of a named gate that `clifford_from_matrix` certifies; others are rejected."""
    canon = gates.canonical_name(name)
    frame = clifford_from_matrix(gates.matrix_of(canon))
    if frame is None:
        raise ClassificationError(f"gate {canon!r} is not a Clifford gate")
    return CliffordFrame(frame.n, frame.matrix, canon)
