"""Clifford operators as tableaus: conjugation images of the Pauli generators.

A tableau is projective (the unitary's global phase is not stored) but the
signs of the generator images are exact, which is what stabilizer
derivations need.  Tableaus built from matrices keep the source matrix
around so downstream circuit emission can use it; the matrix plays no part
in equality or the conjugation algebra.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gates, pauli
from .errors import ClassificationError, DimensionMismatch, ValidationError
from .limits import FLOOR, TOL, width_of
from .pauli import PauliOperator


@dataclass(frozen=True)
class CliffordTableau:
    """Images of X_i and Z_i under conjugation by a Clifford unitary."""

    n: int
    image_of_x: tuple[PauliOperator, ...]
    image_of_z: tuple[PauliOperator, ...]
    matrix: np.ndarray | None = field(default=None, compare=False, repr=False)
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.image_of_x) != self.n or len(self.image_of_z) != self.n:
            raise DimensionMismatch("one image per generator is required")
        for i in range(self.n):
            for img in (self.image_of_x[i], self.image_of_z[i]):
                if img.n != self.n:
                    raise DimensionMismatch("image width mismatch")
                square = pauli.pauli_mul(img, img)
                if not square.is_identity:
                    raise ValidationError("generator images must square to +identity")
        for i in range(self.n):
            for j in range(self.n):
                if pauli.commutes(self.image_of_x[i], self.image_of_z[j]) != (i != j):
                    raise ValidationError("images break the commutation structure")
                if i < j:
                    if not pauli.commutes(self.image_of_x[i], self.image_of_x[j]):
                        raise ValidationError("images break the commutation structure")
                    if not pauli.commutes(self.image_of_z[i], self.image_of_z[j]):
                        raise ValidationError("images break the commutation structure")


def identity_tableau(n: int) -> CliffordTableau:
    xs = tuple(pauli.single(n, i, "X") for i in range(n))
    zs = tuple(pauli.single(n, i, "Z") for i in range(n))
    return CliffordTableau(n, xs, zs, matrix=np.eye(2**n, dtype=complex), name="I" * n)


def is_unitary(m: np.ndarray, tol: float = TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol)


def clifford_from_matrix(m: np.ndarray, tol: float = TOL) -> CliffordTableau | None:
    """Assemble a tableau iff every conjugated generator is a strict Pauli.

    Returns None when some image U·P·U† is not i^k times a Pauli, i.e. when
    m is outside the Clifford group.  Raises for non-unitary input.
    """
    m = np.asarray(m, dtype=complex)
    if not is_unitary(m, tol=max(tol, FLOOR)):
        raise ValidationError("input matrix is not unitary within tolerance")
    n = width_of(m.shape[0])
    m_dag = m.conj().T

    def image(p: PauliOperator) -> PauliOperator | None:
        conj = m @ pauli.pauli_to_matrix(p) @ m_dag
        hit = pauli.pauli_from_matrix(conj, tol=tol)
        if hit is None:
            return None
        c, bare, strict = hit
        if not strict:
            return None
        k = int(round(np.angle(c) / (np.pi / 2))) % 4
        return bare.with_phase(k)

    xs, zs = [], []
    for i in range(n):
        ix = image(pauli.single(n, i, "X"))
        iz = image(pauli.single(n, i, "Z"))
        if ix is None or iz is None:
            return None
        xs.append(ix)
        zs.append(iz)
    return CliffordTableau(n, tuple(xs), tuple(zs), matrix=m)


def tableau_from_gate(name: str) -> CliffordTableau:
    """Tableau of a named Clifford gate; non-Clifford names are rejected."""
    canon = gates.canonical_name(name)
    if canon not in gates.CLIFFORD_NAMES:
        raise ClassificationError(f"gate {canon!r} is not a Clifford gate")
    tab = clifford_from_matrix(gates.matrix_of(canon))
    assert tab is not None
    return CliffordTableau(tab.n, tab.image_of_x, tab.image_of_z,
                           matrix=gates.matrix_of(canon), name=canon)


def conjugate_pauli(c: CliffordTableau, p: PauliOperator) -> PauliOperator:
    """c·p·c† expanded through the generator images with exact phase."""
    if c.n != p.n:
        raise DimensionMismatch(f"qubit counts differ: {c.n} != {p.n}")
    out = pauli.identity(p.n).with_phase(p.phase_quarters)
    for q in range(p.n):
        if p.x_bits[q]:
            out = pauli.pauli_mul(out, c.image_of_x[q])
        if p.z_bits[q]:
            out = pauli.pauli_mul(out, c.image_of_z[q])
    return out


def compose(c1: CliffordTableau, c2: CliffordTableau) -> CliffordTableau:
    """Tableau of the product c1·c2 (c2 acts first)."""
    if c1.n != c2.n:
        raise DimensionMismatch(f"qubit counts differ: {c1.n} != {c2.n}")
    xs = tuple(conjugate_pauli(c1, img) for img in c2.image_of_x)
    zs = tuple(conjugate_pauli(c1, img) for img in c2.image_of_z)
    matrix = None
    if c1.matrix is not None and c2.matrix is not None:
        matrix = c1.matrix @ c2.matrix
    return CliffordTableau(c1.n, xs, zs, matrix=matrix)
