"""Numeric classification of a unitary's minimal level in the gate hierarchy.

Level 1 is the Pauli group (recognized projectively: any unit-modulus
scalar is ignored), level 2 the Clifford group, and level k membership is
tested recursively by conjugating the 2n Pauli generators and classifying
every image at level k-1.  Every level is recognized at the caller's one
tolerance: a looser tolerance deep in the recursion would let a near-miss
that fails at its own level pass one level up.

Classification is projective throughout: multiplying the input by a global
phase never changes the verdict.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clifford, pauli
from .errors import ValidationError
from .limits import FLOOR, MAX_HIERARCHY_LEVEL, TOL, width_of

DEFAULT_K_MAX = 6


@dataclass(frozen=True)
class HierarchyVerdict:
    """Outcome of a bounded minimal-level search.

    level is None when membership could not be certified for any k <= k_max
    (a normal result, not an error); strict records that membership one
    level down was refuted, which the upward search from k = 1 does for
    every found level.
    """

    level: int | None
    k_max: int
    diagonal: bool
    strict: bool

    @property
    def exceeded(self) -> bool:
        return self.level is None

    def describe(self) -> str:
        if self.exceeded:
            return f"exceeds k_max {self.k_max}"
        parts = [f"level {self.level}"]
        if self.diagonal:
            parts.append("diagonal")
        if self.strict:
            parts.append("strict")
        return ", ".join(parts)


def _fingerprint(m: np.ndarray) -> bytes:
    """Canonical phase-fixed, rounded encoding of a matrix.

    The phase anchor is the first entry within TOL of the peak magnitude,
    so rounding noise cannot flip which entry gets picked."""
    flat = m.ravel()
    peak = float(np.max(np.abs(flat)))
    idx = int(np.argmax(np.abs(flat) > peak - TOL))
    anchor = flat[idx]
    canon = m * (abs(anchor) / anchor)
    rounded = np.round(canon, 6) + 0.0  # normalize -0.0
    return rounded.tobytes()


def is_diagonal_matrix(m: np.ndarray, tol: float = TOL) -> bool:
    off = m - np.diag(np.diag(m))
    return bool(np.max(np.abs(off)) <= tol)


def _member(u: np.ndarray, k: int, tol: float, memo: dict) -> bool:
    """Is u in level k?  memo maps (fingerprint, k) to membership within one
    classification."""
    if k <= 1:
        return pauli.pauli_from_matrix(u, tol=tol) is not None
    key = (_fingerprint(u), k)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if k == 2:
        result = clifford.clifford_from_matrix(u, tol=tol) is not None
        return memo.setdefault(key, result)
    n = width_of(u.shape[0])
    u_dag = u.conj().T
    result = True
    for qubit in range(n):
        for letter in ("X", "Z"):
            gen = pauli.pauli_to_matrix(pauli.single(n, qubit, letter))
            image = u @ gen @ u_dag
            if not _member(image, k - 1, tol, memo):
                result = False
                break
        if not result:
            break
    return memo.setdefault(key, result)


def hierarchy_level(
    u: np.ndarray, k_max: int = DEFAULT_K_MAX, tol: float = TOL
) -> HierarchyVerdict:
    """Smallest k <= k_max containing u, searched from k = 1 upward."""
    if not 1 <= k_max <= MAX_HIERARCHY_LEVEL:
        raise ValidationError(f"k_max must be between 1 and the level limit"
                              f" {MAX_HIERARCHY_LEVEL}, got {k_max}")
    u = np.asarray(u, dtype=complex)
    if not clifford.is_unitary(u, tol=max(tol, FLOOR)):
        raise ValidationError("input matrix is not unitary within tolerance")
    width_of(u.shape[0])
    diagonal = is_diagonal_matrix(u, tol=tol)
    memo: dict = {}
    for k in range(1, k_max + 1):
        if _member(u, k, tol, memo):
            return HierarchyVerdict(level=k, k_max=k_max, diagonal=diagonal, strict=True)
    return HierarchyVerdict(level=None, k_max=k_max, diagonal=diagonal, strict=False)
