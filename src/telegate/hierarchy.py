"""Classification of a unitary's minimal level in the gate hierarchy.

Level 1 is the Pauli group (recognized projectively: any unit-modulus
scalar is ignored), level 2 the Clifford group.  Two routes find the level:

- A diagonal gate is classified in closed form (Cui, Gottesman & Krishna,
  "Diagonal gates in the Clifford hierarchy", PRA 95, 012329, 2017).  Its
  phases f(x) = arg(d_x / d_0) / 2π expand as the multilinear polynomial
  Σ_S a_S ∏_{i∈S} x_i (a Möbius transform: one product with a memoized
  read-only matrix per block of up to MAX_PLAN_WIDTH qubits), and its
  level is the largest log2(denominator of a_S mod 1) + |S| - 1, the
  identity being level 1.  `tol` bounds the entry-wise phase error
  2π·dist(a_S, 2^-j·ℤ).
- Any other gate is tested level by level: level k membership conjugates
  the 2n Pauli generators in one batch (`pauli.conjugated_generators`) and
  asks whether each image lies at level k-1.  Level 2 is
  `clifford.all_clifford` over the 2n images, and level 3 the same test
  over their (2n)^2 two-fold images; above that the search goes depth
  first, image by image, stops at the first image that fails, and skips by
  a memo the matrices it has classified already (at level 2, those that
  passed).  Every depth uses the caller's one tolerance, so a near-miss
  that fails at its own level cannot pass one level up; but each
  conjugation doubles a phase error, so the effective tolerance at level k
  shrinks as about tol/2^(k-2) on this route.

Classification is projective throughout: multiplying the input by a global
phase never changes the verdict.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import clifford, pauli
from .errors import ValidationError
from .limits import MAX_HIERARCHY_LEVEL, MAX_PLAN_WIDTH, TOL, width_of

DEFAULT_K_MAX = 6


@dataclass(frozen=True)
class HierarchyVerdict:
    """Outcome of a bounded minimal-level search.

    level is None when membership could not be certified for any k <= k_max
    (a normal result, not an error); strict records that membership one
    level down was refuted, which both routes do for every found level.
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


def _fingerprints(stack: np.ndarray) -> tuple[list[bytes], np.ndarray]:
    """Rounded encodings of a (K, d, d) stack's matrices, and the phase-fixed
    matrices they round.

    Each phase anchor is the first entry within TOL of its matrix's peak
    magnitude, so rounding noise cannot flip which entry gets picked."""
    flat = stack.reshape(len(stack), -1)
    mag = np.abs(flat)
    idx = np.argmax(mag > mag.max(axis=1, keepdims=True) - TOL, axis=1)
    anchor = flat[np.arange(len(flat)), idx]
    canon = stack * (np.abs(anchor) / anchor)[:, None, None]
    rounded = np.round(canon, 6) + 0.0  # normalize -0.0
    return [r.tobytes() for r in rounded], canon


def _memo_hit(memo: dict, key, canon: np.ndarray, tol: float):
    """The memoized membership of a matrix, or None: a hit counts only when the
    matrix lies within tol of the memoized one, as the fingerprint rounds coarser."""
    hit = memo.get(key)
    return hit[1] if hit is not None and np.max(np.abs(hit[0] - canon)) <= tol else None


def is_diagonal_matrix(m: np.ndarray, tol: float = TOL) -> bool:
    off = m - np.diag(np.diag(m))
    return bool(np.max(np.abs(off)) <= tol)


def _member(u: np.ndarray, k: int, tol: float, memo: dict | None) -> bool:
    """Is u in level k?  memo maps (fingerprint, k) to the phase-fixed matrix
    and its membership within one classification.  Only a search from level
    4 up meets a matrix twice, so a search at level 2 or 3 runs without one."""
    if k <= 1:
        return pauli.pauli_from_matrix(u, tol=tol) is not None
    if k == 2:
        return _all_clifford(u[None], tol, memo)
    if memo is not None:
        (fingerprint,), (canon,) = _fingerprints(u[None])
        result = _memo_hit(memo, (fingerprint, k), canon, tol)
        if result is not None:
            return result
    if k == 3:
        result = all(_all_clifford(images, tol, memo)
                     for images in pauli.conjugated_generators(u))
    else:
        result = all(_member(image, k - 1, tol, memo)
                     for images in pauli.conjugated_generators(u) for image in images)
    if memo is not None:
        memo[(fingerprint, k)] = (canon, result)
    return result


def _all_clifford(stack: np.ndarray, tol: float, memo: dict | None) -> bool:
    """Whether every matrix of a stack is at level 2: `clifford.all_clifford`
    on the stack, or with a memo on the matrices it holds no verdict for,
    which it memoizes as True when they all pass.  The verdict is the same
    either way.  A level-2 False is never memoized, so a failing stack
    memoizes nothing; levels 3 and up memoize both verdicts in `_member`."""
    if memo is None:
        return clifford.all_clifford(stack, tol)
    fingerprints, canons = _fingerprints(stack)
    fresh = [i for i, (key, canon) in enumerate(zip(fingerprints, canons))
             if _memo_hit(memo, (key, 2), canon, tol) is None]
    passed = clifford.all_clifford(stack[fresh], tol)
    if passed:
        memo.update({(fingerprints[i], 2): (canons[i], True) for i in fresh})
    return passed


@lru_cache(maxsize=None)
def _mobius(n: int) -> np.ndarray:
    """The n-fold Kronecker power of [[1, 0], [-1, 1]], read-only: it maps a
    function's values on {0,1}^n to its multilinear coefficients a_S."""
    m = reduce(np.kron, [np.array([[1.0, 0.0], [-1.0, 1.0]])] * n, np.ones((1, 1)))
    m.flags.writeable = False
    return m


@lru_cache(maxsize=None)
def _subset_sizes(n: int) -> np.ndarray:
    """|S| for every subset S of n qubits, indexed like a basis state; read-only."""
    sizes = np.array([bin(s).count("1") for s in range(2**n)])
    sizes.flags.writeable = False
    return sizes


def _phase_coefficients(f: np.ndarray) -> np.ndarray:
    """Möbius transform of f on {0,1}^n, applied a block of at most
    MAX_PLAN_WIDTH qubits at a time, so no memoized matrix exceeds 16x16."""
    n = width_of(f.size)
    a = f
    for lo in range(0, n, MAX_PLAN_WIDTH):
        width = min(MAX_PLAN_WIDTH, n - lo)
        a = _mobius(width) @ a.reshape(2**lo, 2**width, -1)
    return a.ravel()


def _diagonal_level(d: np.ndarray, k_max: int, tol: float) -> int | None:
    """Closed-form level of diag(d), or None when some coefficient a_S is
    not within tol of a grid 2^-j fine enough for a level <= k_max."""
    a = _phase_coefficients(np.angle(d / d[0]) / (2 * np.pi))
    sizes = _subset_sizes(width_of(d.size))
    steps = 2.0 ** np.arange(k_max + 1)[:, None]
    scaled = a * steps
    fits = 2 * np.pi * np.abs(scaled - np.round(scaled)) / steps <= tol
    if not fits.any(axis=0).all():
        return None
    j = fits.argmax(axis=0)
    level = int(np.max(np.where(j > 0, j + sizes - 1, 1)))
    return level if level <= k_max else None


def hierarchy_level(
    u: np.ndarray, k_max: int = DEFAULT_K_MAX, tol: float = TOL
) -> HierarchyVerdict:
    """Smallest k <= k_max containing u: in closed form for a diagonal u,
    else searched from k = 1 upward."""
    if not 1 <= k_max <= MAX_HIERARCHY_LEVEL:
        raise ValidationError(f"k_max must be between 1 and the level limit"
                              f" {MAX_HIERARCHY_LEVEL}, got {k_max}")
    u = clifford.checked_unitary(u, tol)
    width_of(u.shape[0])
    diagonal = is_diagonal_matrix(u, tol=tol)
    if diagonal:
        level = _diagonal_level(np.diag(u), k_max, tol)
    else:
        memo: dict = {}
        level = next((k for k in range(1, k_max + 1)
                      if _member(u, k, tol, memo if k > 3 else None)), None)
    return HierarchyVerdict(level=level, k_max=k_max, diagonal=diagonal,
                            strict=level is not None)
