"""Named gate library: canonical matrices under the shared basis convention.

Qubit 0 is the leftmost tensor factor and the most significant bit of a
basis index, so a basis state |x_0 x_1 ... x_{n-1}> has index
sum(x_q * 2**(n-1-q)).  Multi-qubit gates list control qubits first; the
first listed target is the most significant bit of the gate's own index
space.  No list names the Clifford gates: `clifford.tableau_from_gate` certifies.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ClassificationError, DimensionMismatch
from .limits import width_of

SQRT2_INV = 1.0 / np.sqrt(2.0)
_CLEAN = np.ones(2)  # stacked_product's reset dot

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT2_INV
S = np.array([[1, 0], [0, 1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
# Q = S†·H·S, the Clifford that enters the controlled-Hadamard decomposition.
Q = S.conj().T @ H @ S


def controlled(matrix: np.ndarray, n_controls: int = 1) -> np.ndarray:
    """Return the gate applying `matrix` when all control qubits are |1>.

    Controls occupy the most significant qubit positions.
    """
    dim = matrix.shape[0]
    for _ in range(n_controls):
        full = np.eye(2 * dim, dtype=complex)
        full[dim:, dim:] = matrix
        matrix, dim = full, 2 * dim
    return matrix


def kron(*factors: np.ndarray) -> np.ndarray:
    """Tensor product with qubit 0 as the leftmost factor."""
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def target_axes(targets, n: int) -> tuple[list[int], list[int]]:
    """Axis orders over a (rows, 2, ..., 2, m) tensor of n qubits: the first
    brings the target qubits right after the row axis, the others keeping
    their order; the second undoes it."""
    order = [0] + [1 + t for t in targets] + [1 + a for a in range(n + 1) if a not in targets]
    undo = [0] * len(order)
    for i, a in enumerate(order):
        undo[a] = i
    return order, undo


def stacked_product(matrix: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """matrix @ block for each (a, c) block of a stack, each with the bits of
    its product alone: one product with the row axis moved into the columns
    when c >= 4 and rows > 2, else one per block (BLAS sums narrower products
    another way, and on two blocks the transposes cost more than they save).
    The gate kernel's one product.  A BLAS dot follows: OpenBLAS's AVX-512
    zgemm can leave the upper vector state dirty, which slows the numpy
    reductions after it (the walk's and the fold's row sums) 6-14x until a
    BLAS call clears it; elsewhere the dot costs about 1 us."""
    rows, a, c = stack.shape
    if c < 4 or rows <= 2:
        out = np.matmul(matrix, stack)
    else:
        flat = matrix @ stack.transpose(1, 0, 2).reshape(a, rows * c)
        out = flat.reshape(len(matrix), rows, c).transpose(1, 0, 2)
    _CLEAN.dot(_CLEAN)
    return out


def apply_to_columns(cols: np.ndarray, matrix: np.ndarray, targets: tuple[int, ...],
                     n: int) -> np.ndarray:
    """Apply a k-qubit gate on the listed targets to every column of an
    n-qubit (2**n, m) block, identity elsewhere.  A (rows, 2**n, m) stack
    is one `stacked_product`: one product when 2**(n-k)·m >= 4 and rows > 2."""
    k = len(targets)
    if matrix.shape != (2**k, 2**k):
        raise DimensionMismatch("gate matrix does not match target count")
    if len(set(targets)) != k or any(not 0 <= t < n for t in targets):
        raise DimensionMismatch(f"bad targets {targets} for width {n}")
    order, undo = target_axes(targets, n)
    tensor = cols.reshape([-1] + [2] * n + [cols.shape[-1]]).transpose(order)
    flat = stacked_product(matrix, tensor.reshape(len(tensor), 2**k, -1))
    return flat.reshape(tensor.shape).transpose(undo).reshape(cols.shape)


@np.errstate(over="ignore")  # an overflow here is undone by the rescale
def scaled_norm(amps: np.ndarray) -> tuple[np.ndarray, float]:
    """A complex vector and its 2-norm, summed as `np.linalg.norm` sums it.
    A finite vector whose squares overflow (entries past about 1e154) is
    first divided by its largest real or imaginary part; a NaN or infinite
    entry gives a non-finite norm."""
    re, im = amps.real, amps.imag
    norm = math.sqrt(re.dot(re) + im.dot(im))
    if not math.isfinite(norm) and np.isfinite(amps).all():
        return scaled_norm(amps / np.max(np.abs([re, im])))
    return amps, norm


def monomial(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(source, phase) with (matrix @ v)[a] = phase[a]·v[source[a]] when the
    matrix has one nonzero per row and column, each exactly 1, -1, i or -i,
    so that product is exact; else None."""
    source = (matrix != 0).argmax(axis=1)
    phase = matrix[np.arange(len(matrix)), source]
    exact = np.count_nonzero(matrix) == len(set(source.tolist())) == len(matrix)
    return (source, phase) if exact and np.isin(phase, (1, -1, 1j, -1j)).all() else None


def embed(matrix: np.ndarray, targets, n: int) -> np.ndarray:
    """Extend a k-qubit gate to n qubits, acting on the listed targets."""
    return apply_to_columns(np.eye(2**n, dtype=complex), np.asarray(matrix, dtype=complex),
                            tuple(targets), n)


CNOT = controlled(X)
CZ = controlled(Z)
CS = controlled(S)
CH = controlled(H)
TOFFOLI = controlled(X, n_controls=2)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

_GATES: dict[str, np.ndarray] = {
    "I": I2,
    "X": X,
    "Y": Y,
    "Z": Z,
    "H": H,
    "S": S,
    "S†": S.conj().T,
    "T": T,
    "T†": T.conj().T,
    "Q": Q,
    "Q†": Q.conj().T,
    "CNOT": CNOT,
    "CZ": CZ,
    "SWAP": SWAP,
    "CS": CS,
    "CS†": CS.conj().T,
    "CH": CH,
    "TOFFOLI": TOFFOLI,
}
# Shared by every caller of matrix_of, so nobody may write into them.
for _m in _GATES.values():
    _m.flags.writeable = False

# ASCII-friendly spellings accepted on input; canonical names are the keys above.
_ALIASES = {
    "SDG": "S†",
    "TDG": "T†",
    "QDG": "Q†",
    "CSDG": "CS†",
    "CX": "CNOT",
    "CCX": "TOFFOLI",
    "CCNOT": "TOFFOLI",
}

GATE_NAMES = tuple(_GATES)


def canonical_name(name: str) -> str:
    """Resolve aliases and case; raise for unknown names."""
    if name in _GATES:
        return name
    upper = name.upper()
    if upper in _GATES:
        return upper
    if upper in _ALIASES:
        return _ALIASES[upper]
    raise ClassificationError(f"unknown gate name {name!r}")


def matrix_of(name: str) -> np.ndarray:
    """Matrix of a named gate; the array is read-only."""
    return _GATES[canonical_name(name)]


def arity_of(name: str) -> int:
    return width_of(matrix_of(name).shape[0])
