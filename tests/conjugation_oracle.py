"""The per-image certification route, kept as the reference for the batched
one (`pauli.conjugated_generators` and `pauli.strict_paulis`): each image is
one dense `u @ P @ u†` product, recognized by one scalar Pauli test.  The
dense repair products of the synthesis and the recursion, which those
images and column gathers replaced, and the dense plan commutator, which
the teleport plan's 2×2 block read replaced, are kept here too, and so is
`single`, the one-letter Pauli embedding the dense generators are built from.

`scalar_pauli_from_matrix` keeps the scalar test's one known fault: its
`> tol` deviation check passes a NaN off the Pauli support.  Sweeps compare
verdicts on finite input only."""

from functools import lru_cache

import numpy as np

from telegate.limits import TOL, width_of
from telegate.pauli import PauliOperator, pauli_to_matrix

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def single(n, qubit, letter):
    """Embed a single-qubit Pauli letter at the given position."""
    x, z = _LETTER_TO_BITS[letter.upper()]
    xs, zs = [0] * n, [0] * n
    xs[qubit], zs[qubit] = x, z
    phase = 1 if letter.upper() == "Y" else 0
    return PauliOperator(n, tuple(xs), tuple(zs), phase)


@lru_cache(maxsize=None)
def _dense_generators(n):
    """The read-only matrices of X_0, Z_0, X_1, Z_1, ... on n qubits, built once per width."""
    return tuple(pauli_to_matrix(single(n, q, letter)) for q in range(n) for letter in "XZ")


def dense_images(m):
    """u·P·u† for P = X_0, Z_0, X_1, Z_1, ..., one dense product each."""
    m_dag = m.conj().T
    return [m @ p @ m_dag for p in _dense_generators(width_of(m.shape[0]))]


def scalar_pauli_from_matrix(m, tol=TOL):
    """(c, P, strict) for m = c·P, else None: one matrix at a time."""
    m = np.asarray(m, dtype=complex)
    n = width_of(m.shape[0])
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


def loop_is_clifford(m, tol=TOL):
    """Whether every conjugated generator of a unitary is a strict Pauli,
    tested one generator at a time."""
    for image in dense_images(np.asarray(m, dtype=complex)):
        hit = scalar_pauli_from_matrix(image, tol=tol)
        if hit is None or not hit[2]:
            return False
    return True


def _fingerprint(m):
    """Rounded encoding of a matrix, and the phase-fixed matrix it rounds;
    the phase anchor is the first entry within TOL of the peak magnitude."""
    flat = m.ravel()
    peak = float(np.max(np.abs(flat)))
    anchor = flat[int(np.argmax(np.abs(flat) > peak - TOL))]
    canon = m * (abs(anchor) / anchor)
    return (np.round(canon, 6) + 0.0).tobytes(), canon


def loop_member(u, k, tol, memo):
    """Is u in level k?  The recursion with a memo per classification,
    every node one image at a time."""
    if k <= 1:
        return scalar_pauli_from_matrix(u, tol=tol) is not None
    fingerprint, canon = _fingerprint(u)
    hit = memo.get((fingerprint, k))
    if hit is not None and np.max(np.abs(hit[0] - canon)) <= tol:
        return hit[1]
    if k == 2:
        result = loop_is_clifford(u, tol)
    else:
        result = all(loop_member(image, k - 1, tol, memo) for image in dense_images(u))
    memo[(fingerprint, k)] = (canon, result)
    return result


def loop_level(u, k_max=6, tol=TOL):
    """The least k <= k_max with loop_member(u, k), else None."""
    memo = {}
    return next((k for k in range(1, k_max + 1) if loop_member(u, k, tol, memo)), None)



# --- the dense repair products the images and gathers replaced --------------------

def dense_synthesis_repairs(v, d_ops, g_b=None):
    """G_b·V·D_i·V†·G_b† for each qubit i and its letter D_i, as
    `left @ D_i @ V† [@ G_b†]` with left = G_b·V (V when there is no G_b)."""
    n = width_of(v.shape[0])
    left, v_dag = (v if g_b is None else g_b @ v), v.conj().T
    repairs = []
    for i, letter in enumerate(d_ops):
        m = left @ pauli_to_matrix(single(n, i, letter)) @ v_dag
        repairs.append(m if g_b is None else m @ g_b.conj().T)
    return repairs


def dense_x_repairs(g):
    """(g @ X_i @ g†, that times X_i) for each qubit i."""
    n = width_of(g.shape[0])
    g_dag = g.conj().T
    repairs = []
    for i in range(n):
        x_i = pauli_to_matrix(single(n, i, "X"))
        c_i = g @ x_i @ g_dag
        repairs.append((c_i, c_i @ x_i))
    return repairs


def dense_pattern_repairs(d, keep_phase):
    """(bits of c, d @ X^c @ d† @ X^c, times d_c when keep_phase) for each
    pattern c whose repair is not the identity within TOL."""
    n = width_of(d.shape[0])
    d_dag = d.conj().T
    repairs = []
    for pattern in range(2**n):
        bits = tuple((pattern >> (n - 1 - j)) & 1 for j in range(n))
        x_c = pauli_to_matrix(PauliOperator(n, bits, (0,) * n))
        w = d @ x_c @ d_dag @ x_c
        if keep_phase:
            w = complex(d[pattern, pattern]) * w
        if np.max(np.abs(w - np.eye(2**n))) > TOL:
            repairs.append((bits, w))
    return repairs


def loop_peel_x_pattern(m, tol=TOL):
    """(bits of x, m @ X^x) when each column of m has one entry above tol,
    all at rows column ^ x for one x, else None: one column at a time."""
    n = width_of(m.shape[0])
    x_int = None
    for col in range(m.shape[1]):
        rows = np.nonzero(np.abs(m[:, col]) > tol)[0]
        if len(rows) != 1 or x_int not in (None, int(rows[0]) ^ col):
            return None
        x_int = int(rows[0]) ^ col
    bits = tuple((x_int >> (n - 1 - q)) & 1 for q in range(n))
    return bits, m @ pauli_to_matrix(PauliOperator(n, bits, (0,) * n))


def dense_commutator_max(u, qubit, kind):
    """The largest entry of u·P - P·u, P the side of qubit's coupling CNOT
    that the receiver sees (|1><1| in an X teleport, X in a Z teleport),
    embedded as a 2^n×2^n matrix."""
    from telegate import gates
    n = width_of(u.shape[0])
    side = np.diag([0j, 1]) if kind == "X" else gates.X
    p = gates.embed(side, (qubit,), n)
    return np.max(np.abs(u @ p - p @ u))


# --- the unitaries both routes are compared on ----------------------------------

def _perturbation(rng, d, eps):
    """e^{i eps G} for a random Hermitian G of spectral norm 1."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    g = g + g.conj().T
    w, v = np.linalg.eigh(g / np.linalg.norm(g, 2))
    return (v * np.exp(1j * eps * w)) @ v.conj().T


def clifford_word(rng, n, length=12):
    """A product of random H, S and CNOT gates on n qubits."""
    from telegate import gates
    u = np.eye(2**n, dtype=complex)
    for _ in range(length):
        if n > 1 and rng.integers(3) == 2:
            a, b = (int(q) for q in rng.choice(n, 2, replace=False))
            u = gates.embed(gates.CNOT, (a, b), n) @ u
        else:
            name = ("H", "S")[int(rng.integers(2))]
            u = gates.embed(gates.matrix_of(name), (int(rng.integers(n)),), n) @ u
    return u


def verdict_sweep(rng):
    """The 18 library gates; H^n·C^(n-1)V_k·H^n for n <= 4 and k <= 5 (the
    rotation at level k, with n - 1 controls); twelve random Cliffords on 1-3
    qubits; and each of these times e^{i eps G} for eps 0.5, 1 and 2 times TOL."""
    from telegate import gates
    from telegate.recursive import controlled_rotation_spec, rotation_spec
    base = [gates.matrix_of(name) for name in gates.GATE_NAMES]
    for n in range(1, 5):
        h = gates.kron(*[gates.H] * n)
        for k in range(n, 6):
            spec = rotation_spec(k) if n == 1 else controlled_rotation_spec(n - 1, k)
            base.append(h @ spec.matrix @ h)
    base += [clifford_word(rng, n) for n in (1, 2, 3) for _ in range(4)]
    return base + [u @ _perturbation(rng, u.shape[0], f * TOL)
                   for u in base for f in (0.5, 1, 2)]
