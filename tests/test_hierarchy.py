"""Level classification: pinned gate levels, an independent recursive
oracle, monotonicity, closure, and the diagonal-correction structure."""

import numpy as np
import pytest

from telegate import clifford, gates, pauli
from telegate.errors import ValidationError
from telegate.hierarchy import (_diagonal_level, _member, _phase_coefficients,
                                hierarchy_level, is_diagonal_matrix)
from telegate.limits import TOL
from telegate.pauli import pauli_to_matrix

from conjugation_oracle import loop_level, single, verdict_sweep


# --- independent oracle -----------------------------------------------------
# Level-1 recognition here is structural (generalized permutation matrix with
# a single unit-modulus coefficient), deliberately not the bit-vector
# extraction the implementation uses.

def _oracle_is_scaled_pauli(m, tol=1e-8):
    # c * X^a Z^b has one unit entry per column at row col^a, whose sign
    # relative to column 0 is (-1)^(b.col): a character, multiplicative
    # under XOR of column indices.
    dim = m.shape[0]
    shift = None
    signs = np.zeros(dim)
    for col in range(dim):
        rows = np.nonzero(np.abs(m[:, col]) > tol)[0]
        if len(rows) != 1:
            return False
        r = int(rows[0])
        if abs(abs(m[r, col]) - 1.0) > tol:
            return False
        if shift is None:
            shift = r ^ col
        elif (r ^ col) != shift:
            return False
        ratio = m[r, col] / m[shift, 0]
        if abs(ratio - 1) <= tol:
            signs[col] = 1
        elif abs(ratio + 1) <= tol:
            signs[col] = -1
        else:
            return False
    n = int(round(np.log2(dim)))
    generators = [1 << j for j in range(n)]
    for col in range(dim):
        product = 1.0
        for g in generators:
            if col & g:
                product *= signs[g]
        if signs[col] != product:
            return False
    return True


def _oracle_level(m, k_max=6):
    def member(u, k):
        if k == 1:
            return _oracle_is_scaled_pauli(u)
        n = int(round(np.log2(u.shape[0])))
        for q in range(n):
            for letter in ("X", "Z"):
                gen = pauli_to_matrix(single(n, q, letter))
                if not member(u @ gen @ u.conj().T, k - 1):
                    return False
        return True

    for k in range(1, k_max + 1):
        if member(m, k):
            return k
    return None


PINNED = [
    ("X", 1), ("Y", 1), ("Z", 1),
    ("H", 2), ("S", 2), ("CNOT", 2), ("CZ", 2), ("SWAP", 2),
    ("T", 3), ("CS", 3), ("TOFFOLI", 3), ("CH", 3),
]


@pytest.mark.parametrize("name,level", PINNED)
def test_pinned_levels(name, level):
    verdict = hierarchy_level(gates.matrix_of(name), k_max=6)
    assert verdict.level == level
    assert verdict.strict


def test_t_is_diagonal_level_3():
    v = hierarchy_level(gates.T)
    assert v.level == 3 and v.diagonal


def test_toffoli_not_diagonal():
    v = hierarchy_level(gates.TOFFOLI)
    assert v.level == 3 and not v.diagonal


def test_rotation_ladder_matches_2pi_formula():
    for k in range(2, 6):
        m = np.diag([1.0, np.exp(2j * np.pi / 2**k)])
        assert hierarchy_level(m, k_max=6).level == k


def test_pi_over_8_rotation_level_4_against_oracle():
    m = np.diag([1.0, np.exp(1j * np.pi / 8)])  # equals e^{i 2pi / 2^4}
    assert _oracle_level(m) == 4
    verdict = hierarchy_level(m, k_max=6)
    assert verdict.level == 4 and verdict.diagonal


def test_oracle_agrees_on_library():
    for name, level in PINNED:
        assert _oracle_level(gates.matrix_of(name)) == level


def test_doubly_controlled_s_level_4():
    ccs = gates.controlled(gates.S, n_controls=2)
    assert _oracle_level(ccs) == 4
    assert hierarchy_level(ccs, k_max=6).level == 4


def test_diagonal_subset_flags():
    cs = hierarchy_level(gates.CS)
    assert cs.level == 3 and cs.diagonal
    ch = hierarchy_level(gates.CH)
    assert ch.level == 3 and not ch.diagonal
    z = hierarchy_level(gates.Z)
    assert z.level == 1 and z.diagonal


def test_exceeds_k_max_is_a_normal_result():
    v = hierarchy_level(gates.TOFFOLI, k_max=2)
    assert v.exceeded and v.level is None and not v.strict
    assert "exceeds k_max 2" in v.describe()


def test_monotonicity():
    for name, level in PINNED:
        again = hierarchy_level(gates.matrix_of(name), k_max=level + 1)
        assert again.level == level


def test_global_phase_never_changes_verdict(rng):
    for name, level in PINNED:
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert hierarchy_level(phase * gates.matrix_of(name)).level == level


def test_closure_under_clifford_multiplication():
    cliffords = {
        1: [gates.matrix_of(n) for n in ("I", "X", "H", "S", "Q")],
        2: [gates.matrix_of(n) for n in ("CNOT", "CZ", "SWAP")],
        3: [gates.embed(gates.CNOT, (0, 1), 3), gates.embed(gates.CZ, (1, 2), 3),
            gates.embed(gates.H, (2,), 3)],
    }
    for name in ("T", "CS", "TOFFOLI"):
        u = gates.matrix_of(name)
        n = int(round(np.log2(u.shape[0])))
        for v in cliffords[n]:
            verdict = hierarchy_level(u @ v, k_max=6)
            assert verdict.level is not None and verdict.level <= 3, name


def test_diagonal_correction_structure():
    # every diagonal library gate U at level k factors U X_i U+ = D~ X_i
    # with D~ diagonal one level down or lower
    for name in ("Z", "S", "S†", "T", "T†", "CZ", "CS", "CS†"):
        u = gates.matrix_of(name)
        k = hierarchy_level(u).level
        n = int(round(np.log2(u.shape[0])))
        for i in range(n):
            x_i = pauli_to_matrix(single(n, i, "X"))
            residue = u @ x_i @ u.conj().T @ x_i
            assert is_diagonal_matrix(residue, tol=1e-10)
            r_level = hierarchy_level(residue).level
            assert r_level is not None and r_level <= max(k - 1, 1), (name, i)


def test_non_unitary_rejected():
    with pytest.raises(ValidationError):
        hierarchy_level(np.array([[1, 0], [0, 2]], dtype=complex))


# --- near misses --------------------------------------------------------------
# Each gate at its known level, with its last diagonal entry nudged by
# e^{i eps}.  The classifier may certify the gate's own level or give up, but
# it must never certify a higher one: every depth of the recursion uses the
# same tolerance, so a perturbation that fails at level L cannot pass at L+1.

NEAR_MISS_GATES = {
    "Z": (gates.Z, 1), "S": (gates.S, 2), "CZ": (gates.CZ, 2), "T": (gates.T, 3),
    "CS": (gates.CS, 3), "V4": (np.diag([1.0, np.exp(1j * np.pi / 8)]), 4),
    "CCS": (gates.controlled(gates.S, n_controls=2), 4),
}


@pytest.mark.parametrize("eps", [1e-10, 5e-10, 1e-9, 1.5e-9, 2e-9, 5e-9, 1e-8, 1e-7, 1e-6])
@pytest.mark.parametrize("name", NEAR_MISS_GATES)
def test_near_miss_never_classifies_above_its_level(name, eps):
    matrix, level = NEAR_MISS_GATES[name]
    u = np.array(matrix, dtype=complex)
    u[-1, -1] *= np.exp(1j * eps)
    assert hierarchy_level(u, k_max=6).level in (level, None)


def test_level_limit():
    from telegate.limits import MAX_HIERARCHY_LEVEL
    from telegate.recursive import rotation_spec
    top = rotation_spec(MAX_HIERARCHY_LEVEL).matrix
    verdict = hierarchy_level(top, k_max=MAX_HIERARCHY_LEVEL)
    assert verdict.level == MAX_HIERARCHY_LEVEL and verdict.strict
    with pytest.raises(ValidationError, match=f"level limit {MAX_HIERARCHY_LEVEL}"):
        hierarchy_level(gates.T, k_max=MAX_HIERARCHY_LEVEL + 1)


# --- closed form against the conjugation route ------------------------------
# A diagonal input takes the phase-polynomial route; the conjugation search,
# one image at a time as `conjugation_oracle.loop_level` runs it, is its
# oracle here.

def _dyadic_diagonal(rng, n, level):
    """A diagonal whose phase polynomial has a_S = m_S / 2^(level-|S|+1):
    level at most `level`, times a random global phase."""
    phases = np.zeros(2**n)
    for subset in range(1, 2**n):
        bits = level - bin(subset).count("1") + 1
        if bits < 1:
            continue
        coeff = rng.integers(2**bits) / 2**bits
        phases += coeff * np.array([(x & subset) == subset for x in range(2**n)])
    return np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.diag(np.exp(2j * np.pi * phases))


def test_closed_form_agrees_with_conjugation_on_dyadic_diagonals(rng):
    for n in (1, 2, 3):
        for level in range(1, 9):
            u = _dyadic_diagonal(rng, n, level)
            verdict = hierarchy_level(u, k_max=8)
            assert verdict.diagonal and verdict.level == loop_level(u, 8), (n, level)


def test_closed_form_agrees_with_conjugation_on_the_rotation_ladder():
    from telegate.recursive import controlled_rotation_spec, rotation_spec
    ladder = ([rotation_spec(k) for k in range(1, 9)]
              + [controlled_rotation_spec(1, k) for k in range(2, 7)]
              + [controlled_rotation_spec(2, k) for k in range(3, 7)])
    for spec in ladder:
        verdict = hierarchy_level(spec.matrix, k_max=8)
        assert verdict.level == spec.level_param == loop_level(spec.matrix, 8), spec.label


def test_non_dyadic_diagonals_classify_nowhere(rng):
    for n in (1, 2, 3):
        u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2**n)))
        assert hierarchy_level(u, k_max=8).level is None
        assert loop_level(u, 8) is None


# --- the memoized Möbius product against the axis-split transform ------------
# The split loop was the transform before the memoized matrices replaced it.

def _axis_split_coefficients(f):
    n = int(f.size).bit_length() - 1
    a = np.array(f, dtype=float).reshape((2,) * n)
    for axis in range(n):
        lo, hi = np.split(a, 2, axis=axis)
        hi -= lo
    return a.ravel()


def _axis_split_level(d, k_max, tol=TOL):
    n = int(d.size).bit_length() - 1
    a = _axis_split_coefficients(np.angle(d / d[0]) / (2 * np.pi))
    sizes = np.indices((2,) * n).sum(axis=0).ravel()
    steps = 2.0 ** np.arange(k_max + 1)[:, None]
    scaled = a * steps
    fits = 2 * np.pi * np.abs(scaled - np.round(scaled)) / steps <= tol
    if not fits.any(axis=0).all():
        return None
    j = fits.argmax(axis=0)
    level = int(np.max(np.where(j > 0, j + sizes - 1, 1)))
    return level if level <= k_max else None


def test_mobius_product_matches_the_axis_split_transform(rng):
    from telegate.recursive import controlled_rotation_spec, rotation_spec
    ladder = ([rotation_spec(k) for k in range(1, 9)]
              + [controlled_rotation_spec(1, k) for k in range(2, 9)]
              + [controlled_rotation_spec(2, k) for k in range(3, 9)])
    diagonals = [np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.diag(spec.matrix)
                 for spec in ladder]
    for _ in range(200):
        n, level = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        diagonals.append(np.diag(_dyadic_diagonal(rng, n, level)))
    near_miss = np.diag(gates.T @ np.diag([1.0, np.exp(1j * 5e-10)]))
    diagonals.append(near_miss)
    assert len(diagonals) == 222
    for d in diagonals:
        f = np.angle(d / d[0]) / (2 * np.pi)
        n = int(d.size).bit_length() - 1
        # each a_S sums at most 2^n terms of size <= 1/2, in another order
        bound = n * 2**n * np.finfo(float).eps
        assert np.max(np.abs(_phase_coefficients(f) - _axis_split_coefficients(f))) <= bound
        assert _diagonal_level(d, 8, TOL) == _axis_split_level(d, 8)
    assert _diagonal_level(near_miss, 8, TOL) == 3


def test_mobius_blocks_match_the_axis_split_transform_past_the_block_width(rng):
    for n in (5, 6, 9):
        f = rng.uniform(-0.5, 0.5, 2**n)
        bound = n * 2**n * np.finfo(float).eps
        assert np.max(np.abs(_phase_coefficients(f) - _axis_split_coefficients(f))) <= bound


def test_phase_error_within_tol_keeps_the_level():
    # 5e-10 rad is inside TOL; the conjugation route doubles it at each level
    u = gates.T @ np.diag([1.0, np.exp(1j * 5e-10)])
    verdict = hierarchy_level(u)
    assert verdict.level == 3 and verdict.strict


def test_memo_hit_needs_the_query_within_tol():
    a = np.array(gates.S, dtype=complex)
    b = a @ np.diag([1.0, np.exp(1j * 1e-7)])  # rounds like S at 6 decimals
    memo = {}
    assert _member(a, 2, TOL, memo)
    assert not _member(b, 2, TOL, memo)


# --- the batched conjugation route against the per-image one -----------------

def _batched_level(u, k_max=6):
    memo = {}
    return next((k for k in range(1, k_max + 1) if _member(u, k, TOL, memo)), None)


def _memo_route_gates():
    """Non-diagonal gates whose search runs past level 3, so through the memo:
    (I⊗H)·CT·(I⊗H), (H⊗I⊗H)·CCV4·(H⊗I⊗H), (H⊗H)·CV5·(H⊗H) and
    H^⊗4·C³Z·H^⊗4, at levels 4, 4, 5 and 4."""
    from telegate.recursive import controlled_rotation_spec
    i, h = np.eye(2), gates.H
    return [gates.kron(*f) @ controlled_rotation_spec(c, k).matrix @ gates.kron(*f)
            for f, c, k in (((i, h), 1, 4), ((h, i, h), 2, 4), ((h, h), 1, 5),
                            ((h, h, h, h), 3, 4))]


def test_batched_route_matches_the_per_image_route(rng):
    sweep = verdict_sweep(rng) + _memo_route_gates()
    levels = [loop_level(u) for u in sweep]
    assert levels[-4:] == [4, 4, 5, 4]
    assert [_batched_level(u) for u in sweep] == levels
    verdicts = [hierarchy_level(u) for u in sweep]
    assert [v.level for v in verdicts if not v.diagonal] == [
        level for v, level in zip(verdicts, levels) if not v.diagonal]
    assert {None, 1, 2, 3, 4, 5} <= set(levels)


def test_the_memo_route_tests_level_2_with_all_clifford(monkeypatch):
    # every level-2 verdict, the memoized route's included, comes from the one test
    calls, all_clifford = [0], clifford.all_clifford

    def counting(us, tol=TOL):
        calls[0] += 1
        return all_clifford(us, tol)

    monkeypatch.setattr(clifford, "all_clifford", counting)
    assert _member(_memo_route_gates()[0], 4, TOL, {})
    assert calls[0] > 0


def _count_images(monkeypatch):
    """Count the images `pauli.conjugated_generators` makes from now on."""
    count, conjugate = [0], pauli.conjugated_generators

    def counting(us):
        for images in conjugate(us):
            count[0] += len(images)
            yield images

    monkeypatch.setattr(pauli, "conjugated_generators", counting)
    return count


def test_level_3_reads_level_2_verdicts_from_the_memo(monkeypatch):
    # H^4·C^3V_6·H^4 at k_max 6: its level-3 nodes share many images.  Without
    # the memo at level 2 the batched route made 3,104 images here.
    import conjugation_oracle
    from telegate.recursive import controlled_rotation_spec
    h = gates.kron(*[gates.H] * 4)
    u = h @ controlled_rotation_spec(3, 6).matrix @ h
    per_image, dense = [0], conjugation_oracle.dense_images

    def counting(m):
        images = dense(m)
        per_image[0] += len(images)
        return images

    monkeypatch.setattr(conjugation_oracle, "dense_images", counting)
    batched = _count_images(monkeypatch)
    assert hierarchy_level(u, k_max=6).level == loop_level(u, 6) == 6
    assert batched[0] <= 1.25 * per_image[0]


def test_a_level_none_search_keeps_the_short_circuit(monkeypatch):
    # TOFFOLI·e^{i eps H_0} fails every level up to 6.  Level 2 conjugates
    # 6 generators, level 3 those 6 and their 36 images, and each level
    # above conjugates 6 and descends only into the first image, which fails:
    # at most 6 + 42 + 48 + 54 + 60 = 210 images, fewer where the memo
    # already holds an image.  Expanding every image at every level would
    # take 6 + 42 + 258 + 1,554 + 9,330.
    count = _count_images(monkeypatch)
    w, v = np.linalg.eigh(gates.embed(gates.H, (0,), 3))
    for eps in (3e-9, 1e-7):
        u = gates.TOFFOLI @ (v * np.exp(1j * eps * w)) @ v.conj().T
        count[0] = 0
        assert hierarchy_level(u, k_max=6).level is None
        assert count[0] <= 210
