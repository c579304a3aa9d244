"""Exact dense-statevector execution with exhaustive measurement branching.

Every Measure op forks the run: outcome 0 is explored before outcome 1 and
branch probabilities are the accumulated projection norms, so they sum to
one exactly (up to rounding) over any valid circuit.  Branches whose norm
collapses below threshold are recorded with probability zero and carry no
state; that is a legitimate outcome for preparations starting from special
initial states, not an error.

A branch is a block of unnormalized columns, which lets the gate-equivalence
checker evolve all computational-basis inputs in a single pass and assemble
each branch's effective operator.  `_enumerate`, the package's one
exhaustive walk, carries a stack of branches through each op at once, one
row per branch over its present qubits only (a measured qubit leaves the
row; a dead branch is a row of zeros that no gate touches), and yields
each stack in depth-first order: a verification folds over 2^m
branches a stack at a time, and `MAX_STACK_AMPLITUDES` caps the amplitudes
a stack of more than one row holds after any op.  Each branch gets the
arithmetic of a walk of it alone, whatever the cap.  The fold writes each
stack in place into 2^m slots of record and coefficient tr(u†K)/dim, 26 B
a branch, from which a report derives weights and scalars on first read.

A gate of one 1, -1, i or -i per row and column (`gates.monomial`: X, Z,
S, CZ, CNOT, TOFFOLI) is an exact gather and phase multiply, 352 of the
level-5 check's 703 gate steps; its 351 diagonal repairs are a rounding off
±1, ±i and stay on the product.  `_mass`, each row's sum of re² + im², is
the one squared norm: a measurement (690 there) decides death by it, and
it gives each branch's probability and the fold's norms.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .circuit import Circuit, GateOp, InjectOp, MeasureOp, QubitStatus
from .clifford import is_isometry
from .errors import DimensionMismatch, ValidationError, WidthOverflow
from .gates import apply_to_columns, monomial, scaled_norm, target_axes
from .limits import (FLOOR, MAX_MEASUREMENTS, MAX_STACK_AMPLITUDES, VERIFY_TOL, ZERO,
                     check_tolerance, check_width, width_of)


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over 2**n basis states, qubit 0 most significant."""

    n: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_width(self.n)
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amps.shape != (2**self.n,):
            raise DimensionMismatch("amplitude count must be 2**n")
        amps, norm = scaled_norm(amps)
        if not math.isfinite(norm):
            raise ValidationError("state has non-finite amplitudes")
        if norm < ZERO:
            raise ValidationError("state has zero norm")
        amps = amps / norm
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def _certified_states(n: int, block: np.ndarray) -> list[StateVector]:
    """Each row of a complex (G, 2**n) block as a `StateVector`: the block is
    checked and normalized in one pass, and the states are read-only row
    views of it.  A block with a non-finite or zero row goes row by row
    through `StateVector`, which refuses it, or rescales a row whose squares
    overflow."""
    norms = np.sqrt(_mass(block))
    if not (np.isfinite(norms) & (norms >= ZERO)).all():
        return [StateVector(n, row) for row in block]
    block = block / norms[:, None]
    block.flags.writeable = False
    states = [object.__new__(StateVector) for _ in block]  # no __post_init__: checked above
    for state, row in zip(states, block):
        fields = state.__dict__
        fields["n"], fields["amplitudes"] = n, row
    return states


def state_from(amplitudes) -> StateVector:
    amps = np.asarray(amplitudes, dtype=complex).ravel()
    return StateVector(width_of(len(amps)), amps)


def _state_width(n: int) -> int:
    if n < 0:  # refused, like a width over MAX_QUBITS, before any array is sized
        raise ValidationError(f"{n} qubits: a width cannot be negative")
    return check_width(n)


def basis_state(n: int, index: int) -> StateVector:
    if not 0 <= index < 2 ** _state_width(n):
        raise ValidationError(f"basis index {index} is not in range(2**{n})")
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def zero_state(n: int) -> StateVector:
    return basis_state(n, 0)


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    re = rng.standard_normal(2 ** _state_width(n))
    im = rng.standard_normal(2**n)
    return state_from(re + 1j * im)


@dataclass(frozen=True)
class Branch:
    """One measurement-outcome path: bits in measurement order, and each
    qubit measured after the last op at its last outcome (a re-injected
    qubit is live again); a dead branch has those its record reaches."""

    bits: tuple[int, ...]
    probability: float
    state: StateVector | None
    cbits: dict[int, int]
    measured_values: dict[int, int]

    @property
    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing a circuit's branch operators against a matrix.
    The two per-branch maps are read-only `BranchMap`s keyed by outcome
    bitstring in walk order; they share 26 B a branch and derive |c|² and
    c/|c| of its coefficient c on first read.  A dead branch has a weight, no scalar."""

    passed: bool
    worst_fidelity: float
    failing_branch: str | None
    branch_scalars: Mapping[str, complex]
    branch_weights: Mapping[str, float]


def _mass(rows: np.ndarray) -> np.ndarray:
    """Each row's squared norm: the sum of re² + im² over its entries."""
    parts = np.ascontiguousarray(rows).reshape(len(rows), rows[0].size if len(rows) else 0)
    return np.einsum("ij,ij->i", parts.view(float), parts.view(float))


def _apply(cols: np.ndarray, matrix: np.ndarray, targets: tuple, n: int) -> np.ndarray:
    """`apply_to_columns`, but an exact monomial gate is one gather over the
    row axis and one multiply by its phases (a diagonal's in place)."""
    gather = _row_gather(matrix.tobytes(), len(matrix), targets, n)
    if gather is None:
        return apply_to_columns(cols, matrix, targets, n)
    source, phase = gather
    cols = cols if source is None else cols.take(source, axis=1)
    if phase is not None:
        cols *= phase
    return cols


@lru_cache(maxsize=256)
def _row_gather(matrix: bytes, dim: int, targets: tuple, n: int):
    """The gate's `monomial` over rows of n qubits, or None: the indices to
    take (None: no move) and a (2**n, 1) phase column (None: all 1)."""
    exact = monomial(np.frombuffer(matrix, dtype=complex).reshape(dim, dim))
    if exact is None:
        return None
    local = register_offsets(n, targets)
    at = register_offsets(n, [q for q in range(n) if q not in targets])[:, None] + local
    source, phase = np.empty(2**n, dtype=np.intp), np.empty((2**n, 1), dtype=complex)
    source[at], phase[at, 0] = at[:, exact[0]], exact[1]
    source.flags.writeable = phase.flags.writeable = False  # shared by every caller
    return (None if (source == np.arange(2**n)).all() else source,
            None if (phase == 1).all() else phase)


def _insert(cols: np.ndarray, before: tuple, after: tuple, new, amplitudes=None) -> np.ndarray:
    """Rows over the `before` qubits as rows over `after`, which adds the
    `new` ones: in the state `amplitudes` (in `new` order), else at |0>."""
    rows, m = len(cols), cols.shape[-1]
    if amplitudes is None:
        t = np.zeros((rows, 2 ** len(new)) + cols.shape[1:], dtype=complex)
        t[:, 0] = cols
    else:
        t = amplitudes[None, :, None, None] * cols[:, None]
    _, undo = target_axes([after.index(q) for q in new], len(after))
    return t.reshape((rows,) + (2,) * len(after) + (m,)).transpose(undo).reshape(rows, -1, m)


def _measure(cols: np.ndarray, at: int | None, codes: np.ndarray, died: np.ndarray,
             j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Split each row into its outcome-0 and outcome-1 children, side by
    side, without axis `at` (None: an untouched qubit, at |0>).  A live
    row's child of norm below ZERO is zeroed and its record ends at `j`; a
    dead row keeps its outcome-0 child alone.  Returns the children, their
    records, where each ended (0: live) and whether any row is dead."""
    if at is None:
        t = np.stack([cols, np.zeros_like(cols)], axis=1)
    else:
        t = cols.reshape(len(cols), 2**at, 2, -1).swapaxes(1, 2)
    children = t.reshape(2 * len(cols), -1, cols.shape[-1])
    dying = _mass(children) < ZERO
    codes = (2 * codes[:, None] + np.arange(2)).ravel()
    died = died.repeat(2)
    if not dying.any():
        return children, codes, died, False
    children[dying] = 0
    keep = (died == 0) | (codes & 1 == 0)
    died[dying & (died == 0)] = j
    return children[keep], codes[keep], died[keep], True


@dataclass(frozen=True)
class _Stack:
    """Consecutive branches in walk order, one row each.  A branch's record
    is its outcome bits read as a binary number of `width` digits; a dead
    branch's record ends at the measurement where it died and is padded
    with zeros, and its row is zeros.  `cols` holds each branch's
    unnormalized columns over the `present` qubits; `shifts` maps each
    measured qubit to its last record bit."""

    codes: np.ndarray
    lengths: np.ndarray
    live: np.ndarray
    cols: np.ndarray
    present: tuple[int, ...]
    shifts: dict[int, int]

    def rows_over(self, register) -> np.ndarray:
        """The rows over `register`, which holds every present qubit: one
        not present sits at its last recorded outcome, or at |0>."""
        register, codes = tuple(register), self.codes
        if register == self.present:
            return self.cols
        k, rows = len(register), np.arange(len(codes))[:, None]
        base = sum((((codes >> self.shifts[q]) & 1) << (k - 1 - i) for i, q in enumerate(register)
                    if q not in self.present and q in self.shifts), np.zeros_like(codes))
        out = np.zeros((len(codes), 2**k, self.cols.shape[-1]), dtype=complex)
        out[rows, base[:, None] + register_offsets(
            k, [register.index(q) for q in self.present])] = self.cols
        return out


def _enumerate(c: Circuit, cols: np.ndarray,
               cap: int = MAX_STACK_AMPLITUDES) -> Iterator[_Stack]:
    """Breadth-first over a stack of branches, yielding each stack in walk
    order: outcome 0 before outcome 1, a dead branch where it died.

    A row holds the present qubits only, in qubit order: the 'active' ones
    before the op in `c.status.layout`; records follow `c.status.records`.
    The stack starts as a complex copy of the one branch `cols`, a (2**k, m)
    block over the k inputs; a repair writes its rows in place, and no
    yielded stack is written again.  A gate applies to every row, or to the
    rows whose record matches its condition, compiled to a (mask, value):
    Python ints decide when the first and last records agree on every bit
    read.  A dead branch stays a row of zeros that no gate touches.  A qubit
    a gate first touches joins at |0>, an inject's join in its state.  A
    measurement splits each live row into its two children, side by side,
    without the measured axis.  A stack of more than one row whose next op
    would pass `cap` amplitudes (its rows, twice that for a measurement,
    over the layout after the op) splits first: the lower half walks on,
    the upper half waits; a single row walks on whole.  Memory follows the
    cap, not 2^m; the order and each row's arithmetic are those of a
    depth-first walk of one branch."""
    records, layout = c.status.records, c.status.layout
    width, position = len(records), {op.cbit: p for p, op in enumerate(records)}
    shifts = {op.qubit: width - 1 - p for p, op in enumerate(records)}
    conditions, j = {}, 0  # (mask, value) over the j bits recorded before the op
    for k, op in enumerate(c.ops):
        j += isinstance(op, MeasureOp)
        if isinstance(op, GateOp) and op.cond_cbits:  # validation: each cbit read is written
            read = set(zip(op.cond_cbits, op.cond_values))
            bits = {1 << (j - 1 - position[b]): v for b, v in read}
            # one cbit read as both 0 and 1 never fires: -1 matches no record
            value = sum(bit * v for bit, v in bits.items()) if len(bits) == len(read) else -1
            conditions[k] = sum(bits), value
    # op index, record length, rows, records, record length where each died (0: live)
    pending = [(0, 0, cols[None].astype(complex), np.zeros(1, dtype=np.int64),
                np.zeros(1, dtype=np.int8))]
    while pending:
        k, j, cols, codes, died = pending.pop()
        dead = died.any()  # whether a gate must pass over dead rows
        while k < len(c.ops):
            op, before, after = c.ops[k], layout[k], layout[k + 1]
            grow = 2 if isinstance(op, MeasureOp) else 1
            if len(codes) > 1 and (grow * len(codes) * cols.shape[-1] << len(after)) > cap:
                half = len(codes) // 2
                pending.append((k, j, cols[half:].copy(), codes[half:], died[half:]))
                cols, codes, died = cols[:half], codes[:half], died[:half]
                dead = died.any()
                continue
            if isinstance(op, GateOp):
                if before != after:
                    cols = _insert(cols, before, after, [q for q in after if q not in before])
                targets = tuple(after.index(q) for q in op.targets)
                mask, value = conditions.get(k, (0, 0))
                lo, hi = (int(codes[0]), int(codes[-1])) if mask else (0, 0)
                if not dead and not mask & ((1 << (lo ^ hi).bit_length()) - 1):  # codes are sorted
                    if lo & mask == value:
                        cols = _apply(cols, op.resolved_matrix(), targets, len(after))
                elif (match := (codes & mask == value) & (died == 0) if dead
                      else codes & mask == value).any():
                    cols[match] = _apply(cols[match], op.resolved_matrix(), targets, len(after))
            elif isinstance(op, InjectOp):
                cols = _insert(cols, before, after, op.targets, op.amplitudes)
            elif isinstance(op, MeasureOp):
                at = before.index(op.qubit) if op.qubit in before else None
                j += 1
                cols, codes, died, dead = _measure(cols, at, codes, died, j)
            k += 1
        yield _Stack(codes << (width - j), np.where(died, died, j), died == 0,
                     cols, layout[-1], shifts)


def _bitstring(code: int, length: int, width: int) -> str:
    return format(code >> (width - length), f"0{length}b") if length else ""


def _weights(coeffs: np.ndarray) -> np.ndarray:
    size = np.abs(coeffs)
    return size * size


def _scalars(coeffs: np.ndarray) -> np.ndarray:
    size = np.abs(coeffs)
    return coeffs / np.where(size > 0, size, 1.0)  # a zero coefficient keeps a zero scalar


class BranchMap(Mapping):
    """A read-only map from outcome bitstrings to `derive` of the branches'
    coefficients, taken on first read, over at most 2^m branches in walk order;
    `present` marks the keys (None: all), and a key is built only when asked for."""

    def __init__(self, codes: np.ndarray, lengths: np.ndarray, width: int,
                 coeffs: np.ndarray, derive, present: np.ndarray | None = None):
        self._codes, self._lengths, self._width = codes, lengths, width
        self._coeffs, self._derive, self._present = coeffs, derive, present
        self._keys = slice(None) if present is None else present

    @cached_property
    def _values(self) -> np.ndarray:
        return self._derive(self._coeffs)

    def _index(self, bits) -> int | None:
        if not isinstance(bits, str) or len(bits) > self._width or bits.strip("01"):
            return None
        code = int(bits or "0", 2) << (self._width - len(bits))
        i = int(np.searchsorted(self._codes, code))
        if (i < len(self._codes) and self._codes[i] == code and self._lengths[i] == len(bits)
                and (self._present is None or self._present[i])):
            return i
        return None

    def __getitem__(self, bits):
        i = self._index(bits)
        if i is None:
            raise KeyError(bits)
        return self._values[i].item()

    def __iter__(self) -> Iterator[str]:
        for code, length in zip(self._codes[self._keys].tolist(),
                                self._lengths[self._keys].tolist()):
            yield _bitstring(code, length, self._width)

    def __len__(self) -> int:
        return len(self._codes) if self._present is None else int(np.count_nonzero(self._present))

    def values(self) -> list:
        return self._values[self._keys].tolist()

    def items(self) -> list:
        return list(zip(self, self.values()))


def register_offsets(n: int, register) -> np.ndarray:
    """Basis indices of the 2**k states of a k-qubit register within n
    qubits, every other qubit at 0; register[0] is the most significant."""
    offsets = [0]
    for q in register:
        bit = 1 << (n - 1 - q)
        offsets = [o + b for o in offsets for b in (0, bit)]
    return np.array(offsets)


def _admitted(c: Circuit) -> QubitStatus:
    """The branch engine's entry guard: the circuit must be valid and fit
    the width and measurement limits.  Returns its qubit-status pass."""
    status = c.check().status
    check_width(c.n_qubits)
    if (measurements := len(status.records)) > MAX_MEASUREMENTS:
        raise WidthOverflow(f"{measurements} measurements (2^{measurements} branches)"
                            f" exceed the {MAX_MEASUREMENTS}-measurement limit")
    return status


def _initial_columns(c: Circuit, input_state: StateVector | None) -> np.ndarray:
    k = len(c.symbolic_qubits)
    if k == 0:
        if input_state is not None:
            raise DimensionMismatch("circuit has no symbolic inputs")
        return np.ones((1, 1), dtype=complex)
    if input_state is None or input_state.n != k:
        raise DimensionMismatch(f"input must cover the {k} symbolic-input qubits")
    return input_state.amplitudes.reshape(-1, 1)


def run_all_branches(c: Circuit, input_state: StateVector | None = None) -> list[Branch]:
    """Enumerate every measurement path of a valid circuit."""
    records, measured = _admitted(c).records, c.measured_qubits()
    width, last = len(records), {op.qubit: p for p, op in enumerate(records)}
    branches = []
    for stack in _enumerate(c, _initial_columns(c, input_state)):
        for code, length, alive, mass, row in zip(
                stack.codes.tolist(), stack.lengths.tolist(), stack.live.tolist(),
                _mass(stack.cols).tolist(), stack.rows_over(range(c.n_qubits))):
            bits = tuple((code >> (width - 1 - p)) & 1 for p in range(length))
            cbits = {op.cbit: bit for op, bit in zip(records, bits)}
            values = {q: bits[p] for q, p in last.items() if p < length and q in measured}
            state = StateVector(c.n_qubits, row[:, 0]) if alive else None
            branches.append(Branch(bits, mass, state, cbits, values))
    return branches


def extract_register_state(branch: Branch, register) -> StateVector:
    """Read a sub-register's state off a branch whose other qubits are all
    measured after the last op, so the full state factorizes through their
    outcomes; a repeated or out-of-range register qubit, and a qubit
    re-injected after its measurement, are refused."""
    if branch.state is None:
        raise ValidationError("dead branches carry no state")
    register, n = tuple(register), branch.state.n
    if len(set(register)) != len(register) or any(not 0 <= q < n for q in register):
        raise DimensionMismatch(f"bad register {register} for width {n}")
    rest = [q for q in range(n) if q not in register]
    if stray := [q for q in rest if q not in branch.measured_values]:
        raise DimensionMismatch(f"qubit {stray[0]} is neither in the register nor measured")
    base = sum(branch.measured_values[q] << (n - 1 - q) for q in rest)
    amps = branch.state.amplitudes[base + register_offsets(n, register)]
    return StateVector(len(register), amps)


def equivalent_up_to_phase(a: StateVector, b: StateVector) -> tuple[bool, float]:
    """Fidelity |<a|b>| and whether it clears 1 - VERIFY_TOL."""
    if a.n != b.n:
        raise DimensionMismatch(f"qubit counts differ: {a.n} != {b.n}")
    fidelity = float(abs(np.vdot(a.amplitudes, b.amplitudes)))
    return fidelity >= 1.0 - VERIFY_TOL, fidelity


def branch_operators(c: Circuit, in_map, out_map) -> Iterator[tuple[_Stack, np.ndarray]]:
    """Evolve all computational-basis inputs at once (input qubit j on
    circuit qubit in_map[j]) and yield each `_Stack` with its rows' branch
    operators times sqrt(branch probability), zero for a dead branch: the
    amplitude blocks, out_map rows by in_map columns, where every
    non-output qubit sits at its measured value."""
    _admitted(c)
    in_map, out_map = tuple(in_map), tuple(out_map)
    if len(set(in_map)) != len(in_map) or len(set(out_map)) != len(out_map):
        raise DimensionMismatch("in_map and out_map entries must be distinct")
    if any(not 0 <= q < c.n_qubits for q in in_map + out_map):
        raise DimensionMismatch("map entries out of range")
    if set(in_map) != set(c.symbolic_qubits):
        raise DimensionMismatch("in_map must cover exactly the symbolic-input qubits")
    if stray := sorted(set(range(c.n_qubits)) - set(out_map) - c.measured_qubits()):
        raise DimensionMismatch(f"qubit {stray[0]} is neither an output nor measured;"
                                " branch operators would be ill-defined")

    order = register_offsets(len(in_map), [c.symbolic_qubits.index(q) for q in in_map])
    for stack in _enumerate(c, np.eye(len(order), dtype=complex)[order].T):
        yield stack, stack.rows_over(out_map)


def verify_gate_equivalence(c: Circuit, u: np.ndarray, in_map, out_map,
                            tol: float = VERIFY_TOL) -> EquivalenceReport:
    """Check that every nonzero branch implements u up to a unit scalar.

    u is an isometry (u†u = I) from the in_map qubits to the out_map ones:
    a gate, or with no input a state preparation, u the target state as one
    column.  The fold over `branch_operators`; with every branch dead,
    none is scored and the check fails at worst fidelity 0.  A tol outside
    (0, 1), which would pass any branch, is refused.
    """
    check_tolerance(tol)
    in_map, out_map = tuple(in_map), tuple(out_map)
    u = np.asarray(u, dtype=complex)
    dim = 2 ** len(in_map)
    if u.shape != (2 ** len(out_map), dim):
        raise DimensionMismatch("matrix shape does not match out_map by in_map")
    if not is_isometry(u, FLOOR):
        raise ValidationError("target is not a finite isometry (u†u = I) within tolerance")

    width = len(_admitted(c).records)  # every record is a leaf: at most 2^width of them
    codes, lengths, scored, coeffs = (np.zeros(1 << width, dtype=t)
                                      for t in (np.int64, np.int8, bool, complex))
    end, worst, failing = 0, 1.0, None
    sqrt_dim = np.sqrt(dim)
    u_conj = u.conj()
    for stack, blocks in branch_operators(c, in_map, out_map):
        rows = slice(end, end := end + len(stack.codes))
        codes[rows], lengths[rows] = stack.codes, stack.lengths
        total_mass = _mass(stack.cols)
        scored[rows] = ok = total_mass / dim >= ZERO
        # tr(u†·block) / dim, summed entry by entry
        coeff = np.einsum("ij,rij->r", u_conj, blocks if ok.all() else blocks[ok]) / dim
        coeffs[rows][ok] = coeff  # the dead and unscored rows keep zeros
        if len(coeff):
            fidelity = np.abs(coeff) * dim / (sqrt_dim * np.sqrt(total_mass[ok]))
            i = int(fidelity.argmin())
            if fidelity[i] < worst:
                worst = float(fidelity[i])
                if worst < 1.0 - tol:
                    failing = _bitstring(int(stack.codes[ok][i]), width, width)
    if end < len(codes):  # copy out the filled slots, freeing the rest
        codes, lengths, scored, coeffs = (a[:end].copy() for a in (codes, lengths, scored, coeffs))
    if not scored.any():
        worst, failing = 0.0, _bitstring(int(codes[0]), int(lengths[0]), width)
    return EquivalenceReport(
        passed=worst >= 1.0 - tol, worst_fidelity=float(worst), failing_branch=failing,
        branch_scalars=BranchMap(codes, lengths, width, coeffs, _scalars, scored),
        branch_weights=BranchMap(codes, lengths, width, coeffs, _weights))


def sample_branches(c: Circuit, input_state: StateVector | None, shots: int,
                    rng: np.random.Generator) -> dict[str, int]:
    """Monte-Carlo convenience: draw outcome paths from the walk's own
    probabilities, each row's `_mass` (a dead row's is 0), as
    `run_all_branches` reports them, without building any branch's state.
    Not used by any verification."""
    width = len(_admitted(c).records)
    keys, probs = [], []
    for stack in _enumerate(c, _initial_columns(c, input_state)):
        for code, length in zip(stack.codes.tolist(), stack.lengths.tolist()):
            keys.append(_bitstring(code, length, width))
        probs += _mass(stack.cols).tolist()
    probs = np.array(probs)
    probs = probs / probs.sum()
    counts: dict[str, int] = {}
    for idx in rng.choice(len(keys), size=shots, p=probs):
        counts[keys[idx]] = counts.get(keys[idx], 0) + 1
    return counts
