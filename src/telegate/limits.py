"""The numeric policy: every tolerance and size limit of the package, once.

ZERO              a norm or branch probability below this counts as zero.
VERIFY_TOL        the fidelity margin every branch verification must clear.
TOL               the recognition tolerance of Pauli, Clifford, level, diagonal
                  and commuting-plan checks.
FLOOR             the least tol of `clifford.checked_unitary`, the one input check of a
                  caller's matrix, and of the plan check and a synthesis's repair and
                  factor checks; hierarchy and Clifford recognition use tol itself.
MAX_QUBITS        the widest register the dense engine simulates.
MAX_MEASUREMENTS  the most measurements (2^m branches) the engine enumerates.
MAX_STACK_AMPLITUDES  the most amplitudes one stack of branches holds after any op:
                  256 rows of 16x4 columns, the level-5 check's shape.  A single
                  row over the cap still walks.  Also the most amplitudes of one
                  chunk of conjugated-generator images; a single image over it
                  is its own chunk.
MAX_HIERARCHY_LEVEL  the highest level a classification reports, and of a rotation
                  spec; on the conjugation route (non-diagonal gates) each level
                  conjugates once more and compounds the rounding error.
MAX_RECURSION_LEVEL  the deepest gate recursive synthesis and preparation expand.
MAX_RECURSION_WIDTH  the widest gate recursive synthesis and preparation expand.
MAX_PLAN_WIDTH    the widest gate given any teleport plan (a wider one would
                  reach the unbounded conjugation route); also the widest block
                  of the diagonal level's Möbius transform.

`check_tolerance` is the one range check of a tolerance: every --tol, TELEGATE_TOL,
each `simulator.verify_gate_equivalence` margin and each recognition tol (read by
`clifford.checked_unitary` and `pauli.pauli_from_matrix`) must lie in (0, 1).
"""
from .errors import ValidationError, WidthOverflow

ZERO = 1e-12
VERIFY_TOL = 1e-10
TOL = 1e-9
FLOOR = 1e-8
MAX_QUBITS = 12
MAX_MEASUREMENTS = 20
MAX_STACK_AMPLITUDES = 256 * 16 * 4
MAX_HIERARCHY_LEVEL = 20
MAX_RECURSION_LEVEL = 5
MAX_RECURSION_WIDTH = 3
MAX_PLAN_WIDTH = 4


def check_tolerance(tol: float) -> float:
    """Return tol, or raise ValidationError unless 0 < tol < 1 (NaN fails):
    at a margin of 1 or more every branch would pass."""
    if not 0 < tol < 1:
        raise ValidationError(f"tolerance {tol} is not in (0, 1)")
    return tol


def check_width(n: int) -> int:
    """Return n, or raise WidthOverflow when it exceeds MAX_QUBITS."""
    if n > MAX_QUBITS:
        raise WidthOverflow(f"{n} qubits exceeds the {MAX_QUBITS}-qubit limit")
    return n


def width_of(dim: int) -> int:
    """Qubit count of a 2**n dimension, within MAX_QUBITS."""
    n = int(dim).bit_length() - 1
    if 2**n != dim:
        raise ValidationError(f"dimension {dim} is not a power of two")
    return check_width(n)
