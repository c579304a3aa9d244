"""The projector route, kept as the reference for the stabilizer-measurement
gadget (`ancilla.emit_stabilizer_step`: one control qubit, H, controlled-M,
H, measure): measuring an involution M splits a state into (I+M)/2 and
(I-M)/2 of it, one dense product each."""

import numpy as np

from telegate.errors import ValidationError
from telegate.limits import TOL, ZERO
from telegate.simulator import Branch, StateVector


def measure_operator(s: StateVector, m: np.ndarray) -> tuple[Branch, Branch]:
    """Project onto the ±1 eigenspaces of an involution.

    Outcome 0 is the +1 eigenspace; a vanishing branch is flagged with
    probability zero and no state."""
    m = np.asarray(m, dtype=complex)
    dim = 2**s.n
    if m.shape != (dim, dim):
        raise ValidationError("operator width does not match the state")
    if np.max(np.abs(m @ m - np.eye(dim))) > TOL:
        raise ValidationError("measured operator must square to the identity")
    branches = []
    for outcome, sign in ((0, 1.0), (1, -1.0)):
        vec = (s.amplitudes + sign * (m @ s.amplitudes)) / 2.0
        p = float(np.linalg.norm(vec) ** 2)
        if p < ZERO:
            branches.append(Branch((outcome,), 0.0, None, {0: outcome}, {}))
        else:
            branches.append(Branch((outcome,), p, StateVector(s.n, vec),
                                   {0: outcome}, {}))
    return branches[0], branches[1]
