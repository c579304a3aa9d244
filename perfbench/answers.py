"""Known answers the benchmark checks every job against.

Every entry is written down by hand from the source paper, the hierarchy's
definition, or the repository's acceptance criteria (tests/test_acceptance.py
and the README).  Nothing here is computed by the package under test, so a
wrong result cannot agree with itself.
"""
from __future__ import annotations

import numpy as np


class Miss(Exception):
    """A job's result disagrees with its known answer."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Miss(what)


# Level 1 is the Pauli group, level 2 the Clifford group, and level k+1 the
# gates that conjugate Paulis into level k.  The acceptance criteria pin
# X, Z; H, S, CNOT, CZ, SWAP; T, CS, TOFFOLI, CH.  The rest follow from the
# definition: I and Y are Paulis; S†, Q = S†HS and Q† are Clifford
# products; T† and CS† are inverses of diagonal level-3 gates.
LIBRARY_LEVELS = {
    "I": 1, "X": 1, "Y": 1, "Z": 1,
    "H": 2, "S": 2, "S†": 2, "Q": 2, "Q†": 2, "CNOT": 2, "CZ": 2, "SWAP": 2,
    "T": 3, "T†": 3, "CS": 3, "CS†": 3, "CH": 3, "TOFFOLI": 3,
}

# diag(1, e^{2πi/2^k}) sits at level k (k = 1 is Z).
LADDER_LEVELS = {k: k for k in range(1, 6)}

# Doubly-controlled S.
CCS_LEVEL = 4

# A teleported gate's repairs U·D·U† lie one level below U, so a level-2
# gate is repaired by Paulis and a level-3 gate by Paulis or Cliffords.
REPAIR_CLASSES = {2: {"pauli"}, 3: {"pauli", "clifford"}}

# Acceptance criteria 2-4: the standard ancillas and the Toffoli plan.
SQRT_HALF = 1 / np.sqrt(2)
ANCILLAS = {
    "T": np.array([SQRT_HALF, SQRT_HALF * np.exp(1j * np.pi / 4)]),
    "CS": np.array([1, 1, 1, 1j]) / 2,
    "TOFFOLI": np.array([0.5, 0, 0.5, 0, 0.5, 0, 0, 0.5]),
}
PLANS = {"TOFFOLI": "XXZ"}

# Acceptance criterion 7: the basis-change layer A of each ancilla's plan.
A_LAYERS = {"T": ("H",), "CS": ("H", "H"), "TOFFOLI": ("H", "H", "I")}

# resource_report of the recursive expansion: (measurements, tree depth).
# Rotations V_k need k-2 of each (acceptance criterion 8); the controlled
# cases come from the roadmap's accounting, and depth is always level - 2.
RECURSION = {
    "V4": (2, 2), "V5": (3, 3), "CV4": (6, 2), "CCV3": (3, 1),
    "CCV4": (12, 2), "CV5": (18, 3), "CV3": (2, 1),
}

# Two-party protocols: (ebits, classical bits).
REMOTE_COSTS = {
    "teleport2-xz": (1, 2), "teleport2-zx": (1, 2),
    "remote-cnot": (1, 2), "remote-cnot-4step": (2, 4),
}

# Fidelity floors: the tolerances the public calls are run with.
SYNTH_TOL = 1e-10
RECURSION_TOL = 1e-9

# What each CLI launch must print, besides exiting 0.
CLI_VERDICTS = {
    ("hierarchy", "T"): "level 3",
    ("synth", "T"): "verified: all branches",
    ("remote", "--protocol", "remote-cnot"): "1 ebit(s), 2 cbit(s)",
    ("ancilla", "T", "--simulate"): "-> PASS",
}


def expect_branches(weights: dict, measurements: int, what: str) -> None:
    """Each of the 2^m outcome patterns is present and, since every
    teleportation outcome is uniformly random, carries weight 2^-m."""
    expect(len(weights) == 2**measurements,
           f"{what}: {len(weights)} branches, want {2**measurements}")
    want = 2.0**-measurements
    expect(all(abs(w - want) <= 1e-9 for w in weights.values()),
           f"{what}: branch weights differ from {want}")


def expect_fidelity(worst: float, tol: float, what: str) -> None:
    expect(worst >= 1.0 - tol, f"{what}: worst fidelity {worst!r} below 1 - {tol}")
