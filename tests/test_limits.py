"""The numeric policy has one owner, `telegate.limits`: no tolerance
literal or width cap is written anywhere else in the package, and every
caller's matrix passes the one unitarity guard, `clifford.checked_unitary`."""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from telegate import ancilla, gates, hierarchy, recursive, remote, teleport
from telegate.circuit import CircuitBuilder
from telegate.cli import tolerance
from telegate.clifford import clifford_from_matrix, tableau_from_gate
from telegate.errors import ValidationError, WidthOverflow
from telegate.limits import MAX_QUBITS, TOL, VERIFY_TOL, check_tolerance, check_width, width_of
from telegate.pauli import pauli_from_matrix
from telegate.simulator import verify_gate_equivalence

SRC = Path(__file__).resolve().parent.parent / "src" / "telegate"


def test_no_float_literal_outside_limits():
    """Docstrings and comments included: a written-out threshold is a fork
    of the policy."""
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(SRC.glob("*.py")) if path.name != "limits.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\d+e-\d+", line)]
    assert hits == []


def test_max_qubits_assigned_once():
    sites = [path.name for path in sorted(SRC.glob("*.py"))
             for line in path.read_text().splitlines()
             if re.match(r"\s*MAX_QUBITS\s*=", line)]
    assert sites == ["limits.py"]


def test_width_of_and_check_width():
    assert [width_of(2**n) for n in range(MAX_QUBITS + 1)] == list(range(MAX_QUBITS + 1))
    assert check_width(MAX_QUBITS) == MAX_QUBITS
    for dim in (0, 3, 6, 12):
        with pytest.raises(ValidationError, match=f"dimension {dim} is not a power of two"):
            width_of(dim)
    with pytest.raises(WidthOverflow, match=f"{MAX_QUBITS + 1} qubits exceeds the"
                                            f" {MAX_QUBITS}-qubit limit"):
        width_of(2 ** (MAX_QUBITS + 1))


def test_no_log2_width_outside_limits():
    """Every qubit count read off a dimension goes through width_of."""
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if "np.log2" in line]
    assert hits == []


def test_every_limit_is_assigned_in_limits():
    sites = [f"{path.name}: {line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "limits.py"
             for line in path.read_text().splitlines()
             if re.match(r"MAX_\w*\s*=", line)]
    assert sites == []


IDENTITY = tableau_from_gate("I")
ENTRY_POINTS = {
    "hierarchy_level": hierarchy.hierarchy_level,
    "clifford_from_matrix": clifford_from_matrix,
    "plan_teleportation": teleport.plan_teleportation,
    "plan_commutes": lambda m: teleport.plan_commutes(m, ("X",)),
    "synthesize_teleported_gate": teleport.synthesize_teleported_gate,
    "synthesize_sandwiched(u)": lambda m: teleport.synthesize_sandwiched(
        m, IDENTITY, IDENTITY.matrix, IDENTITY),
    "synthesize_sandwiched(V)": lambda m: teleport.synthesize_sandwiched(
        IDENTITY.matrix, IDENTITY, m, IDENTITY),
    "derive_stabilizers": lambda m: ancilla.derive_stabilizers(m, ("H",)),
    "synth_recursive": lambda m: recursive.synth_recursive(recursive.matrix_spec(m)),
    "recursive_ancilla_prep": lambda m: recursive.recursive_ancilla_prep(recursive.matrix_spec(m)),
}
NOT_UNITARY = {
    "shear": np.array([[1, 1], [0, 1]], dtype=complex),
    "nan-diagonal": np.diag([np.nan, 1]).astype(complex),
    "twice-identity": 2 * np.eye(2, dtype=complex),
}


@pytest.mark.parametrize("matrix", NOT_UNITARY.values(), ids=NOT_UNITARY.keys())
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_every_entry_point_refuses_a_matrix_that_is_not_unitary(entry, matrix):
    """The same refusal everywhere, and no warning on the way to it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match="^input matrix is not unitary within tolerance$"):
            entry(matrix)


def test_the_unitarity_refusal_is_written_once():
    sites = [path.name for path in sorted(SRC.glob("*.py"))
             for line in path.read_text().splitlines()
             if "not unitary within tolerance" in line]
    assert sites == ["clifford.py"]


def _one_qubit_x():
    b = CircuitBuilder(1, 0, ["input"])
    b.gate("X", [0])
    return b.build()


VERIFIERS = {
    "verify_gate_equivalence": lambda tol: verify_gate_equivalence(
        _one_qubit_x(), np.diag([1, -1]), [0], [0], tol=tol),
    "synth_recursive": lambda tol: recursive.synth_recursive(recursive.rotation_spec(3), tol=tol),
    "verify_preparation": lambda tol: recursive.verify_preparation(
        recursive.recursive_ancilla_prep(recursive.rotation_spec(3)), tol=tol),
    "run_protocol": lambda tol: remote.run_protocol(
        remote.build_two_bit_teleportation("XZ"), tol=tol),
}
OUT_OF_RANGE = (0, 1, 5, float("inf"), float("nan"), -1)


@pytest.mark.parametrize("tol", OUT_OF_RANGE)
@pytest.mark.parametrize("entry", VERIFIERS.values(), ids=VERIFIERS.keys())
def test_every_verification_refuses_a_tolerance_outside_the_unit_interval(entry, tol):
    """At tol >= 1 any branch clears 1 - tol: X against Z would pass."""
    with pytest.raises(ValidationError, match=rf"^tolerance {tol} is not in \(0, 1\)$"):
        entry(tol)


RECOGNIZERS = {
    "hierarchy_level": lambda tol: hierarchy.hierarchy_level(gates.T, tol=tol),
    "clifford_from_matrix": lambda tol: clifford_from_matrix(gates.H, tol=tol),
    "pauli_from_matrix": lambda tol: pauli_from_matrix(gates.X, tol=tol),
    "plan_teleportation": lambda tol: teleport.plan_teleportation(gates.H, tol=tol),
    "plan_commutes": lambda tol: teleport.plan_commutes(gates.H, ("X",), tol=tol),
    "synthesize_teleported_gate": lambda tol: teleport.synthesize_teleported_gate(
        gates.T, tol=tol),
    "synthesize_sandwiched": lambda tol: teleport.synthesize_sandwiched(
        gates.T, IDENTITY, gates.T, IDENTITY, tol=tol),
    "derive_stabilizers": lambda tol: ancilla.derive_stabilizers(gates.T, ("H",), tol=tol),
}


@pytest.mark.parametrize("tol", OUT_OF_RANGE)
@pytest.mark.parametrize("entry", RECOGNIZERS.values(), ids=RECOGNIZERS.keys())
def test_every_recognizer_refuses_a_tolerance_outside_the_unit_interval(entry, tol):
    """At tol 5, T would read as level 1 and H would commute with an X
    teleport's coupling."""
    with pytest.raises(ValidationError, match=rf"^tolerance {tol} is not in \(0, 1\)$"):
        entry(tol)


def test_the_tolerance_range_is_checked_once():
    assert [check_tolerance(t) for t in (VERIFY_TOL, TOL, 0.5)] == [VERIFY_TOL, TOL, 0.5]
    assert tolerance("1e-3") == 1e-3
    for text in ("0", "1", "5", "inf", "nan", "-1", "abc"):
        with pytest.raises(ValueError):
            tolerance(text)
    sites = [path.name for path in sorted(SRC.glob("*.py"))
             for line in path.read_text().splitlines() if "is not in (0, 1)" in line]
    assert sites == ["limits.py"]
