"""telegate: gate synthesis and verification by one-bit teleportation.

Classify gates in the Clifford hierarchy, rewrite eligible gates into
teleported form with derived ancillas and classified corrections, prepare
the ancillas by stabilizer measurement, expand diagonal gates recursively,
and simulate two-party remote protocols -- all checked branch by branch
against an exact dense-statevector engine.
"""
import os

# OpenBLAS threads only slow these small dense products down; set before
# numpy first loads, and an explicit OPENBLAS_NUM_THREADS still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .pauli import PauliOperator, format_literal, pauli_from_matrix, pauli_to_matrix
from .clifford import CliffordFrame, clifford_from_matrix, tableau_from_gate
from .hierarchy import HierarchyVerdict, hierarchy_level
from .circuit import (Circuit, CircuitBuilder, deserialize, render, serialize,
                      validate)
from .simulator import (Branch, EquivalenceReport, StateVector, equivalent_up_to_phase,
                        run_all_branches, verify_gate_equivalence)
from .teleport import (SynthesisResult, TeleportPlan, build_generalized_teleport,
                       build_one_bit_teleport, plan_teleportation,
                       synthesize_sandwiched, synthesize_teleported_gate)
from .ancilla import (PreparationScript, StabilizerSpec, build_preparation,
                      derive_stabilizers, shortcut_preparation)
from .recursive import (GateSpec, RecursiveCircuit, ResourceReport,
                        controlled_rotation_spec, recursive_ancilla_prep,
                        resource_report, rotation_spec, synth_recursive)
from .remote import (PartyLayout, Protocol, ProtocolTrace, build_remote_cnot,
                     build_two_bit_teleportation, locality_audit, run_protocol)

__version__ = "0.1.0"

__all__ = [
    "PauliOperator", "format_literal", "pauli_from_matrix", "pauli_to_matrix",
    "CliffordFrame", "clifford_from_matrix", "tableau_from_gate",
    "HierarchyVerdict", "hierarchy_level",
    "Circuit", "CircuitBuilder", "deserialize", "render", "serialize", "validate",
    "Branch", "EquivalenceReport", "StateVector", "equivalent_up_to_phase",
    "run_all_branches", "verify_gate_equivalence",
    "SynthesisResult", "TeleportPlan", "build_generalized_teleport",
    "build_one_bit_teleport", "plan_teleportation", "synthesize_sandwiched",
    "synthesize_teleported_gate",
    "PreparationScript", "StabilizerSpec", "build_preparation",
    "derive_stabilizers", "shortcut_preparation",
    "GateSpec", "RecursiveCircuit", "ResourceReport", "controlled_rotation_spec",
    "recursive_ancilla_prep", "resource_report", "rotation_spec", "synth_recursive",
    "PartyLayout", "Protocol", "ProtocolTrace", "build_remote_cnot",
    "build_two_bit_teleportation", "locality_audit", "run_protocol",
]
