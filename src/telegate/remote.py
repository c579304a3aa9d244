"""Two-party protocols with locality enforcement and resource accounting.

Each protocol exists in two forms.  The pre-rewrite form contains the
quantum gate that the parties cannot actually perform (a CNOT spanning
Alice and Bob) acting on |0>-initialized wires; the post-rewrite form
replaces the offending preparation with a pre-shared EPR pair and keeps
only local gates plus classical messages.  Both forms implement the same
channel branch for branch, up to the sign the test suite pins.

Resource accounting: one ebit per injected spanning EPR pair; one cbit per
measured bit consumed by the other party, counted once no matter how many
conditional gates read it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import gates
from .circuit import (Circuit, CircuitBuilder, GateOp, InjectOp, MeasureOp,
                      STATE_LABELS)
from .errors import ValidationError
from .limits import VERIFY_TOL
from .simulator import (EquivalenceReport, StateVector, run_all_branches,
                        verify_gate_equivalence)
from .teleport import TeleportPlan, emit_teleport

ALICE = "alice"
BOB = "bob"

EPR = STATE_LABELS["epr"]


@dataclass(frozen=True)
class Resource:
    label: str
    targets: tuple[int, ...] = ()


@dataclass(frozen=True)
class PartyLayout:
    parties: dict[int, str]
    resources: tuple[Resource, ...] = ()

    def party_of(self, qubits) -> str | None:
        owners = {self.parties[q] for q in qubits}
        return owners.pop() if len(owners) == 1 else None


@dataclass(frozen=True)
class TraceStep:
    party: str
    description: str
    message: str | None = None


@dataclass(frozen=True)
class ProtocolTrace:
    steps: tuple[TraceStep, ...]
    ebits: int
    cbits_alice_to_bob: int
    cbits_bob_to_alice: int
    report: EquivalenceReport
    final_branches: tuple

    @property
    def cbits_total(self) -> int:
        return self.cbits_alice_to_bob + self.cbits_bob_to_alice


@dataclass(frozen=True)
class Protocol:
    """A built protocol: rewritten circuit, its pre-rewrite ancestor, the
    party layout for each, and the target operation on (in_map -> out_map)."""

    name: str
    circuit: Circuit
    layout: PartyLayout
    pre_rewrite: Circuit
    pre_rewrite_layout: PartyLayout
    target: np.ndarray = field(repr=False)
    in_map: tuple[int, ...] = ()
    out_map: tuple[int, ...] = ()


def locality_audit(c: Circuit, layout: PartyLayout) -> list[str]:
    """Violations: any multi-qubit gate spanning parties, or a spanning
    injection that was not declared as a pre-shared resource."""
    out: list[str] = []
    declared = {(r.targets) for r in layout.resources}
    for k, op in enumerate(c.ops):
        if isinstance(op, GateOp):
            if layout.party_of(op.targets) is None:
                name = op.name or "matrix gate"
                out.append(f"prohibited operation: cross-party {name} at op {k}")
        elif isinstance(op, InjectOp):
            if layout.party_of(op.targets) is None and op.targets not in declared:
                out.append(f"undeclared spanning injection at op {k}")
    return out


def _cbit_flows(c: Circuit,
                layout: PartyLayout) -> tuple[int, int, set[tuple[int, str]]]:
    """Count classical messages: each measured bit read by the other party
    is one message, regardless of how many conditionals consume it.  Also
    returns the messages as (cbit, reading party) pairs."""
    writer = {op.cbit: layout.parties[op.qubit] for op in c.status.records}
    sent: set[tuple[int, str]] = set()
    for op in c.ops:
        if isinstance(op, GateOp):
            reader = layout.party_of(op.targets)
            for cb in op.cond_cbits:
                if reader is not None and writer.get(cb) not in (None, reader):
                    sent.add((cb, reader))
    a_to_b = sum(1 for cb, reader in sent if reader == BOB)
    b_to_a = sum(1 for cb, reader in sent if reader == ALICE)
    return a_to_b, b_to_a, sent


def _ebits(layout: PartyLayout) -> int:
    return sum(1 for r in layout.resources
               if len({layout.parties[q] for q in r.targets}) > 1)


def _bell_teleport(b: CircuitBuilder, src: int, half: int, dest: int,
                   cbits: tuple[int, int]) -> None:
    """Teleport src onto dest through the EPR pair (half, dest) by a Bell
    measurement: the Z teleport of src onto half (`emit_teleport`), with
    its Z repair on dest, then half measured into cbits[1] and X on dest."""
    emit_teleport(b, TeleportPlan(("Z",)), [src], [half], cbits[:1])
    b.cgate([cbits[0]], [1], "Z", [dest], role="D")
    b.measure(half, cbits[1])
    b.cgate([cbits[1]], [1], "X", [dest], role="D")


def build_two_bit_teleportation(variant: str) -> Protocol:
    """Send one qubit from Alice to Bob through a shared EPR pair.

    Variant XZ chains X- then Z-teleportation; ZX chains them the other
    way (the textbook Bell-measurement circuit).  The classically
    controlled repair on the register that is measured right afterwards
    only flips a sign there, so it is omitted."""
    if variant not in ("XZ", "ZX"):
        raise ValidationError("variant must be 'XZ' or 'ZX'")
    parties = {0: ALICE, 1: ALICE, 2: BOB}
    layout = PartyLayout(parties, (Resource("epr", (1, 2)),))
    pre_layout = PartyLayout(parties, ())

    post = CircuitBuilder(3, 2, ["input", "inject", "inject"])
    pre = CircuitBuilder(3, 2, ["input", "zero", "zero"])
    # X- (or Z-) teleport q0 -> q1, then Z- (or X-) teleport q1 -> q2; the
    # second coupling (the asterisked CNOT) spans the parties.
    for i, kind in enumerate(variant):
        plan = TeleportPlan((kind,))
        emit_teleport(pre, plan, [i], [i + 1], [i])
        pre.cgate([i], [1], plan.d_ops[0], [i + 1], role="D")
    post.inject(EPR, [1, 2], label="epr", role="ancilla-prep")
    if variant == "XZ":
        post.gate("CNOT", [1, 0], role="E")
        post.measure(0, 0)
        post.cgate([0], [1], "X", [2], role="D")
        post.gate("H", [1], role="B")
        post.measure(1, 1)
        post.cgate([1], [1], "Z", [2], role="D")
    else:
        _bell_teleport(post, 0, 1, 2, (0, 1))

    return Protocol(f"teleport2-{variant.lower()}", post.build(), layout,
                    pre.build(), pre_layout, np.eye(2, dtype=complex), (0,), (2,))


def build_remote_cnot(variant: str) -> Protocol:
    """CNOT from Alice's qubit onto Bob's without quantum communication.

    direct: one-bit teleports on both sides with the cross-party CNOT
    commuted back into a single EPR pair (1 ebit, 1 cbit each way).
    four_step: send Bob's qubit over, apply the CNOT locally, send it
    back; costs two EPR pairs and four cbits."""
    if variant == "direct":
        parties = {0: ALICE, 1: ALICE, 2: BOB, 3: BOB}
        layout = PartyLayout(parties, (Resource("epr", (1, 2)),))
        pre_layout = PartyLayout(parties, ())

        pre = CircuitBuilder(4, 2, ["input", "zero", "zero", "input"])
        emit_teleport(pre, TeleportPlan(("X", "Z")), [0, 3], [1, 2], [0, 1])
        pre.cgate([0], [1], "X", [1], role="D")
        pre.cgate([1], [1], "Z", [2], role="D")
        pre.gate("CNOT", [1, 2], role="U")  # the asterisked CNOT

        post = CircuitBuilder(4, 2, ["input", "inject", "inject", "input"])
        post.inject(EPR, [1, 2], label="epr", role="ancilla-prep")
        post.gate("CNOT", [1, 0], role="E")
        post.gate("CNOT", [3, 2], role="E")
        post.gate("H", [3], role="B")
        post.measure(0, 0)
        post.measure(3, 1)
        post.cgate([0], [1], "X", [1], role="D")
        post.cgate([0], [1], "X", [2], role="D")
        post.cgate([1], [1], "Z", [1], role="D")
        post.cgate([1], [1], "Z", [2], role="D")

        return Protocol("remote-cnot", post.build(), layout, pre.build(),
                        pre_layout, gates.CNOT, (0, 3), (1, 2))

    if variant == "four_step":
        parties = {0: ALICE, 1: BOB, 2: BOB, 3: ALICE, 4: ALICE, 5: BOB}
        layout = PartyLayout(parties, (Resource("epr", (2, 3)),
                                       Resource("epr", (4, 5))))
        pre_layout = PartyLayout(parties, ())

        def body(b: CircuitBuilder):
            _bell_teleport(b, 1, 2, 3, (0, 1))  # beta (q1, Bob) onto q3 (Alice)
            b.gate("CNOT", [0, 3], role="U")  # local CNOT at Alice
            _bell_teleport(b, 3, 4, 5, (2, 3))  # the result (q3, Alice) onto q5 (Bob)

        post = CircuitBuilder(6, 4, ["input", "input", "inject", "inject",
                                     "inject", "inject"])
        post.inject(EPR, [2, 3], label="epr", role="ancilla-prep")
        post.inject(EPR, [4, 5], label="epr", role="ancilla-prep")
        body(post)

        pre = CircuitBuilder(6, 4, ["input", "input", "zero", "zero",
                                    "zero", "zero"])
        pre.gate("H", [2], role="A")
        pre.gate("CNOT", [2, 3], role="E")  # asterisked: Bob -> Alice
        pre.gate("H", [4], role="A")
        pre.gate("CNOT", [4, 5], role="E")  # asterisked: Alice -> Bob
        body(pre)

        return Protocol("remote-cnot-4step", post.build(), layout, pre.build(),
                        pre_layout, gates.CNOT, (0, 1), (0, 5))

    raise ValidationError("variant must be 'direct' or 'four_step'")


def run_protocol(protocol: Protocol, inputs: StateVector | None = None,
                 tol: float = VERIFY_TOL) -> ProtocolTrace:
    """Audit locality, verify every branch against the target operation,
    and produce the per-step trace with resource totals."""
    audit = locality_audit(protocol.circuit, protocol.layout)
    if audit:
        raise ValidationError("locality audit failed: " + "; ".join(audit))
    report = verify_gate_equivalence(protocol.circuit, protocol.target,
                                     protocol.in_map, protocol.out_map, tol=tol)
    a_to_b, b_to_a, sent = _cbit_flows(protocol.circuit, protocol.layout)

    steps: list[TraceStep] = []
    for op in protocol.circuit.ops:
        if isinstance(op, GateOp):
            party = protocol.layout.party_of(op.targets)
            text = f"{op.name or 'gate'} on {list(op.targets)}"
            if op.cond_cbits:
                cond = ",".join(f"c{b}={v}" for b, v in zip(op.cond_cbits, op.cond_values))
                text = f"if {cond}: {text}"
            steps.append(TraceStep(party, text))
        elif isinstance(op, InjectOp):
            party = protocol.layout.party_of(op.targets) or "shared"
            steps.append(TraceStep(party, f"inject {op.label or 'state'}"
                                          f" on {list(op.targets)}"))
        elif isinstance(op, MeasureOp):
            party = protocol.layout.parties[op.qubit]
            readers = sorted(reader for cb, reader in sent if cb == op.cbit)
            message = f"send bit c{op.cbit} to {readers[-1]}" if readers else None
            steps.append(TraceStep(party, f"measure q{op.qubit} -> c{op.cbit}", message))

    if inputs is None:
        final = ()
    else:
        final = tuple(run_all_branches(protocol.circuit, inputs))
    return ProtocolTrace(tuple(steps), _ebits(protocol.layout), a_to_b, b_to_a,
                         report, final)


def trace_to_json(trace: ProtocolTrace) -> str:
    doc = {
        "steps": [{"party": s.party, "op": s.description,
                   **({"message": s.message} if s.message else {})}
                  for s in trace.steps],
        "ebits": trace.ebits,
        "cbits": {"alice_to_bob": trace.cbits_alice_to_bob,
                  "bob_to_alice": trace.cbits_bob_to_alice},
        "all_branches_pass": trace.report.passed,
        "worst_fidelity": trace.report.worst_fidelity,
    }
    return json.dumps(doc, indent=1)
