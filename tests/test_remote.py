"""Two-party protocols: verification, locality audits, resource totals,
and pre/post-rewrite branch-operator identity."""

import numpy as np
import pytest

from telegate import gates
from telegate.circuit import CircuitBuilder
from telegate.errors import ValidationError
from telegate.remote import (PartyLayout, build_remote_cnot,
                             build_two_bit_teleportation,
                             locality_audit, run_protocol, trace_to_json)
from telegate.simulator import (extract_register_state, random_state,
                                run_all_branches, state_from,
                                verify_gate_equivalence)


@pytest.mark.parametrize("variant", ["XZ", "ZX"])
def test_teleportation_delivers_random_states(variant, rng):
    p = build_two_bit_teleportation(variant)
    trace = run_protocol(p)
    assert trace.report.passed
    assert len(trace.report.branch_weights) == 4
    for w in trace.report.branch_weights.values():
        assert abs(w - 0.25) < 1e-12
    for _ in range(50):
        psi = random_state(1, rng)
        for br in run_all_branches(p.circuit, psi):
            if br.state is None:
                continue
            got = extract_register_state(br, p.out_map)
            assert abs(np.vdot(psi.amplitudes, got.amplitudes)) > 1 - 1e-10


@pytest.mark.parametrize("variant", ["XZ", "ZX"])
def test_teleportation_resources(variant):
    trace = run_protocol(build_two_bit_teleportation(variant))
    assert trace.ebits == 1
    assert trace.cbits_alice_to_bob == 2 and trace.cbits_bob_to_alice == 0


def test_teleport_zero_input():
    p = build_two_bit_teleportation("XZ")
    for br in run_all_branches(p.circuit, state_from([1.0, 0.0])):
        got = extract_register_state(br, p.out_map)
        assert abs(got.amplitudes[0]) > 1 - 1e-10


def test_remote_cnot_direct_basis_case():
    p = build_remote_cnot("direct")
    psi = state_from(np.kron([0, 1], [1, 0]))  # alice |1>, bob |0>
    for br in run_all_branches(p.circuit, psi):
        got = extract_register_state(br, p.out_map)
        # CNOT|10> = |11>: bob's wire flips
        assert abs(got.amplitudes[3]) > 1 - 1e-10


def test_remote_cnot_direct_creates_entanglement():
    p = build_remote_cnot("direct")
    plus_zero = state_from(np.kron([1, 1], [1, 0]) / np.sqrt(2))
    want = gates.CNOT @ plus_zero.amplitudes  # (|00>+|11>)/sqrt(2)
    for br in run_all_branches(p.circuit, plus_zero):
        got = extract_register_state(br, p.out_map)
        assert abs(np.vdot(want, got.amplitudes)) > 1 - 1e-10


@pytest.mark.parametrize("variant,ebits,a2b,b2a", [
    ("direct", 1, 1, 1),
    ("four_step", 2, 2, 2),
])
def test_remote_cnot_resources(variant, ebits, a2b, b2a):
    trace = run_protocol(build_remote_cnot(variant))
    assert trace.report.passed
    assert trace.ebits == ebits
    assert trace.cbits_alice_to_bob == a2b
    assert trace.cbits_bob_to_alice == b2a


def test_four_step_doubles_the_direct_cost():
    direct = run_protocol(build_remote_cnot("direct"))
    four = run_protocol(build_remote_cnot("four_step"))
    assert four.ebits == 2 * direct.ebits
    assert four.cbits_total == 2 * direct.cbits_total


def test_remote_cnot_random_inputs(rng):
    for variant in ("direct", "four_step"):
        p = build_remote_cnot(variant)
        for _ in range(50):
            psi = random_state(2, rng)
            want = gates.CNOT @ psi.amplitudes
            for br in run_all_branches(p.circuit, psi):
                if br.state is None:
                    continue
                got = extract_register_state(br, p.out_map)
                assert abs(np.vdot(want, got.amplitudes)) > 1 - 1e-10


def test_audit_accepts_rewritten_rejects_pre_rewrite():
    for p in (build_two_bit_teleportation("XZ"), build_two_bit_teleportation("ZX"),
              build_remote_cnot("direct")):
        assert locality_audit(p.circuit, p.layout) == []
        violations = locality_audit(p.pre_rewrite, p.pre_rewrite_layout)
        assert len(violations) == 1
        assert "prohibited operation" in violations[0]
        assert "CNOT" in violations[0]
    p4 = build_remote_cnot("four_step")
    assert locality_audit(p4.circuit, p4.layout) == []
    assert len(locality_audit(p4.pre_rewrite, p4.pre_rewrite_layout)) == 2


def test_audit_allows_cross_party_classical_conditions():
    b = CircuitBuilder(2, 1, ["input", "input"])
    b.measure(0, 0)
    b.cgate([0], [1], "X", [1])
    layout = PartyLayout({0: "alice", 1: "bob"})
    assert locality_audit(b.build(), layout) == []


def test_audit_flags_undeclared_spanning_injection():
    b = CircuitBuilder(2, 0, ["inject", "inject"])
    b.inject(np.array([1, 0, 0, 1]) / np.sqrt(2), [0, 1])
    layout = PartyLayout({0: "alice", 1: "bob"})
    violations = locality_audit(b.build(), layout)
    assert violations and "undeclared" in violations[0]


def test_pre_and_post_rewrite_branch_operators_identical():
    """Branch for branch the same scalar, except that a two-bit teleport
    omits the repair on the register it measures next: that flips the
    sign by (-1)^(c0·c1), on branch 11 only."""
    cases = [
        (build_two_bit_teleportation("XZ"), gates.I2, (0,), (2,), True),
        (build_two_bit_teleportation("ZX"), gates.I2, (0,), (2,), True),
        (build_remote_cnot("direct"), gates.CNOT, (0, 3), (1, 2), False),
        (build_remote_cnot("four_step"), gates.CNOT, (0, 1), (0, 5), False),
    ]
    for protocol, target, in_map, out_map, omits_repair in cases:
        rep_post = verify_gate_equivalence(protocol.circuit, target, in_map, out_map)
        rep_pre = verify_gate_equivalence(protocol.pre_rewrite, target, in_map, out_map)
        assert rep_post.passed and rep_pre.passed
        assert set(rep_post.branch_scalars) == set(rep_pre.branch_scalars)
        for bits, scalar in rep_pre.branch_scalars.items():
            sign = (-1) ** (int(bits[0]) * int(bits[1])) if omits_repair else 1
            assert abs(sign * scalar - rep_post.branch_scalars[bits]) < 1e-10


def test_cbit_counted_once_per_consumer():
    # two conditional gates reading the same bit still cost one message
    b = CircuitBuilder(2, 1, ["input", "input"])
    b.measure(0, 0)
    b.cgate([0], [1], "X", [1])
    b.cgate([0], [1], "Z", [1])
    layout = PartyLayout({0: "alice", 1: "bob"})
    from telegate.remote import _cbit_flows
    a2b, b2a, sent = _cbit_flows(b.build(), layout)
    assert a2b == 1 and b2a == 0
    assert sent == {(0, "bob")}


def test_run_protocol_aborts_on_audit_failure():
    p = build_remote_cnot("direct")
    broken = p.__class__(p.name, p.pre_rewrite, p.pre_rewrite_layout,
                         p.pre_rewrite, p.pre_rewrite_layout, p.target,
                         p.in_map, p.out_map)
    with pytest.raises(ValidationError):
        run_protocol(broken)


@pytest.mark.parametrize("build, variant, message", [
    (build_two_bit_teleportation, "XX", "variant must be 'XZ' or 'ZX'"),
    (build_remote_cnot, "x", "variant must be 'direct' or 'four_step'"),
])
def test_an_unknown_variant_is_refused(build, variant, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build(variant)


def test_trace_records_messages_and_parties(rng):
    p = build_remote_cnot("direct")
    trace = run_protocol(p, inputs=random_state(2, rng))
    assert trace.final_branches
    measure_steps = [s for s in trace.steps if s.message]
    assert len(measure_steps) == 2
    directions = {(s.party, s.message.split()[-1]) for s in measure_steps}
    assert directions == {("alice", "bob"), ("bob", "alice")}


def test_layout_and_trace_serialization():
    import json
    p = build_two_bit_teleportation("XZ")
    trace_doc = json.loads(trace_to_json(run_protocol(p)))
    assert trace_doc["ebits"] == 1
    assert trace_doc["cbits"] == {"alice_to_bob": 2, "bob_to_alice": 0}
    assert trace_doc["all_branches_pass"] is True


def _reference_pre_rewrite(protocol):
    """The hand-written pre-rewrite circuits that the teleport emitter replaced."""
    if protocol == "XZ":
        pre = CircuitBuilder(3, 2, ["input", "zero", "zero"])
        pre.gate("H", [1], role="A")
        pre.gate("CNOT", [1, 0], role="E")
        pre.measure(0, 0)
        pre.cgate([0], [1], "X", [1], role="D")
        pre.gate("CNOT", [1, 2], role="E")
        pre.gate("H", [1], role="B")
        pre.measure(1, 1)
        pre.cgate([1], [1], "Z", [2], role="D")
    elif protocol == "ZX":
        pre = CircuitBuilder(3, 2, ["input", "zero", "zero"])
        pre.gate("CNOT", [0, 1], role="E")
        pre.gate("H", [0], role="B")
        pre.measure(0, 0)
        pre.cgate([0], [1], "Z", [1], role="D")
        pre.gate("H", [2], role="A")
        pre.gate("CNOT", [2, 1], role="E")
        pre.measure(1, 1)
        pre.cgate([1], [1], "X", [2], role="D")
    else:
        pre = CircuitBuilder(4, 2, ["input", "zero", "zero", "input"])
        pre.gate("H", [1], role="A")
        pre.gate("CNOT", [1, 0], role="E")
        pre.gate("CNOT", [3, 2], role="E")
        pre.gate("H", [3], role="B")
        pre.measure(0, 0)
        pre.measure(3, 1)
        pre.cgate([0], [1], "X", [1], role="D")
        pre.cgate([1], [1], "Z", [2], role="D")
        pre.gate("CNOT", [1, 2], role="U")
    return pre.build()


@pytest.mark.parametrize("protocol", ["XZ", "ZX", "direct"])
def test_pre_rewrite_matches_hand_written_ops(protocol):
    p = (build_remote_cnot(protocol) if protocol == "direct"
         else build_two_bit_teleportation(protocol))
    assert p.pre_rewrite == _reference_pre_rewrite(protocol)
