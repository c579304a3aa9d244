"""Circuit IR: validation rules, serialization round-trips, rendering."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from telegate import circuit, gates
from telegate.circuit import (Circuit, CircuitBuilder, GateOp,
                              InjectOp, MeasureOp, STATE_LABELS, deserialize,
                              matrix_doc, matrix_from_doc, render, serialize,
                              state_doc, validate)
from telegate.errors import (CircuitFormatError, ClassificationError, InvalidCircuitError,
                             TelegateError, WidthOverflow)
from telegate.simulator import verify_gate_equivalence
from telegate.teleport import TeleportPlan, build_one_bit_teleport, emit_teleport


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_valid_circuit(rng, n_qubits, max_ops=20):
    """Random gates, measurements, conditionals, and re-injections that
    respect the structural rules by construction."""
    n_cbits = max_ops
    b = CircuitBuilder(n_qubits, n_cbits,
                       ["input" if rng.random() < 0.5 else "zero"
                        for _ in range(n_qubits)])
    measured: list[int] = []
    written: list[int] = []
    next_cbit = 0
    live = set(range(n_qubits))
    one_q = ("H", "S", "T", "X", "Z")
    for _ in range(int(rng.integers(1, max_ops + 1))):
        roll = rng.random()
        if roll < 0.45 and live:
            q = int(rng.choice(sorted(live)))
            if rng.random() < 0.3 and len(live) > 1:
                q2 = int(rng.choice(sorted(live - {q})))
                b.gate("CNOT", [q, q2])
            elif rng.random() < 0.2:
                b.gate(random_unitary(rng, 2), [q])
            else:
                b.gate(str(rng.choice(one_q)), [q])
        elif roll < 0.6 and written and live:
            q = int(rng.choice(sorted(live)))
            cb = int(rng.choice(written))
            b.cgate([cb], [int(rng.integers(0, 2))], str(rng.choice(one_q)), [q])
        elif roll < 0.8 and live:
            q = int(rng.choice(sorted(live)))
            b.measure(q, next_cbit)
            written.append(next_cbit)
            next_cbit += 1
            measured.append(q)
            live.discard(q)
        elif measured:
            q = measured.pop(int(rng.integers(0, len(measured))))
            amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b.inject(amps, [q])
            live.add(q)
    return b.build()


def recycled_round_trip():
    """X-teleport q0 onto q1, re-inject q0 at |0>, X-teleport q1 back onto
    q0: the identity on q0, which ends live though it was measured once."""
    b, plan = CircuitBuilder(2, 2, ["input", "zero"]), TeleportPlan(("X",))
    emit_teleport(b, plan, [0], [1], [0])
    b.cgate([0], [1], "X", [1], role="D")
    b.inject([1, 0], [0])
    emit_teleport(b, plan, [1], [0], [1])
    b.cgate([1], [1], "X", [0], role="D")
    return b.build()


def test_well_formed_teleport_validates():
    c = build_one_bit_teleport("X", 1)
    assert validate(c) == []


def test_gate_after_measure_flagged():
    c = Circuit(2, 1, ("input", "input"),
                (MeasureOp(0, 0), GateOp((0,), name="H")))
    violations = validate(c)
    assert len(violations) == 1 and "op 1" in violations[0]
    assert "single-measurement" in violations[0]


def test_conditional_before_measure_flagged():
    c = Circuit(1, 1, ("input",),
                (GateOp((0,), name="X", cond_cbits=(0,), cond_values=(1,)), MeasureOp(0, 0)))
    assert any("causality" in v for v in validate(c))


def test_inject_on_live_input_flagged():
    c = Circuit(1, 0, ("input",),
                (InjectOp((0,), np.array([1.0, 0.0], dtype=complex)),))
    assert any("fixed-|0>" in v for v in validate(c))


def test_validate_is_total_on_junk():
    c = Circuit(2, 1, ("input", "zero"), (
        GateOp((5,), name="H"),
        GateOp((0, 0), name="CNOT"),
        GateOp((0,), name="CNOT"),
        MeasureOp(1, 7),
        GateOp((0,), name="X", cond_cbits=(0,), cond_values=()),
        GateOp((1,), name=None, matrix=None),
    ))
    violations = validate(c)  # must not raise
    assert len(violations) >= 5


def test_cgate_with_empty_condition_appends_a_plain_gate():
    b, ref = CircuitBuilder(1, 0), CircuitBuilder(1, 0)
    b.cgate([], [], "X", [0], role="D")
    ref.gate("X", [0], role="D")
    assert b.ops == ref.ops and isinstance(b.ops[0], GateOp)


def test_deserialized_cgate_with_empty_condition_is_malformed():
    doc = {"format": "telegate-circuit/1", "qubits": 1, "cbits": 0, "inputs": ["input"],
           "ops": [{"op": "cgate", "cond": {"cbits": [], "equals": []},
                    "name": "X", "targets": [0]}]}
    with pytest.raises(InvalidCircuitError, match="malformed classical condition"):
        deserialize(json.dumps(doc))


def test_serialize_refuses_invalid():
    c = Circuit(2, 1, ("input", "input"),
                (MeasureOp(0, 0), GateOp((0,), name="H")))
    with pytest.raises(InvalidCircuitError):
        serialize(c)


def test_empty_circuit_round_trip():
    c = Circuit(1, 0, ("input",), ())
    doc = json.loads(serialize(c))
    assert doc["qubits"] == 1 and doc["ops"] == []
    assert deserialize(serialize(c)) == c


def test_teleport_circuit_round_trip():
    for kind in ("X", "Z"):
        c = build_one_bit_teleport(kind, 2)
        assert deserialize(serialize(c)) == c


def test_injected_amplitudes_round_trip_bit_exact():
    amps = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2.0)
    b = CircuitBuilder(1, 0, ["inject"])
    b.inject(amps, [0])
    c = b.build()
    back = deserialize(serialize(c))
    assert back == c
    got = back.ops[0].amplitudes
    assert np.array_equal(got, c.ops[0].amplitudes)


def test_label_injection_round_trip():
    b = CircuitBuilder(2, 0, ["inject", "inject"])
    b.inject(STATE_LABELS["T-ancilla"], [0], label="T-ancilla")
    b.inject(np.array([1, 0], dtype=complex), [1])
    c = b.build()
    text = serialize(c)
    assert '"label": "T-ancilla"' in text
    assert deserialize(text) == c


def test_random_corpus_round_trip(rng):
    for _ in range(60):
        c = random_valid_circuit(rng, int(rng.integers(1, 5)))
        assert validate(c) == []
        assert deserialize(serialize(c)) == c


def test_matrix_gates_round_trip(rng):
    m = random_unitary(rng, 4)
    b = CircuitBuilder(2, 0, ["input", "input"])
    b.gate(m, [0, 1])
    c = b.build()
    back = deserialize(serialize(c))
    assert back == c
    assert np.array_equal(back.ops[0].matrix, c.ops[0].matrix)


def test_parse_error_carries_position():
    with pytest.raises(CircuitFormatError) as err:
        deserialize("{ not json }")
    assert err.value.line == 1


def test_format_marker_required():
    with pytest.raises(CircuitFormatError):
        deserialize(json.dumps({"qubits": 1, "cbits": 0, "ops": []}))


def test_unknown_label_rejected():
    doc = {"format": "telegate-circuit/1", "qubits": 1, "cbits": 0,
           "inputs": ["inject"],
           "ops": [{"op": "inject", "state": {"label": "nope"}, "targets": [0]}]}
    with pytest.raises(CircuitFormatError):
        deserialize(json.dumps(doc))


def test_semantic_violations_surface_on_load():
    doc = {"format": "telegate-circuit/1", "qubits": 1, "cbits": 1,
           "inputs": ["input"],
           "ops": [{"op": "measure", "qubit": 0, "cbit": 0},
                   {"op": "gate", "name": "H", "targets": [0]}]}
    with pytest.raises(InvalidCircuitError):
        deserialize(json.dumps(doc))


def test_declared_width_over_the_limit_is_refused_before_reading_on():
    # no inputs field (its default is one tag per declared qubit) and an op
    # that would be malformed: the width is refused before either is built
    doc = {"format": "telegate-circuit/1", "qubits": 1_000_000, "cbits": 0, "ops": ["H"]}
    with pytest.raises(WidthOverflow, match="^1000000 qubits exceeds the 12-qubit limit$"):
        deserialize(json.dumps(doc))


def test_render_mentions_every_wire():
    c = build_one_bit_teleport("Z", 1)
    art = render(c)
    lines = art.splitlines()
    assert len(lines) == 3  # two wires plus one classical lane
    assert "[M->c0]" in art and "[Z]" in art


def test_render_marks_injections_and_toffoli_wires():
    b = CircuitBuilder(3, 0, ["input", "input", "inject"])
    b.inject(STATE_LABELS["T-ancilla"], [2], label="T-ancilla")
    b.gate("TOFFOLI", [0, 1, 2])
    lines = render(b.build()).splitlines()
    assert "[inject:T-ancilla]" in lines[2]
    assert [line[-3:] for line in lines] == ["-*-", "-*-", "-+-"]


def _pair_encoder(values):
    # the hand-rolled encoder the shared codec replaced
    return [[float(z.real), float(z.imag)] for z in values]


def test_complex_codec_matches_hand_rolled_encoder(rng):
    m = random_unitary(rng, 4)
    m[0, 1] = complex(-0.0, 0.0)
    m[2, 3] = complex(0.0, -0.0)
    m[3, 0] = complex(-0.0, -0.0)
    text = json.dumps(matrix_doc(m))
    assert text == json.dumps([_pair_encoder(row) for row in m])
    assert "-0.0" in text
    v = m[:, 0]
    assert json.dumps(state_doc(v)) == json.dumps(_pair_encoder(v))
    assert state_doc(complex(-0.0, 1.5)) == [[-0.0, 1.5]]


def test_matrix_codec_round_trip_is_exact(rng):
    m = random_unitary(rng, 8)
    m[1, 1] = complex(-0.0, -0.0)
    back = matrix_from_doc(json.loads(json.dumps(matrix_doc(m))))
    assert np.array_equal(back, m)
    assert np.array_equal(np.signbit(back.real), np.signbit(m.real))
    assert np.array_equal(np.signbit(back.imag), np.signbit(m.imag))


def test_shared_arrays_are_read_only():
    with pytest.raises(ValueError):
        gates.matrix_of("X")[0, 0] = 1.0
    for name in gates.GATE_NAMES:
        assert not gates.matrix_of(name).flags.writeable, name
    for label, amps in STATE_LABELS.items():
        assert not amps.flags.writeable, label
    assert np.array_equal(gates.matrix_of("X"), [[0, 1], [1, 0]])


def test_builder_leaves_the_callers_matrix_writeable():
    """Ops hold their own read-only copies, built directly or by the builder."""
    m, amps = np.array(gates.H), np.array([1, 0], dtype=complex)
    b = CircuitBuilder(1, 1, ["input"])
    b.gate(m, [0]).measure(0, 0)
    b.alloc_qubits(1, "zero")
    b.cgate([0], [1], m, [1])
    direct, injected = GateOp((0,), matrix=m), InjectOp((0,), amps)
    c = Circuit(1, 0, ("input",), (direct,))
    before = verify_gate_equivalence(c, gates.H, [0], [0])
    assert m.flags.writeable and amps.flags.writeable
    for op in (b.ops[0], b.ops[2], direct):
        assert not op.matrix.flags.writeable
    assert not injected.amplitudes.flags.writeable
    m[:] = 0.0  # the owner's edits do not reach the ops
    amps[0] = 0.0
    assert b.ops[0].matrix[0, 0] == b.ops[2].matrix[0, 0] == direct.matrix[0, 0] == gates.H[0, 0]
    assert injected.amplitudes[0] == 1.0
    after = verify_gate_equivalence(c, gates.H, [0], [0])
    assert after.worst_fidelity == before.worst_fidelity
    assert dict(after.branch_scalars.items()) == dict(before.branch_scalars.items()) != {}


def test_ops_compare_field_by_field():
    h = np.array(gates.H)
    m = h.copy()
    m[1, 1] *= np.exp(1e-15j)  # one entry off by a last-bit phase: still unitary
    cond = GateOp((0,), name="X", cond_cbits=(0, 1), cond_values=(1, 0))
    amps = InjectOp((0,), STATE_LABELS["T-ancilla"], label="T-ancilla")
    for op, twin, other in [
        (GateOp((0,), matrix=h), GateOp((0,), matrix=gates.H), GateOp((0,), matrix=m)),
        (GateOp((0,), matrix=h), GateOp((0,), matrix=h), GateOp((0,), name="H")),
        (cond, replace(cond), replace(cond, cond_values=(1, 1))),
        (MeasureOp(0, 0), MeasureOp(0, 0), MeasureOp(0, 0, role="M")),
        (amps, replace(amps), replace(amps, role="anc")),
        (amps, replace(amps), InjectOp((0,), STATE_LABELS["T-ancilla"])),
        (Circuit(1, 1, ("input",), (cond,)), Circuit(1, 1, ("input",), (replace(cond),)),
         Circuit(1, 1, ("input",), (replace(cond, role="R"),))),
    ]:
        assert op == twin and not op != twin
        assert op != other and other != op
        assert op != (op,) and op != None  # noqa: E711
        with pytest.raises(TypeError):
            hash(op)


def test_builder_allocates_qubits_and_cbits():
    b = CircuitBuilder(1, 0, ["input"])
    assert b.alloc_qubits(2, "zero") == [1, 2]
    assert b.alloc_cbits(2) == [0, 1]
    b.gate("CNOT", [0, 1]).measure(1, 0).measure(2, 1)
    c = b.build()
    assert (c.n_qubits, c.n_cbits, c.inputs) == (3, 2, ("input", "zero", "zero"))


def _document(c):
    """c's file document, written whether or not c is valid."""
    return {"format": "telegate-circuit/1", "qubits": c.n_qubits, "cbits": c.n_cbits,
            "inputs": list(c.inputs), "ops": [circuit._op_doc(op) for op in c.ops]}


_H = GateOp((0,), name="H")
_INJECT_0 = InjectOp((0,), np.array([1, 0], dtype=complex))


# One minimal circuit per violation, the message validate gives it, and the
# error deserialize raises for its document (None: no document can say it).
@pytest.mark.parametrize("c,message,load_error", [
    (Circuit(1, -5, ("input",), ()), "counts: 1 qubits and -5 cbits; neither may be negative",
     InvalidCircuitError),
    (Circuit(-1, 0, (), ()), "counts: -1 qubits and 0 cbits; neither may be negative",
     InvalidCircuitError),
    (Circuit(2, 0, ("input",), ()), "one tag per qubit", InvalidCircuitError),
    (Circuit(1, 0, ("bogus",), ()), "unknown tag 'bogus' on qubit 0", InvalidCircuitError),
    (Circuit(1, 0, ("input",), (GateOp((0,), name="BOGUS"),)),
     "op 0: unknown gate name 'BOGUS'", ClassificationError),
    (Circuit(2, 0, ("input",) * 2, (GateOp((0, 1), matrix=gates.H),)),
     "op 0: matrix shape does not match 2 targets", InvalidCircuitError),
    (Circuit(1, 0, ("inject",), (_H,)),
     "op 0: gate on qubit 0 before its injected state arrives", InvalidCircuitError),
    (Circuit(1, 1, ("input",), (MeasureOp(0, 0), GateOp((0,), name="X", cond_cbits=(3,),
                                                       cond_values=(1,)))),
     "op 1: cbit 3 out of range", InvalidCircuitError),
    (Circuit(2, 1, ("input",) * 2, (MeasureOp(0, 0), GateOp((1,), name="X", cond_cbits=(0,),
                                                           cond_values=(2,)))),
     "op 1: condition values must be bits", InvalidCircuitError),
    (Circuit(1, 1, ("input",), (MeasureOp(3, 0),)), "op 0: qubit 3 out of range",
     InvalidCircuitError),
    (Circuit(1, 2, ("input",), (MeasureOp(0, 0), MeasureOp(0, 1))),
     "op 1: qubit 0 measured twice", InvalidCircuitError),
    (Circuit(1, 1, ("inject",), (MeasureOp(0, 0), _INJECT_0)),
     "op 0: measuring qubit 0 before its injected state", InvalidCircuitError),
    (Circuit(2, 1, ("input",) * 2, (MeasureOp(0, 0), MeasureOp(1, 0))),
     "op 1: cbit 0 written twice", InvalidCircuitError),
    (Circuit(1, 0, ("inject",), (InjectOp((0,), np.array([1, 0, 0, 0], dtype=complex)),)),
     "op 0: injected state length does not match targets", InvalidCircuitError),
    (Circuit(1, 0, ("input",), ("H",)), "op 0: unknown op variant str", None),
    (Circuit(1, 0, ("input",), (_INJECT_0,)),
     "op 0: inject target 0 must be fixed-|0> or measured-and-retired", InvalidCircuitError),
    (Circuit(2, 0, ("inject",) * 2, (InjectOp((0, 0), STATE_LABELS["epr"]),)),
     "op 0: repeated targets (0, 0)", InvalidCircuitError),
    (Circuit(1, 0, ("inject",), (InjectOp((3,), np.array([1, 0], dtype=complex)),)),
     "op 0: qubit 3 out of range", InvalidCircuitError),
])
def test_each_violation_is_reported(c, message, load_error):
    assert any(message in v for v in validate(c)), validate(c)
    if load_error is not None:
        with pytest.raises(load_error) as err:
            deserialize(json.dumps(_document(c)))
        assert isinstance(err.value, TelegateError)


@pytest.mark.parametrize("field,value,where", [
    ("qubits", "x", "field 'qubits'"),
    ("cbits", float("inf"), "field 'cbits'"),
    ("ops", 3, "field 'ops'"),
    ("ops", [{"op": "gate", "name": "H", "targets": 0}], "op 0"),
    ("ops", ["H"], "op 0"),
    ("ops", [{"op": "gate", "name": "H", "targets": [0]},
             {"op": "cgate", "cond": [0], "name": "X", "targets": [0]}], "op 1"),
])
def test_malformed_fields_are_format_errors(field, value, where):
    doc = {"format": "telegate-circuit/1", "qubits": 1, "cbits": 0, "inputs": ["input"],
           "ops": [], field: value}
    with pytest.raises(CircuitFormatError, match=f"^{where} is malformed"):
        deserialize(json.dumps(doc))


def _gate(**fields):
    return {"op": "cgate", "name": "X", "targets": [0], "cond": {"cbits": [0], "equals": [1]},
            **fields}


@pytest.mark.parametrize("field,value,name", [
    ("qubits", 2.9, "qubits"), ("qubits", True, "qubits"), ("qubits", "1", "qubits"),
    ("cbits", 1.0, "cbits"), ("cbits", False, "cbits"),
    ("ops", [{"op": "gate", "name": "H", "targets": [0.7]}], "targets"),
    ("ops", [{"op": "gate", "name": "H", "targets": [True]}], "targets"),
    ("ops", [{"op": "measure", "qubit": 0.0, "cbit": 0}], "qubit"),
    ("ops", [{"op": "measure", "qubit": 0, "cbit": "0"}], "cbit"),
    ("ops", [_gate(cond={"cbits": [0.0], "equals": [1]})], "cbits"),
    ("ops", [_gate(cond={"cbits": [0], "equals": [True]})], "equals"),
    ("ops", [{"op": "inject", "state": {"label": "T-ancilla"}, "targets": [1.5]}], "targets"),
])
def test_a_count_or_index_must_be_a_json_integer(field, value, name):
    """A fractional, boolean or string count or index is refused, naming
    its field; `int` would truncate 2.9 qubits and targets [0.7, 1.2] to a
    2-qubit CNOT on [0, 1]."""
    doc = {"format": "telegate-circuit/1", "qubits": 1, "cbits": 1, "inputs": ["input"],
           "ops": [], field: value}
    where = f"field '{field}'" if field != "ops" else "op 0"
    with pytest.raises(CircuitFormatError,
                       match=f"^{where} is malformed: '{name}' must be an integer, not "):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize("qubits,cbits,inputs", [(1, -5, ["input"]), (-1, 0, [])])
def test_a_negative_count_is_refused_before_anything_else(qubits, cbits, inputs):
    """Refused by its own violation: unchecked, `"cbits": -5` loaded, wrote
    itself back and verified, and `"qubits": -1` read as a missing input tag."""
    message = f"counts: {qubits} qubits and {cbits} cbits; neither may be negative"
    doc = {"format": "telegate-circuit/1", "qubits": qubits, "cbits": cbits,
           "inputs": inputs, "ops": []}
    with pytest.raises(InvalidCircuitError) as err:
        deserialize(json.dumps(doc))
    assert err.value.violations == [message]
    with pytest.raises(InvalidCircuitError, match=f"^invalid circuit: {re.escape(message)}$"):
        CircuitBuilder(qubits, cbits, inputs).build()


@pytest.mark.parametrize("label", ["T-ancilla", "bogus"])
def test_inject_label_must_name_its_amplitudes(label):
    b = CircuitBuilder(1, 0, ["inject"]).inject([1, 0], [0], label=label)
    with pytest.raises(InvalidCircuitError, match=f"state label '{label}' does not name"):
        b.build()


_NOT_FINITE_UNITARY = [np.zeros((2, 2)), 2 * gates.T, np.array([[np.nan, 0], [0, 1]]),
                       np.array([[np.inf, 0], [0, 1]]), np.zeros(0), 2 * np.eye(2)]


@pytest.mark.parametrize("bad", _NOT_FINITE_UNITARY)
def test_a_gate_matrix_must_be_a_finite_unitary(bad):
    """A gate op certifies its matrix however it is made, so a gate that
    loses probability, or holds a NaN, never reaches a branch."""
    message = "gate matrix is not a finite unitary"
    with pytest.raises(InvalidCircuitError, match=message):
        CircuitBuilder(1, 0).gate(bad, [0])
    with pytest.raises(InvalidCircuitError, match=message):
        Circuit(1, 1, ("input",), (GateOp((0,), matrix=bad), MeasureOp(0, 0)))
    with pytest.raises(InvalidCircuitError, match=message):
        replace(GateOp((0,), matrix=gates.H), matrix=bad)
    doc = {"format": "telegate-circuit/1", "qubits": 1, "cbits": 0, "inputs": ["input"],
           "ops": [{"op": "gate", "name": "H", "targets": [0]},
                   {"op": "gate", "matrix": matrix_doc(bad), "targets": [0]}]}
    with pytest.raises(InvalidCircuitError, match=f"^invalid circuit: op 1: {message}$"):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize("amps", [[np.nan, 1.0], [np.inf, 0.0], [0.0, 0.0]])
def test_an_injected_state_must_be_finite(amps):
    """And nonzero: an inject op certifies its amplitudes however it is made."""
    message = "injected state has " + ("zero norm" if amps == [0.0, 0.0]
                                       else "non-finite amplitudes")
    with pytest.raises(InvalidCircuitError, match=message):
        CircuitBuilder(1, 0, ["inject"]).inject(amps, [0])
    with pytest.raises(InvalidCircuitError, match=message):
        InjectOp((0,), np.array(amps, dtype=complex))
    doc = {"format": "telegate-circuit/1", "qubits": 1, "cbits": 0, "inputs": ["inject"],
           "ops": [{"op": "inject", "state": {"amplitudes": state_doc(amps)}, "targets": [0]}]}
    with pytest.raises(InvalidCircuitError, match=f"^invalid circuit: op 0: {message}$"):
        deserialize(json.dumps(doc))



def test_a_huge_injected_state_is_rescaled_and_a_unit_one_kept():
    """Finite amplitudes whose squares overflow are normalized without a
    warning; an already-normalized state keeps its bits."""
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert InjectOp((0,), [1e200, 0.0]).amplitudes.tolist() == [1.0, 0.0]
        assert np.allclose(InjectOp((0,), [-1e300j, 1e300]).amplitudes,
                           np.array([-1j, 1]) / np.sqrt(2), atol=0, rtol=1e-15)
    unit = STATE_LABELS["T-ancilla"]
    assert InjectOp((0,), unit).amplitudes.tobytes() == unit.tobytes()

def test_the_status_pass_follows_a_recycled_qubit():
    c = recycled_round_trip()
    status = c.status
    assert status.violations == () and status.final == ("active", "measured")
    assert [op.qubit for op in status.records] == [0, 1]
    # H, CNOT, measure q0, X, inject q0, H, CNOT, measure q1, X; then after the last
    assert status.layout == ((0,), (0, 1), (0, 1), (1,), (1,), (0, 1), (0, 1), (0, 1), (0,), (0,))
    assert c.measured_qubits() == {1}


def test_a_circuit_takes_its_fields_as_tuples():
    c = Circuit(1, 1, ["input"], [MeasureOp(0, 0)])
    assert c.inputs == ("input",) and c.ops == (MeasureOp(0, 0),)
    assert c == Circuit(1, 1, ("input",), (MeasureOp(0, 0),))


def test_each_circuit_runs_the_status_pass_once(monkeypatch):
    """From synthesis through serialization, and from a recursion's build
    through two tree executions, each circuit is validated once."""
    from telegate import recursive, teleport
    from telegate.simulator import random_state
    runs: dict[int, int] = {}
    seen: list[Circuit] = []  # held, so no id is reused

    def counted(c):
        runs[id(c)] = runs.get(id(c), 0) + 1
        seen.append(c)
        return pass_once(c)

    pass_once = circuit._validate
    monkeypatch.setattr(circuit, "_validate", counted)
    res = teleport.synthesize_teleported_gate(gates.T)
    serialize(res.circuit)
    assert runs[id(res.circuit)] == 1
    rc = recursive.synth_recursive(recursive.controlled_rotation_spec(2, 4))
    psi = random_state(rc.n, np.random.default_rng(5))
    recursive.execute_tree(rc, psi)
    recursive.execute_tree(rc, psi)
    nodes, stack = [], [rc.root]
    while stack:
        nodes.append(stack.pop())
        stack += [rep.child for rep in nodes[-1].repairs if rep.child is not None]
    assert len(nodes) == 4 and all(runs[id(node.circuit)] == 1 for node in nodes)
    assert runs[id(rc.flattened)] == 1 and set(runs.values()) == {1}
