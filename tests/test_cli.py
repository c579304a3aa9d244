"""Command-line surface: exit codes, outputs, emitted files, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import telegate
from telegate import gates
from telegate.circuit import deserialize, matrix_doc, serialize
from telegate.cli import main
from telegate.limits import TOL
from telegate.simulator import verify_gate_equivalence


def test_the_public_surface_resolves_and_keeps_no_test_only_helper():
    for name in telegate.__all__:
        assert getattr(telegate, name) is not None, name
    from telegate import ancilla, pauli, simulator
    for module, name in ((simulator, "apply_gate"), (simulator, "apply_matrix"),
                         (ancilla, "measure_operator"), (pauli, "single")):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not {"apply_gate", "measure_operator"} & set(telegate.__all__)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hierarchy_t(capsys):
    code, out, _ = run(capsys, "hierarchy", "T")
    assert code == 0
    assert "level 3" in out and "diagonal" in out


def test_hierarchy_cnot(capsys):
    code, out, _ = run(capsys, "hierarchy", "CNOT")
    assert code == 0 and "level 2" in out


def test_hierarchy_bounded(capsys):
    code, out, _ = run(capsys, "hierarchy", "--k-max", "2", "TOFFOLI")
    assert code == 0 and "exceeds k_max 2" in out


def test_hierarchy_matrix_file(capsys, tmp_path):
    path = tmp_path / "gate.json"
    m = np.diag([1.0, np.exp(1j * np.pi / 8)])
    path.write_text(json.dumps(
        {"matrix": [[[z.real, z.imag] for z in row] for row in m]}))
    code, out, _ = run(capsys, "hierarchy", str(path))
    assert code == 0 and "level 4" in out


def test_hierarchy_unknown_gate_is_usage_error(capsys):
    code, _, err = run(capsys, "hierarchy", "FROB")
    assert code == 2 and "unknown gate" in err


def test_synth_t_writes_verified_files(capsys, tmp_path):
    out_file = tmp_path / "t.circuit.json"
    code, out, _ = run(capsys, "synth", "T", "--out", str(out_file))
    assert code == 0
    assert "plan: X" in out
    assert "+0.500000+0.500000j" in out  # e^{i pi/4}/sqrt(2) amplitude
    circuit = deserialize(out_file.read_text())
    assert circuit.n_qubits == 2
    sidecar = json.loads((tmp_path / "t.circuit.json.report.json").read_text())
    assert sidecar["corrections"][0]["class"] == "clifford"
    phase = complex(*sidecar["corrections"][0]["phase"])
    assert abs(phase - np.exp(-1j * np.pi / 4)) < 1e-9


def test_synth_toffoli_auto_plan(capsys):
    code, out, _ = run(capsys, "synth", "TOFFOLI", "--plan", "auto")
    assert code == 0 and "plan: XXZ" in out
    assert out.count("class=clifford") == 3


def test_synth_explicit_plan_pattern(capsys):
    code, out, _ = run(capsys, "synth", "TOFFOLI", "--plan", "XXZ")
    assert code == 0 and "plan: XXZ" in out
    code, _, err = run(capsys, "synth", "TOFFOLI", "--plan", "ZXX")
    assert code == 1 and "refused" in err


def test_synth_refuses_a_plan_wider_than_the_limit(capsys, tmp_path):
    """TOFFOLI⊗CNOT acts on 5 qubits: the automatic and the explicit plan
    route both refuse it before any synthesis."""
    path = tmp_path / "tof_cnot.json"
    path.write_text(json.dumps(matrix_doc(gates.kron(gates.TOFFOLI, gates.CNOT))))
    for plan in ("auto", "XXZXZ"):
        code, out, err = run(capsys, "synth", str(path), "--plan", plan)
        assert (code, out) == (2, ""), plan
        assert err.startswith("error: teleport plans are limited to width 4"), plan


def test_verify_sampling_convenience(capsys, tmp_path):
    out_file = tmp_path / "t.json"
    run(capsys, "synth", "T", "--out", str(out_file))
    code, out, _ = run(capsys, "verify", str(out_file), "--against", "T",
                       "--sample", "64", "--seed", "1")
    assert code == 0 and "sampled 64 shots" in out


def test_synth_ch_refused(capsys):
    code, _, err = run(capsys, "synth", "CH")
    assert code == 1 and "refused" in err


def test_synth_ch_with_sandwich(capsys, tmp_path):
    qdg = tmp_path / "ga.json"
    qdg.write_text(json.dumps(
        [[[z.real, z.imag] for z in row] for row in gates.kron(gates.I2, gates.Q.conj().T)]))
    gb = tmp_path / "gb.json"
    gb.write_text(json.dumps(
        [[[z.real, z.imag] for z in row]
         for row in gates.CNOT @ gates.kron(gates.I2, gates.Q)]))
    v = tmp_path / "v.json"
    v.write_text(json.dumps(
        [[[z.real, z.imag] for z in row]
         for row in gates.kron(gates.T, gates.I2) @ gates.matrix_of("CS†")]))
    code, out, _ = run(capsys, "synth", "CH",
                       "--sandwich", f"{qdg},{v},{gb}")
    assert code == 0 and "verified" in out


def test_verify_round_trip(capsys, tmp_path):
    out_file = tmp_path / "t.json"
    assert run(capsys, "synth", "T", "--out", str(out_file))[0] == 0
    code, out, _ = run(capsys, "verify", str(out_file), "--against", "T")
    assert code == 0 and "PASS" in out


def test_verify_detects_tampering(capsys, tmp_path):
    out_file = tmp_path / "t.json"
    run(capsys, "synth", "T", "--out", str(out_file))
    doc = json.loads(out_file.read_text())
    for op in doc["ops"]:
        if op["op"] == "cgate":
            op.pop("matrix", None)
            op["name"] = "Z"
    tampered = tmp_path / "bad.json"
    tampered.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(tampered), "--against", "T")
    assert code == 1 and "FAIL at branch 1" in out


def test_verify_identity(capsys, tmp_path):
    doc = {"format": "telegate-circuit/1", "qubits": 1, "cbits": 0,
           "inputs": ["input"], "ops": [{"op": "gate", "name": "I", "targets": [0]}]}
    path = tmp_path / "id.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path), "--against", "I")
    assert code == 0 and "PASS" in out


def test_verify_default_maps_leave_a_re_injected_qubit_as_output(capsys, tmp_path):
    """The out-map default is every qubit not measured after the last op."""
    from test_circuit import recycled_round_trip
    path = tmp_path / "round_trip.json"
    path.write_text(serialize(recycled_round_trip()))
    code, out, err = run(capsys, "verify", str(path), "--against", "I")
    assert (code, err) == (0, "") and out.splitlines()[-1] == "PASS"



def test_verify_normalizes_a_huge_injected_state(capsys, tmp_path):
    """An inject of [1e200, 0] is |0>: its norm is rescaled, so no overflow
    warning and no "non-finite amplitudes" refusal (that was exit 2)."""
    import warnings
    doc = {"format": "telegate-circuit/1", "qubits": 2, "cbits": 1,
           "inputs": ["input", "inject"],
           "ops": [{"op": "inject", "state": {"amplitudes": [[1e200, 0], [0, 0]]},
                    "targets": [1]},
                   {"op": "measure", "qubit": 1, "cbit": 0}]}
    path = tmp_path / "huge_inject.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify", str(path), "--against", "I")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["branch 0: p=1.000000 scalar=1.000000+0.000000j",
                                "worst fidelity: 1.000000000000", "PASS"]

NOT_A_FINITE_UNITARY = [
    pytest.param({"matrix": [[[1, 0], [0, 0], [0, 0], [0, 0]],
                             [[0, 0], [1, 0], [0, 0], [0, 0]]]}, id="2x4"),
    pytest.param([], id="empty"),
    pytest.param({"matrix": [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]}, id="nan-diagonal"),
]
SHEAR = pytest.param({"matrix": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]}, id="shear")


@pytest.mark.parametrize("doc", NOT_A_FINITE_UNITARY)
def test_recursive_refuses_a_matrix_file_that_is_not_a_finite_unitary(capsys, tmp_path, doc):
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "recursive", str(path))
    assert (code, out) == (2, "")
    assert err == "error: input matrix is not unitary within tolerance\n"
    assert "broadcast" not in err


@pytest.mark.parametrize("doc, branch", [
    pytest.param({"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0.999999999]]]}, "", id="level-2"),
    pytest.param(matrix_doc(gates.T @ np.diag([1, 1 - 1e-9])), "0", id="level-3"),
])
def test_recursive_refuses_a_near_unitary_gate_its_circuit_misses(capsys, tmp_path, doc, branch):
    """Unitary within FLOOR, so admitted, but below 1 - tol on a branch: refused
    at every level.  At the parent the level-2 gate, one op with no branch
    check, printed "verified" and exited 0."""
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "recursive", str(path)) == (
        1, "", "refused: branch verification failed (worst fidelity 0.999999999500"
               f" on branch {branch!r})\n")


def test_recursive_synthesizes_a_gate_the_hierarchy_places_within_tolerance(capsys, tmp_path):
    """V4 with a 5e-10 rad phase error: the hierarchy's level 4, and the
    recursion's verified circuit."""
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(matrix_doc(np.diag([1, np.exp(1j * (np.pi / 8 + 5e-10))]))))
    assert run(capsys, "hierarchy", str(path)) == (0, "level 4, diagonal, strict\n", "")
    code, out, err = run(capsys, "recursive", str(path))
    assert (code, err) == (0, "")
    assert "verified: all branches of the flattened circuit" in out


def test_recursive_refuses_a_gate_wider_than_its_limit(capsys, tmp_path):
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(matrix_doc(np.diag(np.exp(0.1j * np.arange(16))))))
    assert run(capsys, "recursive", str(path)) == (
        2, "", "error: recursive synthesis is limited to 3 qubits\n")


@pytest.mark.parametrize("gate, k, built, message", [
    pytest.param("CCCCCCCCCCCCV", "13", False, "13 qubits exceeds the 12-qubit limit", id="CV13"),
    pytest.param("CCCV", "5", True, "recursive synthesis is limited to 3 qubits", id="CCCV5"),
    pytest.param(None, None, True, "recursive synthesis is limited to 3 qubits",
                 id="non-unitary-16x16-file"),
])
def test_recursive_refuses_an_over_wide_request_before_checking_it(capsys, tmp_path, monkeypatch,
                                                                   gate, k, built, message):
    """No width past the limit reaches the m†·m product, and none past
    MAX_QUBITS has its matrix built; a non-unitary 16×16 file is refused
    for its width."""
    from telegate import recursive
    monkeypatch.setattr(recursive, "checked_unitary", lambda *a: pytest.fail("matrix checked"))
    if not built:
        monkeypatch.setattr(gates, "controlled", lambda *a, **k: pytest.fail("matrix built"))
    argv = (gate, "--k", k) if k else (str(tmp_path / "gate.json"),)
    (tmp_path / "gate.json").write_text(json.dumps(matrix_doc(np.ones((16, 16)))))
    assert run(capsys, "recursive", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, text, message", [
    pytest.param(("verify", "missing.json", "--against", "T"), None,
                 "error: [Errno 2] No such file or directory: 'missing.json'\n", id="missing"),
    pytest.param(("hierarchy", "bad.json"), "{not json", "error: Expecting property name"
                 " enclosed in double quotes: line 1 column 2 (char 1)\n", id="not-json"),
])
def test_unreadable_files_exit_2(capsys, tmp_path, monkeypatch, argv, text, message):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        Path(argv[1]).write_text(text)
    assert run(capsys, *argv) == (2, "", message)


def test_recursive_diagram_draws_the_flattened_circuit(capsys):
    from telegate.circuit import render
    from telegate.recursive import rotation_spec, synth_recursive
    code, out, err = run(capsys, "recursive", "V", "--k", "3", "--diagram")
    assert (code, err) == (0, "")
    assert out.endswith("verified: all branches of the flattened circuit\n"
                        + render(synth_recursive(rotation_spec(3)).flattened) + "\n")


@pytest.mark.parametrize("doc", NOT_A_FINITE_UNITARY + [SHEAR])
def test_an_explicit_plan_refuses_what_the_automatic_plan_refuses(capsys, tmp_path, doc):
    """Both plans pass the one unitarity check: the shear [[1, 1], [0, 1]]
    with --plan X used to be refused as a plan that does not commute."""
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(doc))
    explicit = run(capsys, "synth", str(path), "--plan", "X")
    auto = run(capsys, "synth", str(path))
    assert explicit[:2] == auto[:2] == (2, "")
    if doc:  # an explicit plan's width is checked first, and [] has none
        assert explicit[2] == auto[2] == "error: input matrix is not unitary within tolerance\n"


@pytest.mark.parametrize("doc", NOT_A_FINITE_UNITARY + [SHEAR])
def test_the_sandwich_refuses_a_matrix_that_is_not_a_finite_unitary(capsys, tmp_path, doc):
    """As the gate u and as the factor V, before any width or decomposition check."""
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(doc))
    for argv in ((str(path), "--sandwich", "I,I,I"), ("CH", "--sandwich", f"H,{path},H")):
        assert run(capsys, "synth", *argv) == (
            2, "", "error: input matrix is not unitary within tolerance\n")


def test_sandwich_frames_are_certified_at_the_callers_tolerance(capsys, tmp_path):
    """H·diag(1, e^{1e-7 i}) is Clifford within --tol 1e-6, as `hierarchy` says,
    so it frames both sides of T."""
    frame = gates.H @ np.diag([1, np.exp(1e-7j)])
    u = frame @ gates.T @ frame
    frame_path, gate, circuit = (tmp_path / name for name in ("f.json", "u.json", "c.json"))
    frame_path.write_text(json.dumps({"matrix": matrix_doc(frame)}))
    gate.write_text(json.dumps({"matrix": matrix_doc(u)}))
    argv = ("synth", str(gate), "--sandwich", f"{frame_path},T,{frame_path}")
    assert run(capsys, "hierarchy", str(frame_path), "--tol", "1e-6")[:2] == (0, "level 2, strict\n")
    code, _, err = run(capsys, *argv, "--tol", "1e-6", "--out", str(circuit))
    assert (code, err) == (0, "")
    report = verify_gate_equivalence(deserialize(circuit.read_text()), u, [0], [1])
    assert report.passed
    assert run(capsys, *argv) == (2, "", "error: sandwich frames must be Clifford gates\n")


def test_ancilla_tags_and_literals_take_the_callers_tolerance(capsys, tmp_path):
    """Within --tol 1e-6, M_1 of diag(1, e^{i(π/4 + 1e-7)}) is Clifford and Q_1
    of T·R_x(2e-7) is the Pauli Z, as `hierarchy --tol 1e-6` would tag them."""
    rx = np.cos(1e-7) * np.eye(2) - 1j * np.sin(1e-7) * gates.X
    lines = {}
    for name, u in (("phase", np.diag([1, np.exp(1j * (np.pi / 4 + 1e-7))])),
                    ("rx", gates.T @ rx)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"matrix": matrix_doc(u)}))
        code, out, err = run(capsys, "ancilla", str(path), "--tol", "1e-6")
        assert (code, err) == (0, "") and "warning" not in out
        lines[name] = out.splitlines()[2]
    assert lines == {"phase": "  M_1: level 2   Q_1: level 1 (+Z)",
                     "rx": "  M_1: level 2   Q_1: level 1 (+Z)"}


@pytest.mark.parametrize("argv, code, stream, message", [
    (("ancilla", "CH"), 1, "out",
     "no commuting plan: cannot derive stabilizers from a teleport layer\n"),
    (("synth", "CS", "--sandwich", "CS,CS,CNOT"), 2, "err",
     "error: sandwich frames must be Clifford gates\n"),
    (("synth", "CS", "--sandwich", "H,T"), 2, "err", "error: --sandwich needs GA,V,GB\n"),
    (("recursive", "V"), 2, "err", "error: rotation specs need --k (the target level)\n"),
    (("recursive", "V", "--k", "0"), 2, "err", "error: rotation level must be positive\n"),
    (("recursive", "CCV", "--k", "2"), 2, "err", "error: need level > controls >= 1\n"),
])
def test_refusals_name_their_reason(capsys, argv, code, stream, message):
    got, out, err = run(capsys, *argv)
    assert got == code and {"out": out, "err": err}[stream] == message
    assert (err if stream == "out" else out) == ""


def test_ancilla_cs(capsys):
    code, out, _ = run(capsys, "ancilla", "CS")
    assert code == 0
    assert "M_1: level 2" in out and "M_2: level 2" in out


def test_ancilla_toffoli_shortcut_simulated(capsys, tmp_path):
    out_file = tmp_path / "prep.json"
    code, out, _ = run(capsys, "ancilla", "TOFFOLI", "--shortcut", "1",
                       "--simulate", "--out", str(out_file))
    assert code == 0
    assert "product intermediate: True" in out
    assert "['+Z', '+X', '+Z']" in out
    assert "PASS" in out
    doc = json.loads(out_file.read_text())
    assert len(doc["steps"]) == 1


def test_ancilla_shortcut_from_an_entangled_intermediate(capsys, tmp_path):
    """CS⊗T's third shortcut starts from an entangled state: the CLI prints
    so, verifies every branch, and writes the warning into the script."""
    gate, out_file = tmp_path / "cst.json", tmp_path / "cst.script.json"
    gate.write_text(json.dumps(matrix_doc(gates.kron(gates.CS, gates.T))))
    code, out, err = run(capsys, "ancilla", str(gate), "--shortcut", "3", "--simulate",
                         "--out", str(out_file))
    assert (code, err) == (0, "")
    assert "product intermediate: False\n" in out
    assert out.splitlines()[-2].endswith("-> PASS")
    doc = json.loads(out_file.read_text())
    assert (doc["shortcut_index"], doc["product_intermediate"]) == (2, False)
    assert doc["warnings"] == ["shortcut intermediate for pair 2 is not a product state"]


@pytest.mark.parametrize("argv, line", [
    (("ancilla", "X", "--simulate"), "branch 0: p=0 (dead)"),
    (("hierarchy", "toffoli"), "level 3, strict"),
])
def test_a_command_prints_its_line(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and line in out.splitlines()


def test_ancilla_warns_of_a_stabilizer_above_the_clifford_group(capsys, tmp_path):
    gate, out_file = tmp_path / "v4.json", tmp_path / "v4.prep.json"
    gate.write_text(json.dumps(matrix_doc(np.diag([1, np.exp(1j * np.pi / 8)]))))
    code, out, _ = run(capsys, "ancilla", str(gate), "--out", str(out_file))
    warning = "stabilizer 0 classifies above the Clifford group (level 3)"
    assert code == 0 and f"  warning: {warning}" in out.splitlines()
    assert json.loads(out_file.read_text())["warnings"] == [warning]


def test_ancilla_t_simulate(capsys):
    code, out, _ = run(capsys, "ancilla", "T", "--simulate")
    assert code == 0
    assert out.count("fidelity=1.000000000000") == 2


def test_recursive_rotation(capsys, tmp_path):
    report = tmp_path / "resources.json"
    out_file = tmp_path / "tree.json"
    code, out, _ = run(capsys, "recursive", "V", "--k", "4",
                       "--report", str(report), "--out", str(out_file))
    assert code == 0
    assert "tree depth 2" in out and "measurements 2" in out
    doc = json.loads(report.read_text())
    assert doc["depth"] == 2 and doc["ancilla_qubits"] == 2
    tree = json.loads(out_file.read_text())
    assert tree["mode"] == "teleport" and len(tree["children"]) == 1


def test_recursive_controlled_rotation(capsys):
    code, out, _ = run(capsys, "recursive", "CV", "--k", "3")
    assert code == 0 and "tree depth 1" in out


def test_recursive_t_flattened_file(capsys, tmp_path):
    out_file = tmp_path / "flat.json"
    code, out, _ = run(capsys, "recursive", "T", "--k", "3", "--flatten",
                       "--out", str(out_file))
    assert code == 0
    circuit = deserialize(out_file.read_text())
    assert circuit.n_qubits == 2


@pytest.mark.parametrize("protocol,expect", [
    ("teleport2-xz", "1 ebit(s), 2 cbit(s)"),
    ("teleport2-zx", "1 ebit(s), 2 cbit(s)"),
    ("remote-cnot", "1 ebit(s), 2 cbit(s)"),
    ("remote-cnot-4step", "2 ebit(s), 4 cbit(s)"),
])
def test_remote_protocols(capsys, protocol, expect):
    code, out, _ = run(capsys, "remote", "--protocol", protocol, "--trials", "5")
    assert code == 0
    assert expect in out and "all branches pass" in out


def test_remote_deterministic_under_seed(capsys):
    _, first, _ = run(capsys, "remote", "--protocol", "remote-cnot",
                      "--trials", "3", "--seed", "7")
    _, second, _ = run(capsys, "remote", "--protocol", "remote-cnot",
                       "--trials", "3", "--seed", "7")
    assert first == second


def test_tolerance_env_override(capsys, monkeypatch):
    monkeypatch.setenv("TELEGATE_TOL", "1e-6")
    code, out, _ = run(capsys, "hierarchy", "T")
    assert code == 0 and "level 3" in out


def test_malformed_tolerance_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("TELEGATE_TOL", "abc")
    code, _, err = run(capsys, "hierarchy", "T")
    assert code == 2
    assert err.startswith("error:") and "TELEGATE_TOL" in err


def test_verify_refuses_circuit_above_width_limit(capsys, tmp_path):
    from telegate.circuit import CircuitBuilder, serialize
    from telegate.limits import MAX_QUBITS
    n = MAX_QUBITS + 1
    b = CircuitBuilder(n, n - 1, ["input"] + ["zero"] * (n - 1))
    for q in range(1, n):
        b.measure(q, q - 1)
    path = tmp_path / "wide.json"
    path.write_text(serialize(b.build()))
    code, out, err = run(capsys, "verify", str(path), "--against", "I")
    assert code == 2 and "PASS" not in out
    assert f"{n} qubits exceeds" in err


def test_usage_error_exit_code(capsys):
    assert main(["hierarchy"]) == 2
    assert main(["nonsense"]) == 2


def _near_t_circuit(tmp_path):
    """A 1-qubit circuit for diag(1, e^{i(pi/4 + 1e-3)}): its fidelity
    against T is cos(5e-4) = 0.999999875."""
    from telegate.circuit import CircuitBuilder, serialize
    b = CircuitBuilder(1, 0, ["input"])
    b.gate(np.diag([1.0, np.exp(1j * (np.pi / 4 + 1e-3))]), [0], role="U")
    path = tmp_path / "near_t.json"
    path.write_text(serialize(b.build()))
    return str(path)


def test_verify_honours_tolerance_env(capsys, monkeypatch, tmp_path):
    path = _near_t_circuit(tmp_path)
    monkeypatch.delenv("TELEGATE_TOL", raising=False)
    code, out, _ = run(capsys, "verify", path, "--against", "T")
    assert code == 1 and "FAIL" in out
    monkeypatch.setenv("TELEGATE_TOL", "1e-3")
    code, out, _ = run(capsys, "verify", path, "--against", "T")
    assert code == 0 and out.rstrip().endswith("PASS")


def test_remote_passes_tolerance_to_run_protocol(capsys, monkeypatch):
    from telegate import remote
    seen = []
    real = remote.run_protocol

    def spy(protocol, *args, **kwargs):
        seen.append(kwargs.get("tol"))
        return real(protocol, *args, **kwargs)

    monkeypatch.setattr(remote, "run_protocol", spy)
    code, out, _ = run(capsys, "remote", "--protocol", "teleport2-xz",
                       "--trials", "2", "--tol", "1e-3")
    assert code == 0 and "all branches pass" in out
    assert seen == [1e-3]


@pytest.mark.parametrize("value,argv", [("-1", ["hierarchy", "T"]), ("0", ["synth", "T"])])
def test_out_of_range_tolerance_env_is_usage_error(capsys, monkeypatch, value, argv):
    monkeypatch.setenv("TELEGATE_TOL", value)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "TELEGATE_TOL" in err


def test_each_tolerance_env_value_gets_its_own_parser_default(capsys, monkeypatch):
    """The parser is built once per TELEGATE_TOL value: calls under
    different values each see their own --tol default, and a refused value
    is refused again rather than remembered as a parser."""
    from telegate import hierarchy
    seen = []
    real = hierarchy.hierarchy_level

    def spy(u, **kwargs):
        seen.append(kwargs["tol"])
        return real(u, **kwargs)

    monkeypatch.setattr(hierarchy, "hierarchy_level", spy)
    for value in ("1e-6", "1e-3", "abc", "1e-6", "abc"):
        monkeypatch.setenv("TELEGATE_TOL", value)
        code, _, err = run(capsys, "hierarchy", "T")
        assert code == (2 if value == "abc" else 0), value
        assert ("TELEGATE_TOL" in err) == (value == "abc")
    monkeypatch.delenv("TELEGATE_TOL")
    assert run(capsys, "hierarchy", "T")[0] == 0
    assert seen == [1e-6, 1e-3, 1e-6, TOL]


def test_nan_tolerance_flag_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "verify", _near_t_circuit(tmp_path), "--against", "T",
                         "--tol", "nan")
    assert code == 2 and out == ""
    assert "error: argument --tol" in err


def test_ancilla_simulate_runs_the_branches_once(capsys, monkeypatch):
    """The verdict comes from verify_script's fold; run_script runs once,
    for the per-branch lines."""
    from telegate import ancilla
    calls = []
    real = ancilla.run_script

    def spy(script):
        calls.append(script)
        return real(script)

    monkeypatch.setattr(ancilla, "run_script", spy)
    code, out, _ = run(capsys, "ancilla", "T", "--simulate")
    assert code == 0 and out.count("fidelity=") == 2 and "-> PASS" in out
    assert len(calls) == 1


def test_hierarchy_refuses_k_max_above_the_level_limit(capsys, tmp_path):
    path = tmp_path / "random.json"
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((2, 2))
                        + 1j * np.random.default_rng(2).standard_normal((2, 2)))
    path.write_text(json.dumps({"matrix": [[[z.real, z.imag] for z in row] for row in q]}))
    code, out, err = run(capsys, "hierarchy", "--k-max", "38", str(path))
    assert code == 2 and out == ""
    assert "level limit 20" in err and "not unitary" not in err


@pytest.mark.parametrize("k", [6, 7, 9])
def test_recursion_too_deep_is_one_usage_error(capsys, k):
    code, out, err = run(capsys, "recursive", "V", "--k", str(k))
    assert code == 2 and out == ""
    assert "depth limit 5" in err


@pytest.mark.parametrize("gate,k", [("V", 21), ("V", 33), ("V", 1024), ("CV", 1025)])
def test_rotation_levels_beyond_classification_are_usage_errors(capsys, gate, k):
    """A rotation above level 20 is refused as its spec is built: at level 33
    its phase is below TOL, so it would classify as the identity, and at
    1024 its angle does not fit a float."""
    code, out, err = run(capsys, "recursive", gate, "--k", str(k))
    assert code == 2 and out == ""
    assert err == f"error: rotation level must be at most 20, got {k}\n"


def test_a_zero_qubit_matrix_file_exits_cleanly(capsys, tmp_path):
    """A 1x1 matrix has no generators to conjugate: the plain synthesis
    verifies its empty plan, and the sandwich and the ancilla exit without
    a traceback."""
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"matrix": [[[1, 0]]]}))
    assert run(capsys, "synth", str(path)) == (0, "plan: \nancilla: [+1.000000+0.000000j]\n"
                                                   "corrections:\nverified: all branches,"
                                                   " worst fidelity 1.000000000000\n", "")
    for argv in (["synth", str(path), "--sandwich", ",".join([str(path)] * 3)],
                 ["ancilla", str(path)]):
        code, _, err = run(capsys, *argv)
        assert code in (0, 2) and "Traceback" not in err


def test_a_zero_qubit_synthesis_draws_its_empty_diagram(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"matrix": [[[1, 0]]]}))
    code, out, err = run(capsys, "synth", str(path), "--diagram")
    assert (code, err) == (0, "") and out.endswith("worst fidelity 1.000000000000\n\n")


def test_a_zero_qubit_preparation_verifies_and_is_written(capsys, tmp_path):
    path, script = tmp_path / "one.json", tmp_path / "one.script.json"
    path.write_text(json.dumps({"matrix": [[[1, 0]]]}))
    code, out, err = run(capsys, "ancilla", str(path), "--simulate")
    assert (code, err) == (0, "") and out.splitlines()[-1].endswith("PASS")
    assert run(capsys, "ancilla", str(path), "--out", str(script))[::2] == (0, "")
    assert json.loads(script.read_text())["steps"] == []


@pytest.mark.parametrize("k_hint, angle", [(3, np.pi / 4), (4, np.pi / 8)], ids=["T", "V4"])
def test_synthesis_level_checks_take_the_callers_tolerance(capsys, tmp_path, k_hint, angle):
    """diag(1, e^{i(angle + 1e-7)}) is at level k_hint within --tol 1e-6: the
    gate's level check takes that tolerance, and so does V4's repair residue."""
    u = np.diag([1, np.exp(1j * (angle + 1e-7))])
    gate, circuit = tmp_path / "u.json", tmp_path / "u.circuit.json"
    gate.write_text(json.dumps({"matrix": matrix_doc(u)}))
    argv = ("synth", str(gate), "--k-hint", str(k_hint))
    code, _, err = run(capsys, *argv, "--tol", "1e-6", "--out", str(circuit))
    assert (code, err) == (0, "")
    report = verify_gate_equivalence(deserialize(circuit.read_text()), u, [0], [1])
    assert report.passed and len(report.branch_weights) == 2
    assert run(capsys, *argv) == (1, "", f"refused: gate is above level 6, above k_hint {k_hint}\n")


def test_shortcut_outside_the_pair_range_is_refused_before_output(capsys):
    for shortcut in ("2", "0"):
        code, out, err = run(capsys, "ancilla", "T", "--shortcut", shortcut)
        assert code == 2 and out == ""
        assert err == f"error: --shortcut must be between 1 and 1, got {shortcut}\n"


def test_negative_sample_is_usage_error(capsys, tmp_path):
    out_file = tmp_path / "t.json"
    assert run(capsys, "synth", "T", "--out", str(out_file))[0] == 0
    code, out, err = run(capsys, "verify", str(out_file), "--against", "T", "--sample", "-3")
    assert code == 2 and out == ""
    assert err == "error: --sample must be at least 0, got -3\n"


def test_sandwich_of_the_wrong_width_is_usage_error(capsys):
    code, out, err = run(capsys, "synth", "CH", "--sandwich", "H,T,H")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "act on 1, 1 and 1 qubits; the gate acts on 2" in err


def test_plan_of_the_wrong_width_is_usage_error(capsys):
    code, out, err = run(capsys, "synth", "T", "--plan", "XZ")
    assert code == 2 and out == ""
    assert err == "error: plan width does not match the gate\n"


def test_synth_matrix_file_with_a_diagonal_pauli_correction(capsys, tmp_path):
    path = tmp_path / "v4.json"
    path.write_text(json.dumps({"matrix": matrix_doc(np.diag([1, np.exp(1j * np.pi / 8)]))}))
    code, out, _ = run(capsys, "synth", str(path), "--k-hint", "4")
    assert code == 0
    assert "class=diagonal-pauli residue_level=3" in out


def test_recursive_clifford_gate_writes_a_direct_tree(capsys, tmp_path):
    out_file = tmp_path / "tree.json"
    code, out, _ = run(capsys, "recursive", "S", "--out", str(out_file))
    assert code == 0 and "tree depth 0" in out
    tree = json.loads(out_file.read_text())
    assert (tree["mode"], tree["level"], tree["children"]) == ("direct", 2, [])
    assert len(deserialize(json.dumps(tree["circuit"])).ops) == 1


def test_verify_reads_explicit_register_maps(capsys, tmp_path):
    path = tmp_path / "cnot10.json"
    path.write_text(json.dumps({
        "format": "telegate-circuit/1", "qubits": 2, "cbits": 0, "inputs": ["input"] * 2,
        "ops": [{"op": "gate", "name": "CNOT", "targets": [1, 0]}]}))
    code, out, _ = run(capsys, "verify", str(path), "--against", "CNOT")
    assert code == 1 and "FAIL" in out
    code, out, _ = run(capsys, "verify", str(path), "--against", "CNOT",
                       "--in-map", "1,0", "--out-map", "1,0")
    assert code == 0 and "PASS" in out


def test_remote_trace_prints_the_steps_as_json(capsys):
    code, out, _ = run(capsys, "remote", "--protocol", "teleport2-xz", "--trials", "1",
                       "--trace")
    assert code == 0
    doc = json.loads(out.split("\n", 2)[2])
    assert {"party": "bob", "op": "if c0=1: X on [2]"} in doc["steps"]
    assert doc["ebits"] == 1 and doc["cbits"] == {"alice_to_bob": 2, "bob_to_alice": 0}
    assert doc["all_branches_pass"] is True


def test_negative_trials_is_usage_error(capsys):
    code, out, err = run(capsys, "remote", "--protocol", "remote-cnot", "--trials", "-5")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--trials" in err


@pytest.mark.parametrize("k_hint", ["0", "21"])
def test_k_hint_outside_the_level_range_is_usage_error(capsys, k_hint):
    code, out, err = run(capsys, "synth", "T", "--k-hint", k_hint)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "k_hint must be between 1 and 20" in err


def test_k_hint_refusal_names_the_gate_level(capsys):
    code, out, err = run(capsys, "synth", "T", "--k-hint", "1")
    assert code == 1 and out == ""
    assert "gate is level 3, above k_hint 1" in err


# Runs the console script's entry point and prints OPENBLAS_NUM_THREADS as
# it stands when numpy is first imported, which is when OpenBLAS reads it.
_NUMPY_PROBE = """
import os, sys

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Probe())
from telegate.cli import entrypoint
sys.argv = ["telegate", "hierarchy", "T"]
entrypoint()
"""


@pytest.mark.parametrize("given,seen", [(None, "1"), ("2", "2")])
def test_cli_loads_numpy_on_one_blas_thread_unless_told(given, seen):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(telegate.__file__).parents[1])
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == [seen, "level 3, diagonal, strict"]


@pytest.mark.parametrize("ops", [[{"op": "gate", "name": "H", "targets": 0}], ["H"],
                                 [{"op": "gate", "name": "CNOT", "targets": [0.7, 1.2]}]])
def test_malformed_circuit_file_is_usage_error(capsys, tmp_path, ops):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "telegate-circuit/1", "qubits": 1, "cbits": 0,
                                "inputs": ["input"], "ops": ops}))
    code, out, err = run(capsys, "verify", str(path), "--against", "I")
    assert code == 2 and out == ""
    assert err.startswith("error: op 0 is malformed") and "Traceback" not in err


@pytest.mark.parametrize("doc, message", [
    ({"qubits": 2.9, "cbits": 0, "inputs": ["input", "input"],
      "ops": [{"op": "gate", "name": "CNOT", "targets": [0.7, 1.2]}]},
     "field 'qubits' is malformed: 'qubits' must be an integer, not 2.9"),
    ({"qubits": 1, "cbits": -5, "inputs": ["input"], "ops": []},
     "invalid circuit: counts: 1 qubits and -5 cbits; neither may be negative"),
], ids=["fractional", "negative"])
def test_a_count_that_is_not_a_natural_number_is_usage_error(capsys, tmp_path, doc, message):
    """Refused, where truncating the first read it as a 2-qubit CNOT on
    [0, 1] that passed against CNOT, and the second passed against I."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "telegate-circuit/1", **doc}))
    against = "CNOT" if doc["ops"] else "I"
    assert run(capsys, "verify", str(path), "--against", against) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("op, message", [
    ({"op": "inject", "state": {}, "targets": [0]},
     "op 0: inject needs a label or amplitudes"),
    ({"op": "gate", "targets": [0]}, "op 0: gate needs 'name' or 'matrix'"),
    ({"op": "inject", "state": {"amplitudes": [[1, 0], [0]]}, "targets": [0]},
     "bad state document: not enough values to unpack (expected 2, got 1)"),
])
def test_an_op_missing_its_content_is_usage_error(capsys, tmp_path, op, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "telegate-circuit/1", "qubits": 1, "cbits": 0,
                                "inputs": ["inject"], "ops": [op]}))
    assert run(capsys, "verify", str(path), "--against", "I") == (2, "", f"error: {message}\n")


_COND = {"cbits": [0], "equals": [1]}


@pytest.mark.parametrize("cond", [_COND, {"cbits": [], "equals": []}], ids=["bit", "empty"])
def test_a_condition_on_a_gate_op_is_usage_error(capsys, tmp_path, cond):
    """At the parent the condition was dropped: X ran unconditioned after a
    measured |0>, and the file verified PASS against X."""
    path = tmp_path / "gate_cond.json"
    path.write_text(json.dumps({
        "format": "telegate-circuit/1", "qubits": 2, "cbits": 1, "inputs": ["input", "zero"],
        "ops": [{"op": "measure", "qubit": 1, "cbit": 0},
                {"op": "gate", "name": "X", "targets": [0], "cond": cond}]}))
    assert run(capsys, "verify", str(path), "--against", "X", "--out-map", "0") == (
        2, "", "error: invalid circuit: op 1: a 'gate' op carries no 'cond'; write a 'cgate'\n")
    path.write_text(path.read_text().replace('"gate"', '"cgate"'))
    code, out, err = run(capsys, "verify", str(path), "--against", "X", "--out-map", "0")
    assert (code, err) == ((1, "") if cond["cbits"] else (2, "error: invalid circuit: op 1:"
                                                           " malformed classical condition\n"))


@pytest.mark.parametrize("at_end", [False, True], ids=["dead-first", "dead-last"])
def test_verify_prints_the_scored_branches_with_their_weights(capsys, tmp_path, at_end):
    """One line per scored branch in sorted key order, with its weight: the
    dict-and-sort printing of the parent, on T's circuit with a measured |0>
    qubit whose dead outcome 1 comes first (a one-bit record) or last
    (interleaved with the live branches)."""
    path = tmp_path / "t.json"
    assert run(capsys, "synth", "T", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    extra = {"op": "measure", "qubit": doc["qubits"], "cbit": doc["cbits"]}
    doc["ops"] = doc["ops"] + [extra] if at_end else [extra] + doc["ops"]
    doc["qubits"], doc["cbits"], doc["inputs"] = (doc["qubits"] + 1, doc["cbits"] + 1,
                                                  doc["inputs"] + ["zero"])
    path.write_text(json.dumps(doc))
    c = deserialize(path.read_text())
    out_map = sorted(set(range(c.n_qubits)) - c.measured_qubits())
    report = verify_gate_equivalence(c, gates.T, c.symbolic_qubits, out_map)
    weights = dict(report.branch_weights.items())
    want = [f"branch {bits}: p={weights.get(bits, 0.0):.6f} scalar={scalar:.6f}"
            for bits, scalar in sorted(report.branch_scalars.items())]
    assert len(weights) > len(want) > 1
    code, out, err = run(capsys, "verify", str(path), "--against", "T")
    assert (code, err) == (0, "")
    assert out.splitlines() == want + ["worst fidelity: 1.000000000000", "PASS"]


def test_verify_prints_a_scored_branch_of_weight_zero(capsys, tmp_path):
    """X checked against I: live branch 0 has coefficient tr(X)/2 = 0, so
    weight 0 like dead branch 1 beside it, but only branch 0 is scored."""
    path = tmp_path / "x.json"
    path.write_text(json.dumps({
        "format": "telegate-circuit/1", "qubits": 2, "cbits": 1, "inputs": ["input", "zero"],
        "ops": [{"op": "gate", "name": "X", "targets": [0]},
                {"op": "measure", "qubit": 1, "cbit": 0}]}))
    assert run(capsys, "verify", str(path), "--against", "I", "--out-map", "0") == (
        1, "branch 0: p=0.000000 scalar=0.000000+0.000000j\n"
           "worst fidelity: 0.000000000000\nFAIL at branch 0\n", "")


def test_verify_checks_the_maps_before_sampling(capsys, tmp_path):
    path = str(tmp_path / "t.json")
    assert run(capsys, "synth", "T", "--out", path)[0] == 0
    code, out, err = run(capsys, "verify", path, "--against", "T", "--sample", "4",
                         "--out-map", "0")
    assert code == 2 and out == ""
    assert "neither an output nor measured" in err


@pytest.mark.parametrize("maps, message", [
    (("--in-map", "0,0"), "in_map and out_map entries must be distinct"),
    (("--in-map", "0,1", "--out-map", "2,9"), "map entries out of range"),
    (("--in-map", "2,3"), "in_map must cover exactly the symbolic-input qubits"),
])
def test_verify_refuses_maps_that_do_not_fit_the_circuit(capsys, tmp_path, maps, message):
    path = str(tmp_path / "cnot.json")
    assert run(capsys, "synth", "CNOT", "--out", path)[0] == 0
    assert run(capsys, "verify", path, "--against", "CNOT", *maps) == (
        2, "", f"error: {message}\n")


@pytest.mark.parametrize("flag", ["--in-map", "--out-map"])
def test_verify_names_a_malformed_map_flag(capsys, tmp_path, flag):
    path = str(tmp_path / "t.json")
    assert run(capsys, "synth", "T", "--out", path)[0] == 0
    code, out, err = run(capsys, "verify", path, "--against", "T", flag, "0,x")
    assert code == 2 and out == ""
    assert f"argument {flag}: must be comma-separated qubit indices, got '0,x'" in err


def test_ancilla_out_writes_nothing_unverified(capsys, monkeypatch, tmp_path):
    from telegate import ancilla
    monkeypatch.setattr(ancilla, "verify_script", lambda script: (False, 0.5))
    path = tmp_path / "t.script.json"
    code, out, _ = run(capsys, "ancilla", "T", "--out", str(path))
    assert code == 1 and not path.exists()
    assert out.splitlines()[-1] == "worst fidelity: 0.500000000000 -> FAIL"


def _t_with_nan(entry: int) -> np.ndarray:
    m = np.array(gates.T)
    m[entry, entry] = np.nan
    return m


@pytest.mark.parametrize("target", [2 * gates.T, _t_with_nan(1)])
def test_verify_refuses_a_target_that_is_not_a_finite_unitary(capsys, tmp_path, target):
    """Both used to print PASS: 2·T with p=2.000000 on every branch."""
    circuit, against = str(tmp_path / "t.json"), tmp_path / "bad.json"
    assert run(capsys, "synth", "T", "--out", circuit)[0] == 0
    against.write_text(json.dumps(matrix_doc(target)))
    code, out, err = run(capsys, "verify", circuit, "--against", str(against))
    assert code == 2 and out == ""
    assert err.startswith("error: target is not a finite isometry")


def test_verify_refuses_a_circuit_file_with_a_nan_repair(capsys, tmp_path):
    """A NaN in a repair matrix used to kill its branch silently and PASS."""
    path = tmp_path / "t.json"
    assert run(capsys, "synth", "T", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    repair = next(op for op in doc["ops"] if op["op"] == "cgate" and "matrix" in op)
    repair["matrix"][0][0][0] = float("nan")
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path), "--against", "T")
    assert code == 2 and out == ""
    assert err == "error: invalid circuit: op 3: gate matrix is not a finite unitary\n"


def test_verify_checks_a_preparation_file_against_its_state(capsys, tmp_path):
    """A preparation has no input: its target is the state as one column."""
    from telegate.circuit import serialize
    from telegate.recursive import controlled_rotation_spec, recursive_ancilla_prep
    prep = recursive_ancilla_prep(controlled_rotation_spec(1, 4))
    circuit, target = tmp_path / "prep.json", tmp_path / "target.json"
    circuit.write_text(serialize(prep.circuit))
    target.write_text(json.dumps(matrix_doc(prep.target.amplitudes[:, None])))
    code, out, _ = run(capsys, "verify", str(circuit), "--against", str(target))
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "PASS"
    assert sum(line.startswith("branch ") for line in lines) == 2**6


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["T", "TOFFOLI", "CCV4 preparation"])
def test_verify_listing_matches_its_recorded_bytes(capsys, tmp_path, name):
    """`verify` prints every branch's weight and scalar; a scalar's zero
    part keeps its sign, so a product that drifts in its last bit shows
    here.  The listings were recorded from these same commands; the CCV4
    preparation's 4,096 branches are stored gzipped."""
    import gzip
    from telegate.circuit import serialize
    from telegate.recursive import controlled_rotation_spec, recursive_ancilla_prep
    circuit = tmp_path / "circuit.json"
    if name == "CCV4 preparation":
        prep = recursive_ancilla_prep(controlled_rotation_spec(2, 4))
        circuit.write_text(serialize(prep.circuit))
        against = tmp_path / "target.json"
        against.write_text(json.dumps(matrix_doc(prep.target.amplitudes[:, None])))
        want = gzip.decompress((GOLDEN / "verify_ccv4_prep.out.gz").read_bytes()).decode()
    else:
        assert run(capsys, "synth", name, "--out", str(circuit))[0] == 0
        against, want = name, (GOLDEN / f"verify_{name.lower()}.out").read_text()
    code, out, _ = run(capsys, "verify", str(circuit), "--against", str(against))
    assert code == 0 and out == want


def _ch_sandwich():
    from telegate.clifford import clifford_from_matrix
    from telegate.teleport import synthesize_sandwiched
    g_a = clifford_from_matrix(gates.kron(gates.I2, gates.Q.conj().T))
    v = gates.kron(gates.T, gates.I2) @ gates.matrix_of("CS†")
    g_b = clifford_from_matrix(gates.CNOT @ gates.kron(gates.I2, gates.Q))
    return synthesize_sandwiched(gates.CH, g_a, v, g_b)


@pytest.mark.parametrize("name", ["recursive_cv4.tree.json", "recursive_cv4.flat.json",
                                  "sandwich_ch.sidecar.json"])
def test_repair_outputs_match_their_recorded_bytes(capsys, tmp_path, name):
    """The CV4 tree and flattened circuit written by `recursive --out`, and
    the CH sandwich's sidecar, were recorded from the dense repair products:
    a re-associated product or a flipped zero sign in a repair shows here."""
    if name.startswith("sandwich"):
        got = json.dumps(_ch_sandwich().sidecar())
    else:
        path = tmp_path / "out.json"
        flatten = ["--flatten"] if ".flat." in name else []
        assert run(capsys, "recursive", "CV", "--k", "4", *flatten, "--out", str(path))[0] == 0
        got = path.read_text()
    assert got == (GOLDEN / name).read_text()


def _mutations(doc, rnd: "random.Random"):
    """One random edit of a JSON document: a node set to null, NaN, 1e308,
    2^63, a wrong type or an empty list, or a field or list entry deleted
    or duplicated."""
    doc = json.loads(json.dumps(doc))
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and rnd.random() < 0.7:
        parent, key = node, rnd.choice(list(node) if isinstance(node, dict)
                                       else range(len(node)))
        node = parent[key]
    if parent is None:
        return rnd.choice([None, [], {}, "x", 1e308])
    kind = rnd.randrange(8)
    if kind == 6:
        del parent[key]
    elif kind == 7:
        if isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(node)))
        else:
            parent[key + "_copy" if isinstance(key, str) else key] = node
    else:
        parent[key] = [None, float("nan"), 1e308, 2**63, "x", []][kind]
    return doc


def test_mutated_input_files_exit_cleanly(capsys, tmp_path):
    """A seeded sweep of damaged circuit and matrix files: every run exits
    0, 1 or 2, raises nothing, records no numpy warning, and a usage exit
    names the problem on its first stderr line."""
    import random
    import warnings
    from telegate.circuit import to_document
    from telegate.teleport import synthesize_teleported_gate

    rnd = random.Random(2024)
    circuit = to_document(synthesize_teleported_gate(gates.T).circuit)
    cases = []
    for i in range(240):
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps(_mutations(circuit, rnd)))
        cases.append(["verify", str(path), "--against", "T"])
    for i in range(120):
        base = matrix_doc(rnd.choice([gates.T, gates.CS, gates.H]))
        path = tmp_path / f"m{i}.json"
        path.write_text(json.dumps({"matrix": _mutations(base, rnd)}))
        cases.append([rnd.choice(["hierarchy", "synth", "ancilla", "recursive"]), str(path)])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"matrix": [[[1e308, 0], [0, 0]], [[0, 0], [1, 0]]]}))
    cases += [[command, str(path)] for command in ("hierarchy", "synth")]
    cases.append(["verify", str(tmp_path / "c0.json"), "--against", str(path)])
    codes = set()
    for argv in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        _, err = capsys.readouterr()
        codes.add(code)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, argv
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (
            argv, [str(w.message) for w in caught])
        if code == 2:
            assert err.startswith("error:"), (argv, err)
    assert codes == {0, 1, 2}
