"""The three workloads, as rounds of jobs made through the public API.

A round holds every request kind of its workload once, in an order and
with inputs drawn from the seed.  Runs measure whole rounds, so the mix a
run measures, and with it the median and tail, is the same for every seed.
Each job is `fn(tracer, *args)`; it raises `answers.Miss` when a result
disagrees with its known answer.
"""
from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

import telegate as tg
from telegate import ancilla, cli, gates, recursive, simulator
from telegate.circuit import MeasureOp

from answers import (A_LAYERS, ANCILLAS, CCS_LEVEL, LADDER_LEVELS, LIBRARY_LEVELS,
                     PLANS, RECURSION, RECURSION_TOL, REMOTE_COSTS, REPAIR_CLASSES,
                     SYNTH_TOL, expect, expect_branches, expect_fidelity)

# Rounds are cycled through this many pre-drawn plans.
PLANS_DRAWN = 64


def _verified(tr, circuit, u, in_map, out_map, tol):
    """Replay of the branch check a public call made internally."""
    report = tr.call("simulator.verify", tg.verify_gate_equivalence,
                     circuit, u, in_map, out_map, tol=tol)
    live = sum(1 for w in report.branch_weights.values() if w > 0)
    tr.note(branches_live=live, branches_dead=len(report.branch_weights) - live)
    return report


def _replay_repairs(tr, corrections):
    for c in corrections:
        tr.call("pauli.from_matrix", tg.pauli_from_matrix, c.matrix, tol=1e-8)
        tr.call("clifford.from_matrix", tg.clifford_from_matrix, c.matrix, tol=1e-8)


def _expect_synthesis(res, name: str, level: int, n: int) -> None:
    expect(res.report.passed, f"{name}: synthesis report failed")
    expect_fidelity(res.report.worst_fidelity, SYNTH_TOL, name)
    expect_branches(res.report.branch_weights, n, name)
    classes = {c.klass for c in res.corrections}
    expect(classes <= REPAIR_CLASSES[level],
           f"{name}: repairs {sorted(classes)} above level {level - 1}")


# ---------------------------------------------------------------------------
# synth-stream

def hierarchy_job(tr, label, matrix, level):
    verdict = tr.call("hierarchy.level", tg.hierarchy_level, matrix, k_max=6)
    expect(verdict.level == level, f"hierarchy {label}: level {verdict.level}, want {level}")


def synth_job(tr, name):
    u = gates.matrix_of(name)
    n = gates.arity_of(name)
    res = tr.call("teleport.synth", tg.synthesize_teleported_gate, u)
    if tr.on:
        with tr.replaying():
            tr.call("teleport.plan", tg.plan_teleportation, u)
            tr.call("hierarchy.level", tg.hierarchy_level, u, k_max=3)
            _replay_repairs(tr, res.corrections)
            _verified(tr, res.circuit, u, list(range(n)), list(range(n, 2 * n)), SYNTH_TOL)
    _expect_synthesis(res, name, LIBRARY_LEVELS[name], n)
    if name in ANCILLAS:
        expect(np.max(np.abs(res.ancilla_state.amplitudes - ANCILLAS[name])) <= 1e-10,
               f"{name}: ancilla differs from the standard one")
    if name in PLANS:
        expect(res.plan.describe() == PLANS[name], f"{name}: plan {res.plan.describe()}")

    text = tr.call("circuit.serialize", tg.serialize, res.circuit)
    tr.note(json_bytes=len(text.encode()))
    back = tr.call("circuit.deserialize", tg.deserialize, text)
    if tr.on:
        with tr.replaying():
            tr.call("circuit.validate", tg.validate, back)
    drawing = tr.call("circuit.render", tg.render, back)
    expect((back.n_qubits, back.n_cbits, len(back.ops))
           == (2 * n, n, len(res.circuit.ops)), f"{name}: JSON round trip changed the circuit")
    expect(all(f"q{q}:" in drawing for q in range(2 * n)), f"{name}: drawing lacks a wire")


def sandwich_job(tr, frames):
    g_a, v, g_b = frames
    res = tr.call("teleport.synth", tg.synthesize_sandwiched, gates.CH, g_a, v, g_b)
    if tr.on:
        with tr.replaying():
            _replay_repairs(tr, res.corrections)
            _verified(tr, res.circuit, gates.CH, [0, 1], [2, 3], SYNTH_TOL)
    _expect_synthesis(res, "CH", LIBRARY_LEVELS["CH"], 2)


def ancilla_job(tr, name, shortcut):
    u = gates.matrix_of(name)
    plan = tr.call("teleport.plan", tg.plan_teleportation, u)
    expect(plan is not None and plan.a_ops == A_LAYERS[name], f"ancilla {name}: A layer")
    spec = tr.call("ancilla.derive", tg.derive_stabilizers, u, plan.a_ops)
    if tr.on:
        with tr.replaying():
            for pair in spec.pairs:
                tr.call("hierarchy.level", tg.hierarchy_level, pair.m)
                tr.call("hierarchy.level", tg.hierarchy_level, pair.q)
    if shortcut is None:
        script = tr.call("ancilla.script", tg.build_preparation, spec)
    else:
        script = tr.call("ancilla.script", tg.shortcut_preparation, spec, shortcut)
        expect(script.product_intermediate, f"ancilla {name}: shortcut {shortcut} not a product")
    ok, worst = tr.call("ancilla.verify_script", ancilla.verify_script, script)
    if tr.on:
        with tr.replaying():
            branches = tr.call("ancilla.run_script", ancilla.run_script, script)
            tr.note(script_branches=len(branches))
    expect(ok, f"ancilla {name}: preparation script failed")
    expect_fidelity(worst, SYNTH_TOL, f"ancilla {name}")


def remote_job(tr, protocol, psi):
    trace = tr.call("remote.run_protocol", tg.run_protocol, protocol, psi)
    if tr.on:
        with tr.replaying():
            tr.call("remote.locality_audit", tg.locality_audit, protocol.circuit, protocol.layout)
            _verified(tr, protocol.circuit, protocol.target, protocol.in_map,
                      protocol.out_map, SYNTH_TOL)
            branches = tr.call("simulator.run_all_branches", tg.run_all_branches,
                               protocol.circuit, psi)
            tr.note(branches=len(branches))
    expect(trace.report.passed, f"{protocol.name}: verification failed")
    expect((trace.ebits, trace.cbits_total) == REMOTE_COSTS[protocol.name],
           f"{protocol.name}: costs {(trace.ebits, trace.cbits_total)}")
    want = protocol.target @ psi.amplitudes
    worst = min(abs(np.vdot(want, simulator.extract_register_state(br, protocol.out_map)
                            .amplitudes))
                for br in trace.final_branches if br.state is not None)
    expect_fidelity(float(worst), SYNTH_TOL, protocol.name)


def cli_job(tr, name, path):
    u = gates.matrix_of(name)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tr.call("cli.main", cli.main, ["synth", name, "--out", str(path)])
    if tr.on:
        with tr.replaying():
            res = tr.call("teleport.synth", tg.synthesize_teleported_gate, u)
            tr.call("circuit.serialize", tg.serialize, res.circuit)
    expect(code == 0 and "verified: all branches" in out.getvalue(),
           f"cli synth {name}: exit {code}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tr.call("cli.main", cli.main, ["verify", str(path), "--against", name])
    if tr.on:
        with tr.replaying():
            c = tr.call("circuit.deserialize", tg.deserialize, path.read_text())
            measured = c.measured_qubits()
            _verified(tr, c, u, list(c.symbolic_qubits),
                      [q for q in range(c.n_qubits) if q not in measured], SYNTH_TOL)
    expect(code == 0 and out.getvalue().rstrip().endswith("PASS"),
           f"cli verify {name}: exit {code}")


class SynthStream:
    """Small requests over the 18 library gates; every job has at most 16
    branches, so per-call overhead and hierarchy work dominate."""

    name = "synth-stream"
    tail_percentile = 99.0
    SYNTH = ("T", "T†", "S", "CS", "CS†", "CZ", "CNOT", "TOFFOLI")
    ANCILLA = ("T", "CS", "TOFFOLI")
    CLI = ("T", "CS", "TOFFOLI")

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.frames = (tg.clifford_from_matrix(gates.kron(gates.I2, gates.Q.conj().T)),
                       gates.kron(gates.T, gates.I2) @ gates.matrix_of("CS†"),
                       tg.clifford_from_matrix(gates.CNOT @ gates.kron(gates.I2, gates.Q)))
        self.protocols = [tg.build_two_bit_teleportation("XZ"),
                          tg.build_two_bit_teleportation("ZX"),
                          tg.build_remote_cnot("direct"),
                          tg.build_remote_cnot("four_step")]
        self.plans = [self._draw(rng) for _ in range(PLANS_DRAWN)]

    def _draw(self, rng):
        jobs = []
        # A global phase leaves the level unchanged; draw one per request.
        levels = [(name, gates.matrix_of(name), lvl) for name, lvl in LIBRARY_LEVELS.items()]
        levels += [(f"ladder{k}", np.diag([1.0, np.exp(2j * np.pi / 2**k)]), lvl)
                   for k, lvl in LADDER_LEVELS.items()]
        levels.append(("CCS", gates.controlled(gates.S, n_controls=2), CCS_LEVEL))
        for label, m, lvl in levels:
            phase = np.exp(2j * np.pi * rng.random())
            jobs.append((f"hierarchy:{label}", hierarchy_job, (label, phase * m, lvl)))
        jobs += [(f"synth:{name}", synth_job, (name,)) for name in self.SYNTH]
        jobs.append(("sandwich:CH", sandwich_job, (self.frames,)))
        for name in self.ANCILLA:
            jobs.append((f"ancilla:{name}", ancilla_job, (name, None)))
            jobs.append((f"ancilla:{name}:shortcut", ancilla_job,
                         (name, int(rng.integers(len(A_LAYERS[name]))))))
        for p in self.protocols:
            jobs.append((f"remote:{p.name}", remote_job,
                         (p, simulator.random_state(len(p.in_map), rng))))
        jobs += [(f"cli:{name}", cli_job, (name, self.workdir / f"cli-{name}.json"))
                 for name in self.CLI]
        order = rng.permutation(len(jobs))
        return [jobs[i] for i in order]

    def round(self, i: int):
        return self.plans[i % PLANS_DRAWN]

    def warm_up(self, tr):
        for _, fn, args in self.plans[0]:
            fn(tr, *args)


# ---------------------------------------------------------------------------
# recursion-mid and verify-level5

def _spec(label: str):
    controls = label.index("V")
    level = int(label[controls + 1:])
    if controls == 0:
        return recursive.rotation_spec(level)
    return recursive.controlled_rotation_spec(controls, level)


def recursion_job(tr, label, slot):
    spec = _spec(label)
    measurements, depth = RECURSION[label]
    rc = tr.call("recursive.synth", tg.synth_recursive, spec, flatten=True)
    report = tg.resource_report(rc)
    tr.note(measurements=report.measurements)
    if tr.on:
        with tr.replaying():
            verify = _verified(tr, rc.flattened, rc.gate, rc.in_map, rc.out_map,
                               RECURSION_TOL)
        # The tree alone, timed beside the synthesis rather than subtracted
        # from it: both are much larger than the flattening between them.
        tr.call("recursive.build", tg.synth_recursive, spec, flatten=False)
        with tr.replaying():
            tr.call("hierarchy.level", tg.hierarchy_level, spec.matrix, k_max=6)
        expect_branches(verify.branch_weights, measurements, label)
        expect_fidelity(verify.worst_fidelity, RECURSION_TOL, label)
    expect(rc.level == spec.level_param, f"{label}: level {rc.level}")
    expect((report.measurements, report.depth) == (measurements, depth),
           f"{label}: measurements/depth {(report.measurements, report.depth)}")
    in_circuit = sum(1 for op in rc.flattened.ops if isinstance(op, MeasureOp))
    expect(in_circuit == measurements, f"{label}: flattened circuit has {in_circuit} measurements")
    if slot is not None:
        slot[label] = rc


def execute_job(tr, label, slot, psi):
    rc = slot.pop(label)
    paths = tr.call("recursive.execute_tree", recursive.execute_tree, rc, psi)
    want = rc.gate @ psi.amplitudes
    expect(abs(sum(p for _, p, _ in paths) - 1.0) <= RECURSION_TOL,
           f"{label}: path probabilities do not sum to 1")
    worst = min(abs(np.vdot(want, s.amplitudes)) for _, _, s in paths if s is not None)
    expect_fidelity(float(worst), RECURSION_TOL, f"{label} tree")


def prep_job(tr, label):
    prep = tr.call("recursive.prep", tg.recursive_ancilla_prep, _spec(label))
    ok, worst = tr.call("recursive.verify_prep", recursive.verify_preparation, prep)
    if tr.on:
        with tr.replaying():
            branches = tr.call("simulator.run_all_branches", tg.run_all_branches,
                               prep.circuit, None)
            tr.note(branches=len(branches))
    expect(ok, f"{label} preparation failed")
    expect_fidelity(worst, RECURSION_TOL, f"{label} preparation")


class RecursionMid:
    """Recursive synthesis from 4 to 4,096 branches, each followed by a
    tree execution on a random input, plus recursive ancilla preparation."""

    name = "recursion-mid"
    tail_percentile = 90.0
    SYNTH = ("V4", "V5", "CV4", "CCV3", "CCV4")
    PREP = ("V5", "CV4", "CCV3")

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = np.random.default_rng(seed)
        self.slot: dict = {}
        self.plans = [self._draw(rng) for _ in range(PLANS_DRAWN)]

    def _draw(self, rng):
        tasks = []
        for label in self.SYNTH:
            n = _spec(label).n
            tasks.append([(f"synth:{label}", recursion_job, (label, self.slot)),
                          (f"execute:{label}", execute_job,
                           (label, self.slot, simulator.random_state(n, rng)))])
        tasks += [[(f"prep:{label}", prep_job, (label,))] for label in self.PREP]
        order = rng.permutation(len(tasks))
        return [job for i in order for job in tasks[i]]

    def round(self, i: int):
        return self.plans[i % PLANS_DRAWN]

    def warm_up(self, tr):
        psi = simulator.random_state(1, np.random.default_rng(0))
        recursion_job(tr, "V4", self.slot)
        execute_job(tr, "V4", self.slot, psi)
        recursion_job(tr, "CCV3", self.slot)
        self.slot.clear()
        prep_job(tr, "CV4")


class VerifyLevel5:
    """The controlled rotation at level 5: 18 measurements, 2^18 branches."""

    name = "verify-level5"
    tail_percentile = 100.0

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        # The job has no free input; the seed only names the run.
        self.label = "CV4" if smoke else "CV5"

    def round(self, i: int):
        return [(f"synth:{self.label}", recursion_job, (self.label, None))]

    def warm_up(self, tr):
        recursion_job(tr, "CV3", None)


WORKLOADS = {w.name: w for w in (SynthStream, RecursionMid, VerifyLevel5)}
