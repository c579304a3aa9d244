"""Command-line frontend.

Exit codes: 0 when every requested verification passed, 1 when a
verification or synthesis failed, 2 for usage or input-format errors.
Verification always runs before any file is emitted; there is no way to
force out an unverified artifact.  TELEGATE_TOL, when set, replaces the
--tol default of every subcommand; a tolerance outside (0, 1) is a usage
error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import ancilla as ancilla_mod
from . import circuit as circuit_mod
from . import gates, hierarchy, recursive, remote, teleport
from .errors import SynthesisRefusal, TelegateError
from .limits import FLOOR, TOL, VERIFY_TOL, check_tolerance
from .pauli import format_literal, pauli_from_matrix
from .simulator import (StateVector, equivalent_up_to_phase, extract_register_state,
                        random_state, run_all_branches, sample_branches,
                        verify_gate_equivalence)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def tolerance(text: str) -> float:
    """The argparse type of every --tol and of TELEGATE_TOL: a number in (0, 1)."""
    return check_tolerance(float(text))


def qubit_list(text: str) -> list[int]:
    """The argparse type of --in-map and --out-map: comma-separated qubit indices."""
    try:
        return [int(t) for t in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated qubit indices, got {text!r}") from None


def _load_matrix_file(path: str) -> np.ndarray:
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, dict):
        doc = doc.get("matrix", doc)
    return circuit_mod.matrix_from_doc(doc)


def _resolve_gate(token: str) -> np.ndarray:
    """A gate name from the library, or a path to a matrix JSON file."""
    try:
        return gates.matrix_of(token)
    except TelegateError:
        pass
    if Path(token).exists():
        return _load_matrix_file(token)
    raise TelegateError(f"unknown gate {token!r} (not a library name or file)")


def _fmt_amplitudes(state: StateVector) -> str:
    parts = []
    for z in state.amplitudes:
        re, im = float(z.real), float(z.imag)
        parts.append(f"{re:+.6f}{im:+.6f}j")
    return "[" + ", ".join(parts) + "]"


def _print_corrections(corrections) -> None:
    for c in corrections:
        line = f"  qubit {c.qubit}: class={c.klass}"
        if c.pauli_literal:
            line += f" pauli={c.pauli_literal}"
        if c.residue_level is not None:
            line += f" residue_level={c.residue_level}"
        line += f" phase={c.phase:.6f}"
        print(line)


def cmd_hierarchy(args) -> int:
    u = _resolve_gate(args.gate)
    verdict = hierarchy.hierarchy_level(u, k_max=args.k_max, tol=args.tol)
    print(verdict.describe())
    return EXIT_OK


def cmd_synth(args) -> int:
    u = _resolve_gate(args.gate)
    if args.sandwich:
        tokens = args.sandwich.split(",")
        if len(tokens) != 3:
            raise TelegateError("--sandwich needs GA,V,GB")
        from .clifford import clifford_from_matrix
        g_a = clifford_from_matrix(_resolve_gate(tokens[0]), tol=args.tol)
        v = _resolve_gate(tokens[1])
        g_b = clifford_from_matrix(_resolve_gate(tokens[2]), tol=args.tol)
        if g_a is None or g_b is None:
            raise TelegateError("sandwich frames must be Clifford gates")
        result = teleport.synthesize_sandwiched(u, g_a, v, g_b, tol=args.tol)
    else:
        plan = None
        if args.plan != "auto":
            plan = teleport.TeleportPlan(tuple(args.plan.upper()))
        result = teleport.synthesize_teleported_gate(u, plan, k_hint=args.k_hint,
                                                     tol=args.tol)
    print(f"plan: {result.plan.describe()}")
    print(f"ancilla: {_fmt_amplitudes(result.ancilla_state)}")
    print("corrections:")
    _print_corrections(result.corrections)
    print(f"verified: all branches, worst fidelity {result.report.worst_fidelity:.12f}")
    if args.diagram:
        print(circuit_mod.render(result.circuit))
    if args.out:
        Path(args.out).write_text(circuit_mod.serialize(result.circuit))
        Path(args.out + ".report.json").write_text(json.dumps(result.sidecar(), indent=1))
        print(f"wrote {args.out} and {args.out}.report.json")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.sample < 0:
        raise TelegateError(f"--sample must be at least 0, got {args.sample}")
    c = circuit_mod.deserialize(Path(args.circuit).read_text())
    u = _resolve_gate(args.against)
    in_map = args.in_map or list(c.symbolic_qubits)
    out_map = args.out_map or sorted(set(range(c.n_qubits)) - c.measured_qubits())
    report = verify_gate_equivalence(c, u, in_map, out_map, tol=args.tol)  # checks the maps
    if args.sample:
        counts = sample_branches(c, None if not in_map else
                                 random_state(len(in_map),
                                              np.random.default_rng(args.seed)),
                                 args.sample, np.random.default_rng(args.seed))
        print(f"sampled {args.sample} shots: "
              + " ".join(f"{k}:{v}" for k, v in sorted(counts.items())))
    weights = dict(report.branch_weights.items())
    for bits, scalar in sorted(report.branch_scalars.items()):
        weight = weights.get(bits, 0.0)
        print(f"branch {bits}: p={weight:.6f} scalar={scalar:.6f}")
    print(f"worst fidelity: {report.worst_fidelity:.12f}")
    if report.passed:
        print("PASS")
        return EXIT_OK
    print(f"FAIL at branch {report.failing_branch}")
    return EXIT_FAIL


def cmd_ancilla(args) -> int:
    u = _resolve_gate(args.gate)
    plan = teleport.plan_teleportation(u, tol=args.tol)
    if plan is None:
        print("no commuting plan: cannot derive stabilizers from a teleport layer")
        return EXIT_FAIL
    spec = ancilla_mod.derive_stabilizers(u, plan.a_ops, tol=args.tol)
    if args.shortcut is not None and not 1 <= args.shortcut <= len(spec.pairs):
        raise TelegateError(f"--shortcut must be between 1 and {len(spec.pairs)},"
                            f" got {args.shortcut}")
    print(f"plan: {plan.describe()}")
    print(f"target: {_fmt_amplitudes(spec.target)}")
    for i, pair in enumerate(spec.pairs):
        line = f"  M_{i + 1}: level {pair.m_level}   Q_{i + 1}: level {pair.q_level}"
        hit = pauli_from_matrix(pair.q, tol=max(args.tol, FLOOR))
        if hit is not None:
            line += f" ({format_literal(hit[1])})"
        print(line)
    for w in spec.warnings:
        print(f"  warning: {w}")
    if args.shortcut is not None:
        script = ancilla_mod.shortcut_preparation(spec, args.shortcut - 1)
        print(f"shortcut intermediate: {_fmt_amplitudes(script.initial_state)}")
        print(f"product intermediate: {script.product_intermediate}")
        letters = ancilla_mod.product_factor_stabilizers(script.initial_state)
        print(f"intermediate stabilizers: {letters}")
    else:
        script = ancilla_mod.build_preparation(spec)
    passed = True
    if args.simulate or args.out:  # nothing unverified is written
        passed, worst = ancilla_mod.verify_script(script)
        for br in ancilla_mod.run_script(script) if args.simulate else ():
            if br.state is None:
                print(f"branch {br.bitstring}: p=0 (dead)")
                continue
            fid = equivalent_up_to_phase(script.expected_final, br.state)[1]
            print(f"branch {br.bitstring}: p={br.probability:.6f} fidelity={fid:.12f}")
        if args.simulate or not passed:
            print(f"worst fidelity: {worst:.12f} -> {'PASS' if passed else 'FAIL'}")
    if args.out and passed:
        Path(args.out).write_text(ancilla_mod.script_to_json(script))
        print(f"wrote {args.out}")
    return EXIT_OK if passed else EXIT_FAIL


def _parse_gate_spec(token: str, level: int | None) -> recursive.GateSpec:
    upper = token.upper()
    if upper.strip("C") == "V" and upper.endswith("V"):
        controls = upper.count("C")
        if level is None:
            raise TelegateError("rotation specs need --k (the target level)")
        if controls == 0:
            return recursive.rotation_spec(level)
        return recursive.controlled_rotation_spec(controls, level)
    return recursive.matrix_spec(_resolve_gate(token), label=token)


def cmd_recursive(args) -> int:
    spec = _parse_gate_spec(args.gate, args.k)
    rc = recursive.synth_recursive(spec, flatten=True, tol=args.tol)
    rep = recursive.resource_report(rc)
    print(f"gate {spec.label}: level {rc.level}, width {rc.n}")
    print(f"tree depth {rep.depth}, ancilla qubits {rep.ancilla_qubits},"
          f" measurements {rep.measurements}")
    print(f"classically-controlled gates by level: "
          f"{json.dumps(rep.cgates_by_level, sort_keys=True)}")
    print("verified: all branches of the flattened circuit")
    if args.diagram:
        print(circuit_mod.render(rc.flattened))
    if args.out:
        if args.flatten:
            Path(args.out).write_text(circuit_mod.serialize(rc.flattened))
        else:
            Path(args.out).write_text(recursive.tree_to_json(rc))
        print(f"wrote {args.out}")
    if args.report:
        Path(args.report).write_text(json.dumps(dataclasses.asdict(rep), indent=1))
        print(f"wrote {args.report}")
    return EXIT_OK


_PROTOCOLS = {  # --protocol's choices and their builders
    "teleport2-xz": lambda: remote.build_two_bit_teleportation("XZ"),
    "teleport2-zx": lambda: remote.build_two_bit_teleportation("ZX"),
    "remote-cnot": lambda: remote.build_remote_cnot("direct"),
    "remote-cnot-4step": lambda: remote.build_remote_cnot("four_step"),
}


def cmd_remote(args) -> int:
    if args.trials < 0:
        raise TelegateError(f"--trials must be at least 0, got {args.trials}")
    protocol = _PROTOCOLS[args.protocol]()
    trace = remote.run_protocol(protocol, tol=args.tol)
    rng = np.random.default_rng(args.seed)
    k = len(protocol.in_map)
    worst = 1.0
    for _ in range(args.trials):
        psi = random_state(k, rng)
        want = StateVector(k, protocol.target @ psi.amplitudes)
        for br in run_all_branches(protocol.circuit, psi):
            if br.state is not None:
                got = extract_register_state(br, protocol.out_map)
                worst = min(worst, equivalent_up_to_phase(want, got)[1])
    ok = trace.report.passed and worst >= 1.0 - args.tol
    print(f"{protocol.name}: {trace.ebits} ebit(s), {trace.cbits_total} cbit(s)"
          f" (alice->bob {trace.cbits_alice_to_bob},"
          f" bob->alice {trace.cbits_bob_to_alice})")
    print(f"{args.trials} random inputs, worst fidelity {worst:.12f}"
          f" -> {'all branches pass' if ok else 'FAIL'}")
    if args.trace:
        print(remote.trace_to_json(trace))
    return EXIT_OK if ok else EXIT_FAIL


@lru_cache(maxsize=8)  # one per TELEGATE_TOL value; a refused value raises, so is never kept
def build_parser(raw: str | None) -> argparse.ArgumentParser:
    # TELEGATE_TOL (raw) replaces both defaults: recognition (TOL) and verification.
    try:
        tol, verify_tol = (tolerance(raw),) * 2 if raw else (TOL, VERIFY_TOL)
    except ValueError:
        raise TelegateError(f"TELEGATE_TOL={raw!r} is not a number in (0, 1)") from None
    parser = argparse.ArgumentParser(
        prog="telegate",
        description="gate synthesis and verification by one-bit teleportation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hierarchy", help="classify a gate's hierarchy level")
    p.add_argument("gate")
    p.add_argument("--k-max", type=int, default=hierarchy.DEFAULT_K_MAX)
    p.add_argument("--tol", type=tolerance, default=tol)
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("synth", help="rewrite a gate into teleported form")
    p.add_argument("gate")
    p.add_argument("--plan", default="auto",
                   help="'auto' or an explicit X/Z pattern such as XXZ")
    p.add_argument("--sandwich", default=None, metavar="GA,V,GB",
                   help="teleport u = GB*V*GA through the generalized circuit")
    p.add_argument("--k-hint", type=int, default=3)
    p.add_argument("--out", default=None)
    p.add_argument("--diagram", action="store_true")
    p.add_argument("--tol", type=tolerance, default=tol)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="check a circuit file against a gate")
    p.add_argument("circuit")
    p.add_argument("--against", required=True)
    p.add_argument("--in-map", type=qubit_list, default=None)
    p.add_argument("--out-map", type=qubit_list, default=None)
    p.add_argument("--sample", type=int, default=0, metavar="SHOTS",
                   help="also print sampled outcome counts (demo only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=tolerance, default=verify_tol)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ancilla", help="derive stabilizers and preparation scripts")
    p.add_argument("gate")
    p.add_argument("--shortcut", type=int, default=None, metavar="I",
                   help="1-based stabilizer index for the shortcut route")
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=tolerance, default=tol)
    p.set_defaults(func=cmd_ancilla)

    p = sub.add_parser("recursive", help="recursively expand a diagonal gate")
    p.add_argument("gate", help="V, CV, CCV (with --k) or a gate name / matrix file")
    p.add_argument("--k", type=int, default=None, help="target hierarchy level")
    p.add_argument("--flatten", action="store_true",
                   help="write the flattened circuit instead of the tree")
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--diagram", action="store_true")
    p.add_argument("--tol", type=tolerance, default=verify_tol)
    p.set_defaults(func=cmd_recursive)

    p = sub.add_parser("remote", help="run a two-party protocol demo")
    p.add_argument("--protocol", required=True, choices=list(_PROTOCOLS))
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tol", type=tolerance, default=verify_tol)
    p.set_defaults(func=cmd_remote)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser(os.environ.get("TELEGATE_TOL")).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except TelegateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except SynthesisRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except TelegateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
