#!/usr/bin/env python3
"""telegate benchmark: closed-loop workloads with known-answer checks.

    python3 perfbench/run.py --workload synth-stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from src/.
One client sends one job at a time and waits for it (a closed loop).  The
last line of stdout is the result object; the lines before it list every
metric with its unit, the run's details and the environment.  A full
report goes to perfbench/out/, and a traced run also writes its spans there.
perfbench/README.md defines every metric.
"""
import time

T0 = time.perf_counter()

import os  # noqa: E402

# The jobs multiply matrices of at most 64 x 64.  At that size a second
# BLAS thread only adds wake-up cost, and on a shared 2-core host it made
# a Toffoli synthesis take 10x longer and vary from run to run.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None

# Set-up is timed this many times per run (the run's own plus fresh
# processes that stop after warm-up); the median is reported.
SETUP_SAMPLES = 5
# Rounds of the four CLI launches per run.
CLI_ROUNDS = 5

# The host's speed drifts: on a shared 2-vCPU machine the same round took
# from 150 to 260 ms within one minute, and a fixed pure-Python loop drifted
# with it.  Every timing is therefore scaled by CALIBRATION_REF_S over the
# time that loop takes around and during it, i.e. reported as if the host
# ran the loop in exactly CALIBRATION_REF_S.  Raw figures go to the details
# line and the report.
CALIBRATION_ITERATIONS = 5_000
CALIBRATION_REF_S = 0.00035
# While rounds run, a timer signal times the loop this often, so that a
# 20-s round is calibrated throughout and not only at its ends.
SAMPLE_INTERVAL_S = 0.1


def tick() -> float:
    """One timing of a loop that never touches the package."""
    t = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t


def calibrate() -> float:
    return statistics.median(tick() for _ in range(9))


def scale(before: float, after: float) -> float:
    """Factor for a timing taken between two calibrations."""
    return 2 * CALIBRATION_REF_S / (before + after)


class HostSampler:
    """Calibration samples (end time, duration) taken from SIGALRM."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._times: list[float] = []

    def add(self, *_signal_args) -> None:
        duration = tick()
        self.samples.append((time.perf_counter(), duration))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.add)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Scale for an interval: the samples taken in it, or the three
        nearest when it is too short to hold three."""
        if len(self._times) != len(self.samples):
            self._times = [t for t, _ in self.samples]
        times = self._times
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        if hi - lo < 3:
            lo, hi = max(0, lo - 2), min(len(times), hi + 2)
        return CALIBRATION_REF_S / statistics.median(d for _, d in self.samples[lo:hi])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal sizes, for the benchmark's own self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# the timed loop

class Loop:
    """Whole rounds of jobs, stopping before a round that would end past
    the deadline; at least one round runs.  A round's times are scaled by
    the calibration samples taken just before, during and just after it."""

    def __init__(self):
        self.latencies: list[float] = []
        self.job_rounds: list[int] = []
        self.kinds: list[str] = []
        self.failures: list[str] = []
        self.round_times: list[float] = []
        self.factors: list[float] = []
        self.host = HostSampler()
        self.elapsed = 0.0

    def run(self, workload, tracer, seconds: float, first_job: int = 0):
        start = time.perf_counter()
        job_id = first_job
        with self.host as host:
            for _ in range(3):
                host.add()
            while True:
                first_sample = len(host.samples) - 3
                round_start = time.perf_counter()
                for kind, fn, args in workload.round(self.rounds):
                    t = time.perf_counter()
                    try:
                        with tracer.job(kind, job_id):
                            fn(tracer, *args)
                    except Exception as exc:  # a failed job is counted, not fatal
                        self.failures.append(f"{kind} job {job_id}: {exc!r}\n"
                                             + traceback.format_exc(limit=3))
                    self.latencies.append(time.perf_counter() - t)
                    self.job_rounds.append(self.rounds)
                    self.kinds.append(kind)
                    job_id += 1
                self.round_times.append(time.perf_counter() - round_start)
                for _ in range(3):
                    host.add()
                self.factors.append(CALIBRATION_REF_S / statistics.median(
                    d for _, d in host.samples[first_sample:]))
                self.elapsed = time.perf_counter() - start
                if self.elapsed * (self.rounds + 1) / self.rounds > seconds:
                    return self

    @property
    def rounds(self) -> int:
        return len(self.round_times)

    def scaled_latencies(self) -> list[float]:
        return [lat * self.factors[r] for lat, r in zip(self.latencies, self.job_rounds)]

    @property
    def jobs_per_s(self) -> float:
        """Jobs per round over the median scaled round time."""
        scaled = [t * f for t, f in zip(self.round_times, self.factors)]
        return len(self.latencies) / self.rounds / statistics.median(scaled)

    @property
    def raw_jobs_per_s(self) -> float:
        return len(self.latencies) / self.rounds / statistics.median(self.round_times)


# ---------------------------------------------------------------------------
# phases in other processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_probes(args, count: int, failures: list) -> list[tuple[float, float]]:
    """(set-up time, scale factor) of fresh processes that stop after warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            failures.append(f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((probe["setup_s"], scale(probe["calibration_s"], probe["calibration_s"])))
    return times


def cli_launches(rounds: int, failures: list) -> tuple[float, float, int]:
    """Median over rounds of the mean wall time of the four launches, scaled
    and raw, in ms."""
    from answers import CLI_VERDICTS
    scaled, raw = [], []
    before = calibrate()
    for _ in range(rounds):
        walls, factors = [], []
        for argv, verdict in CLI_VERDICTS.items():
            t = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "telegate.cli", *argv], cwd=ROOT,
                                  env=child_env(), capture_output=True, text=True,
                                  timeout=120)
            walls.append(time.perf_counter() - t)
            after = calibrate()
            factors.append(scale(before, after))
            before = after
            if proc.returncode != 0 or verdict not in proc.stdout:
                failures.append(f"telegate {' '.join(argv)}: exit {proc.returncode},"
                                f" want {verdict!r} in {proc.stdout[-300:]!r}")
        raw.append(statistics.fmean(walls) * 1e3)
        scaled.append(statistics.fmean(w * f for w, f in zip(walls, factors)) * 1e3)
    return statistics.median(scaled), statistics.median(raw), rounds * len(CLI_VERDICTS)


# ---------------------------------------------------------------------------
# metrics

def end_to_end(workload, loop: Loop, setups, cli_ms, launches, failures) -> tuple:
    """`setups` holds (time, scale factor) pairs; `cli_ms` the scaled and raw
    CLI figures; `launches` counts the CLI launches and set-up probes, which
    can fail too."""
    lat_ms = [x * 1e3 for x in loop.scaled_latencies()]
    raw_ms = [x * 1e3 for x in loop.latencies]
    tail = float(np.percentile(lat_ms, workload.tail_percentile))
    attempted = len(lat_ms) + launches
    failed = len(loop.failures) + len(failures)
    metrics = {
        "setup_s": statistics.median(t * f for t, f in setups),
        "jobs_per_s": loop.jobs_per_s,
        "job_p50_ms": statistics.median(lat_ms),
        "job_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1.0 - failed / attempted,
        "cli_start_ms": cli_ms[0],
    }
    by_kind: dict[str, list] = {}
    for kind, ms in zip(loop.kinds, lat_ms):
        by_kind.setdefault(kind, []).append(ms)
    details = {
        "tail_percentile": workload.tail_percentile,
        "tail_samples_beyond": sum(1 for x in lat_ms if x > tail),
        "jobs": len(lat_ms), "rounds": loop.rounds, "timed_s": loop.elapsed,
        "fail_ratio": failed / attempted,
        "launches_and_probes": launches,
        "raw": {"setup_s": statistics.median(t for t, _ in setups),
                "jobs_per_s": loop.raw_jobs_per_s,
                "job_p50_ms": statistics.median(raw_ms),
                "job_tail_ms": float(np.percentile(raw_ms, workload.tail_percentile)),
                "cli_start_ms": cli_ms[1]},
        "scale_factors": {"min": min(loop.factors), "median": statistics.median(loop.factors),
                          "max": max(loop.factors)},
    }
    p50_by_kind = {k: statistics.median(v) for k, v in sorted(by_kind.items())}
    return metrics, attempted, failed, details, p50_by_kind


def per_layer(totals: dict, rounds: int, overhead: float) -> dict:
    """Additive values are per round of the workload's mix."""
    def layer(name):
        return totals.get(name, {"calls": 0, "self_s": 0.0, "counts": {}})

    def count(name, key):
        return layer(name)["counts"].get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    live = count("simulator.verify", "branches_live")
    dead = count("simulator.verify", "branches_dead")
    branches = count("simulator.run_all_branches", "branches")
    out = {
        "simulator.verify.branches_live": live / rounds,
        "simulator.verify.branches_dead": dead / rounds,
        "simulator.verify.us_per_branch":
            ratio(layer("simulator.verify")["self_s"] * 1e6, live + dead),
        "simulator.run_all_branches.branches": branches / rounds,
        "simulator.run_all_branches.us_per_branch":
            ratio(layer("simulator.run_all_branches")["self_s"] * 1e6, branches),
        "hierarchy.level.us_per_call": ratio(layer("hierarchy.level")["self_s"] * 1e6,
                                             layer("hierarchy.level")["calls"]),
        "recursive.measurements": ratio(count("recursive.synth", "measurements"),
                                        layer("recursive.synth")["calls"]),
        "ancilla.script_branches": count("ancilla.run_script", "script_branches") / rounds,
        "circuit.json_bytes": count("circuit.serialize", "json_bytes") / rounds,
        "trace.overhead_ratio": overhead,
    }
    for m in SPEC["per_layer"]:
        name, _, stat = m["name"].rpartition(".")
        if stat in ("calls", "self_s"):
            out[m["name"]] = layer(name)[stat] / rounds
    return out


def emit(kind: str, values: dict) -> dict:
    """Order and units from BENCHMARK.json; every listed metric must exist."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}


# ---------------------------------------------------------------------------
# entry points

def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": int(BLAS_THREADS), "commit": commit(),
            "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs usable,"
                       f" {platform.system()} {platform.release()}"}


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import NullTracer, Tracer, layer_totals

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, work)
        untraced = NullTracer()
        workload.warm_up(untraced)
        setup_s = time.perf_counter() - T0
        calibration_s = calibrate()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "calibration_s": calibration_s}))
            return 0

        failures: list[str] = []
        if args.trace == 0:
            loop = Loop().run(workload, untraced, args.seconds)
            samples = 1 if args.smoke else SETUP_SAMPLES
            setups = [(setup_s, scale(calibration_s, calibration_s))]
            setups += setup_probes(args, samples - 1, failures)
            *cli_ms, launches = cli_launches(1 if args.smoke else CLI_ROUNDS, failures)
            values, attempted, failed, details, by_kind = end_to_end(
                workload, loop, setups, cli_ms, launches + samples - 1, failures)
            metrics = emit("end_to_end", values)
            failures = loop.failures + failures
        else:
            plain = Loop().run(workload, untraced, args.seconds / 2)
            tracer = Tracer()
            traced = Loop().run(workload, tracer, args.seconds / 2,
                                first_job=len(plain.latencies))
            values = per_layer(layer_totals(tracer.spans, traced.host.factor), traced.rounds,
                               traced.jobs_per_s / plain.jobs_per_s)
            metrics = emit("per_layer", values)
            by_kind = {}
            failures = plain.failures + traced.failures
            attempted = len(plain.latencies) + len(traced.latencies)
            failed = len(failures)
            details = {"untraced_jobs_per_s": plain.jobs_per_s,
                       "traced_jobs_per_s": traced.jobs_per_s,
                       "raw_untraced_jobs_per_s": plain.raw_jobs_per_s,
                       "raw_traced_jobs_per_s": traced.raw_jobs_per_s,
                       "traced_rounds": traced.rounds, "spans": len(tracer.spans)}
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "details": details,
              "p50_ms_by_kind": by_kind, "failures": failures[:20]}
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, "metrics": metrics}, indent=1))
    for msg in failures[:5]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print("# details " + json.dumps(details))
    print("# environment " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; metric names gain a workload prefix."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in SPEC["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: {w['name']} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if SPEC is None or not (SRC / "telegate" / "__init__.py").is_file():
        print("error: run from a checkout of the repository: BENCHMARK.json and"
              " src/telegate are needed", file=sys.stderr)
        return 2
    names = [w["name"] for w in SPEC["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
