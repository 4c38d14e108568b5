"""Certification benchmark for timeflip.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Every CLI operation runs in its own fresh
Python process (perfbench/child.py), one at a time, so the package's lazy
caches start cold as they do for a shell user.  Every operation's output is
checked against its reference (the gate_* functions, with REFERENCES) as it
completes; a run whose outputs are wrong reports "correct": false.

--trace 0 runs whole workload passes while they fit in --seconds (at least
one) and reports the end-to-end metrics (medians over passes).  The run and
its operations are pinned to one CPU, and a speed probe (perfbench/probe.py)
samples that CPU's speed while they run; wall_ref_s is the pass wall time
with each operation scaled to the probe's reference speed, which takes out
the drift of a shared machine's CPU speed.  --trace 1 runs each operation
once untraced and once under the span tracer (perfbench/spans.py) and
reports the per-layer metrics and the tracing overhead.  The last line of stdout is the JSON result; the full record, with
a machine block, goes to .perfbench/results/.  PROTOCOL.md has the details.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# A run ends within this many seconds whatever --seconds asks for; an
# operation still running then is killed and counts as failed.
RUN_DEADLINE_S = 170.0

# Each operation runs with one BLAS/OpenMP thread.  On 2 cores the default
# two OpenBLAS threads gave the same wall time for `robustness` at twice the
# CPU time, and spinning threads pick up noise from other processes.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The speed probe times PROBE_ROUNDS rounds of its kernel every
# PROBE_PERIOD_S seconds on the operations' CPU (about 5% of that CPU).
# PROBE_REF_S is the median sample on the reference machine of PROTOCOL.md.
PROBE_PERIOD_S = 0.1
PROBE_ROUNDS = 4
PROBE_REF_S = 0.0051

# References every operation is checked against.  Tolerances follow
# tests/test_acceptance.py.
REFERENCES = {
    "robustness": 0.40068,
    "robustness_restricted": 0.17157,
    "pmax": 0.9197,
    "terms_full": 794,
    "terms_restricted": 59,
    "game_correct": "21/21",
    "value_tol": 5e-3,
    "gap_tol": 1e-4,
    "estimate_tol": 1e-6,
}
HALF_QTF_WEIGHT = 0.5
NO_CERTIFY_MESSAGE = "solver did not certify"

END_TO_END = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and recorded with the end-to-end metrics but not bounded: the
# unscaled pass wall time (wall_s), whose run-to-run spread on a shared
# 2-vCPU machine came close to the largest bound (PROTOCOL.md), and, at the
# probe's reference speed, the in-process time of the certifying operations
# (certify_s) and of single operations on the workloads that run them.
OPERATION_METRICS = {
    "certify-qtf": ("wall_s", "certify_s", "robustness_s", "robustness_restricted_s",
                    "validate_s"),
    "game-pmax": ("wall_s", "certify_s", "pmax_s"),
    "noisy-setups": ("wall_s", "certify_s", "robustness_s"),
}
PER_LAYER = {
    "tensor_core.trace_and_replace.calls": "count",
    "tensor_core.trace_and_replace.self_s": "s",
    "tensor_core.trace_and_replace.us_per_call": "us",
    "tensor_core.trace_and_replace.computed_bytes_per_call": "B",
    "tensor_core.hs_inner.calls": "count",
    "tensor_core.hs_inner.self_s": "s",
    "supermaps.span_project.calls": "count",
    "supermaps.span_project.self_s": "s",
    "supermaps.span_project.us_per_call": "us",
    "supermaps.check_setup.self_s": "s",
    "supermaps.load_setup.self_s": "s",
    "sdp.iterations": "count",
    "sdp.driver_s": "s",
    "sdp.ms_per_iteration": "ms",
    "sdp.self_s": "s",
    "sdp.eigh.calls": "count",
    "sdp.eigh.self_s": "s",
    "sdp.eigh.us_per_call": "us",
    "sdp.eigh.real_frac": "ratio",
    "sdp.eigvalsh.calls": "count",
    "sdp.eigvalsh.self_s": "s",
    "sdp.uncertified": "count",
    "sdp.gap_max": "1",
    "witness.decompose.self_s": "s",
    "witness.born.self_s": "s",
    "witness.resample.self_s": "s",
    "witness.csv.self_s": "s",
    "witness.validate.s": "s",
    "witness.terms": "count",
    "game.pmax.s": "s",
    "game.success_effects.self_s": "s",
    "game.play.self_s": "s",
    "channels.kraus_to_choi.calls": "count",
    "channels.kraus_to_choi.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}
PAIR_DRIVERS = ("sdp.solve_max_robustness", "sdp.solve_cone_value")
SDP_DRIVERS = PAIR_DRIVERS + ("sdp.solve",)


class BenchError(Exception):
    """The benchmark cannot run here; it exits nonzero without a result."""


# -- operations and their gates ---------------------------------------------------


@dataclass
class Op:
    name: str
    argv: list[str]
    gate: Callable[["OpResult", dict, dict], list[str]]
    metric: str | None = None  # operation metric its in-process time counts toward
    outputs: list[str] = field(default_factory=list)


@dataclass
class OpResult:
    op: Op
    status: int
    stdout: str
    stderr: str
    wall_s: float
    setup_s: float | None
    inproc_s: float | None
    cpu_s: float  # user + system time of the whole process
    rss_mb: float
    digests: dict
    trace: dict | None
    problems: list[str] = field(default_factory=list)
    span: tuple[float, float] = (0.0, 0.0)  # CLOCK_MONOTONIC spawn and reap
    probe_s: float = PROBE_REF_S  # median speed-probe sample during the operation

    @property
    def ref_s(self) -> float:
        """Wall time scaled to the speed probe's reference speed."""
        return self.wall_s * PROBE_REF_S / self.probe_s

    @property
    def inproc_ref_s(self) -> float:
        """In-process time scaled to the speed probe's reference speed."""
        return (self.inproc_s or 0.0) * PROBE_REF_S / self.probe_s

    @property
    def values(self) -> dict[str, str]:
        """The operation's printed `key value` lines."""
        out = {}
        for line in self.stdout.splitlines():
            key, _, value = line.partition(" ")
            out[key] = value.strip()
        return out

    @property
    def failed(self) -> bool:
        return self.status != 0 or bool(self.problems)


def _number(result: OpResult, key: str) -> float:
    try:
        return float(result.values[key])
    except (KeyError, ValueError):
        raise ValueError(f"no numeric '{key}' line in the output") from None


def _csv_rows(path: str) -> int:
    with open(path, newline="", encoding="utf-8") as handle:
        return sum(1 for _ in csv.reader(handle)) - 1


def _json_value(path: str, key: str) -> float:
    with open(path, encoding="utf-8") as handle:
        return float(json.load(handle)[key])


def _exit_ok(result: OpResult) -> list[str]:
    return [] if result.status == 0 else [f"exit status {result.status}"]


def gate_robustness(reference: str | None, terms: str | None = None):
    """A robustness solve that must certify, optionally against a reference
    value and a contributing-term count of its --decomposition-out file."""
    def gate(result: OpResult, refs: dict, ctx: dict) -> list[str]:
        problems = _exit_ok(result)
        value, gap = _number(result, "robustness"), _number(result, "gap")
        if reference and abs(value - refs[reference]) > refs["value_tol"]:
            problems.append(f"robustness {value} is not {refs[reference]} +- {refs['value_tol']}")
        if gap > refs["gap_tol"]:
            problems.append(f"gap {gap} above {refs['gap_tol']}")
        if terms:
            rows = _csv_rows(result.op.outputs[-1])
            if rows != refs[terms]:
                problems.append(f"{rows} contributing terms, expected {refs[terms]}")
        if result.op.outputs:
            ctx[result.op.name] = _json_value(result.op.outputs[0], "robustness")
        return problems
    return gate


def gate_estimate(source: str):
    """probabilities: the estimate must equal the source solve's robustness."""
    def gate(result: OpResult, refs: dict, ctx: dict) -> list[str]:
        problems = _exit_ok(result)
        estimate = _number(result, "estimate")
        _number(result, "resampled-mean")
        if source not in ctx:
            return problems + [f"no certified value from {source} to compare with"]
        if abs(estimate - ctx[source]) > refs["estimate_tol"]:
            problems.append(f"estimate {estimate} differs from robustness {ctx[source]}")
        return problems
    return gate


def gate_validate(result: OpResult, refs: dict, ctx: dict) -> list[str]:
    problems = _exit_ok(result)
    values = result.values
    if values.get("witness") != "valid":
        problems.append(f"witness {values.get('witness')!r}, expected 'valid'")
    if values.get("certificate") != "ok":
        problems.append(f"certificate {values.get('certificate')!r}, expected 'ok'")
    return problems


def gate_game(pmax: bool):
    def gate(result: OpResult, refs: dict, ctx: dict) -> list[str]:
        problems = _exit_ok(result)
        correct = result.values.get("correct")
        if correct != refs["game_correct"]:
            problems.append(f"correct {correct}, expected {refs['game_correct']}")
        if pmax:
            value = _number(result, "pmax-convex-hull")
            if abs(value - refs["pmax"]) > refs["value_tol"]:
                problems.append(f"pmax {value} is not {refs['pmax']} +- {refs['value_tol']}")
        return problems
    return gate


def gate_definite(result: OpResult, refs: dict, ctx: dict) -> list[str]:
    """A definite mixture: the certified upper bound, robustness + gap, is ~0."""
    problems = _exit_ok(result)
    upper = _number(result, "robustness") + _number(result, "gap")
    if upper > refs["gap_tol"]:
        problems.append(f"robustness + gap {upper} above {refs['gap_tol']} on a definite mixture")
    return problems


def gate_half(result: OpResult, refs: dict, ctx: dict) -> list[str]:
    """0.5 * qtf + 0.5 * definite.  Its robustness is at most 0.5 * R(qtf) by
    convexity, so the certified lower bound must stay below that.  Exit 1 is
    an honest failure to certify (it counts in failed_frac, not here) if the
    printed gap is above the gate and the error says so; exit 0 must come
    with a certified gap."""
    value, gap = _number(result, "robustness"), _number(result, "gap")
    cap = HALF_QTF_WEIGHT * refs["robustness"] + refs["value_tol"]
    problems = [] if value <= cap else [f"lower bound {value} above the convexity cap {cap}"]
    if result.status == 0:
        if gap > refs["gap_tol"]:
            problems.append(f"exit 0 with gap {gap} above {refs['gap_tol']}")
    elif result.status == 1:
        if gap <= refs["gap_tol"] or NO_CERTIFY_MESSAGE not in result.stderr:
            problems.append("exit 1 without a reported failure to certify")
    else:
        problems.append(f"exit status {result.status}")
    return problems


def certify_qtf(seed: int, work: Path, inputs: dict) -> list[Op]:
    w = str(work)
    return [
        Op("robustness", ["robustness", "--setup", "qtf", "--out", f"{w}/rob.json",
                          "--witness-out", f"{w}/witness.json",
                          "--decomposition-out", f"{w}/dec.csv"],
           gate_robustness("robustness", "terms_full"), "robustness_s",
           [f"{w}/rob.json", f"{w}/witness.json", f"{w}/dec.csv"]),
        Op("probabilities", ["probabilities", "--decomposition-in", f"{w}/dec.csv",
                             "--shots", "1e7", "--repetitions", "100", "--seed", str(seed),
                             "--out", f"{w}/probs.csv"],
           gate_estimate("robustness"), None, [f"{w}/probs.csv"]),
        Op("validate", ["validate", "--witness", f"{w}/witness.json", "--out", f"{w}/val.json"],
           gate_validate, "validate_s", [f"{w}/val.json"]),
        Op("robustness-restricted", ["robustness", "--setup", "qtf", "--restricted",
                                     "--out", f"{w}/rrob.json",
                                     "--decomposition-out", f"{w}/rdec.csv"],
           gate_robustness("robustness_restricted", "terms_restricted"),
           "robustness_restricted_s", [f"{w}/rrob.json", f"{w}/rdec.csv"]),
        Op("probabilities-restricted", ["probabilities", "--decomposition-in", f"{w}/rdec.csv",
                                        "--shots", "1e7", "--repetitions", "100",
                                        "--seed", str(seed)],
           gate_estimate("robustness-restricted")),
    ]


def game_pmax(seed: int, work: Path, inputs: dict) -> list[Op]:
    w = str(work)
    return [
        Op("game-qtf", ["game", "--strategy", "qtf", "--out", f"{w}/game-qtf.csv"],
           gate_game(False), None, [f"{w}/game-qtf.csv"]),
        Op("game-switch", ["game", "--strategy", "switch", "--out", f"{w}/game-switch.csv"],
           gate_game(False), None, [f"{w}/game-switch.csv"]),
        Op("game-pmax", ["game", "--pmax-sdp"], gate_game(True), "pmax_s"),
    ]


def noisy_setups(seed: int, work: Path, inputs: dict) -> list[Op]:
    w = str(work)
    gates = {
        "rotated-qtf": gate_robustness("robustness"),
        "definite-mixture": gate_definite,
        "qtf-definite-half": gate_half,
    }
    return [
        Op(name, ["robustness", "--setup", path, "--max-iter", "4000",
                  "--out", f"{w}/{name}.out.json"],
           gates[name], "robustness_s", [f"{w}/{name}.out.json"])
        for name, path in inputs.items()
    ]


WORKLOADS = {
    "certify-qtf": certify_qtf,
    "game-pmax": game_pmax,
    "noisy-setups": noisy_setups,
}


def make_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Generated input files, written before anything is timed."""
    if workload != "noisy-setups":
        return {}
    sys.path.insert(0, str(SRC))
    import instances

    directory.mkdir(parents=True, exist_ok=True)
    return dict(instances.write(seed, str(directory)))


# -- running one operation ------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


def run_op(op: Op, op_id: str, trace: bool, work: Path, env: dict, deadline: float) -> OpResult:
    """Run one operation in a fresh interpreter and collect its times."""
    stem = work / f"{op.name}.{'traced' if trace else 'plain'}"
    sidecar = f"{stem}.sidecar.json"
    for path in op.outputs:
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, str(BENCH / "child.py"), sidecar, op_id, "1" if trace else "0",
           "--", *op.argv]
    with open(f"{stem}.stdout", "w+b") as out, open(f"{stem}.stderr", "w+b") as err:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=str(ROOT))
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()

    record = None
    if os.path.exists(sidecar):
        with open(sidecar, encoding="utf-8") as handle:
            record = json.load(handle)
    result = OpResult(
        op=op, status=proc.returncode, stdout=stdout, stderr=stderr,
        wall_s=ended - spawned,
        setup_s=record["entry"] - spawned if record else None,
        inproc_s=record["exit"] - record["entry"] if record else None,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        digests={os.path.basename(p): _sha256(p) for p in op.outputs},
        trace=record.get("trace") if record else None,
        span=(spawned, ended),
    )
    if record is None:
        result.problems.append(f"no timing record (exit status {proc.returncode}): "
                               f"{stderr.strip()[-300:]}")
    elif not Path(record["cli_file"]).resolve().is_relative_to(SRC.resolve()):
        result.problems.append(f"timeflip imported from {record['cli_file']}, not {SRC}")
    return result


class Probe:
    """The speed probe process (probe.py) and the samples it wrote."""

    def __init__(self, path: Path, env: dict):
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), str(path), str(PROBE_PERIOD_S),
             str(PROBE_ROUNDS)], env=env, stdout=subprocess.DEVNULL)
        ready = time.monotonic() + 60
        try:
            while not self.samples():
                if self.proc.poll() is not None or time.monotonic() > ready:
                    raise BenchError("the speed probe did not start")
                time.sleep(0.05)
        except BaseException:
            self.stop()
            raise

    def samples(self) -> list[tuple[float, float]]:
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return []
        return [tuple(map(float, line.split()))
                for line in text.splitlines(keepends=True) if line.endswith("\n")]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def assign(self, results: list[OpResult]) -> None:
        """Give each operation the median probe sample taken while it ran
        (the run's median if none was)."""
        samples = self.samples()
        overall = statistics.median(c for _, c in samples)
        for result in results:
            during = [c for t, c in samples if result.span[0] <= t <= result.span[1]]
            result.probe_s = statistics.median(during) if during else overall


def check(result: OpResult, refs: dict, ctx: dict) -> None:
    """Apply the operation's gate, then the gates every operation shares."""
    if result.problems:
        return
    for name, digest in result.digests.items():
        if digest is None:
            result.problems.append(f"output file {name} missing")
    try:
        result.problems.extend(result.op.gate(result, refs, ctx))
        if result.status == 0 and "gap" in result.values and _number(result, "gap") > refs["gap_tol"]:
            result.problems.append("exit 0 with an uncertified gap")
    except (OSError, ValueError, KeyError) as exc:
        result.problems.append(f"cannot check output: {exc}")
    if result.status == 0:
        for report in (result.trace or {}).get("reports", []):
            if report["driver"] in PAIR_DRIVERS and report["gap"] > refs["gap_tol"]:
                result.problems.append(f"exit 0 but {report['driver']} gap {report['gap']}")


# -- metrics ---------------------------------------------------------------------------


def end_to_end(passes: list[list[OpResult]], workload: str) -> dict:
    """End-to-end and operation metrics of untraced passes (medians over passes)."""
    def per_pass(fn):
        return statistics.median(fn(results) for results in passes)

    setups = [r.setup_s for results in passes for r in results if r.setup_s is not None]
    metrics = {
        "wall_ref_s": per_pass(lambda rs: sum(r.ref_s for r in rs)),
        "wall_s": per_pass(lambda rs: sum(r.wall_s for r in rs)),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": per_pass(lambda rs: max(r.rss_mb for r in rs)),
        "certify_s": per_pass(lambda rs: sum(r.inproc_ref_s for r in rs if r.op.metric)),
    }
    for name in OPERATION_METRICS[workload]:
        if name not in metrics:
            metrics[name] = per_pass(
                lambda rs: sum(r.inproc_ref_s for r in rs if r.op.metric == name))
    return metrics


def per_layer(traced: list[OpResult], plain: list[OpResult]) -> tuple[dict, dict]:
    """Per-layer metrics summed over the traced operations, and the per-span
    totals they come from; `plain` are the same operations untraced."""
    totals: dict[str, list] = {}
    counters: dict[str, float] = {}
    reports = []
    for result in traced:
        trace = result.trace or {"totals": {}, "counters": {}, "reports": []}
        for name, entry in trace["totals"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += entry["calls"]
            acc[1] += entry["total_s"]
            acc[2] += entry["self_s"]
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
        reports.extend(trace["reports"])

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    iterations = sum(r["iterations"] for r in reports)
    driver_s = sum(total_s(name) for name in SDP_DRIVERS)
    certified_gaps = [r["gap"] for r in reports if r["driver"] in PAIR_DRIVERS and r["converged"]]
    plain_wall = sum(r.ref_s for r in plain)
    traced_wall = sum(r.ref_s for r in traced)
    tar = "tensor_core.trace_and_replace"
    return {
        f"{tar}.calls": calls(tar),
        f"{tar}.self_s": self_s(tar),
        f"{tar}.us_per_call": ratio(self_s(tar), calls(tar), 1e6),
        f"{tar}.computed_bytes_per_call": ratio(counters.get(f"{tar}.computed_bytes", 0), calls(tar)),
        "tensor_core.hs_inner.calls": calls("tensor_core.hs_inner"),
        "tensor_core.hs_inner.self_s": self_s("tensor_core.hs_inner"),
        "supermaps.span_project.calls": calls("supermaps.span_project"),
        "supermaps.span_project.self_s": self_s("supermaps.span_project"),
        "supermaps.span_project.us_per_call": ratio(
            total_s("supermaps.span_project"), calls("supermaps.span_project"), 1e6),
        "supermaps.check_setup.self_s": self_s("supermaps.check_setup"),
        "supermaps.load_setup.self_s": self_s("supermaps.load_setup"),
        "sdp.iterations": iterations,
        "sdp.driver_s": driver_s,
        "sdp.ms_per_iteration": ratio(driver_s, iterations, 1e3),
        "sdp.self_s": sum(self_s(name) for name in SDP_DRIVERS),
        "sdp.eigh.calls": calls("sdp.eigh"),
        "sdp.eigh.self_s": self_s("sdp.eigh"),
        "sdp.eigh.us_per_call": ratio(self_s("sdp.eigh"), calls("sdp.eigh"), 1e6),
        "sdp.eigh.real_frac": ratio(counters.get("sdp.eigh.real_calls", 0), calls("sdp.eigh")),
        "sdp.eigvalsh.calls": calls("sdp.eigvalsh"),
        "sdp.eigvalsh.self_s": self_s("sdp.eigvalsh"),
        "sdp.uncertified": sum(1 for r in reports if not r["converged"]),
        "sdp.gap_max": max(certified_gaps, default=0.0),
        "witness.decompose.self_s": self_s("witness.decompose"),
        "witness.born.self_s": self_s("witness.born"),
        "witness.resample.self_s": self_s("witness.resample"),
        "witness.csv.self_s": self_s("witness.csv"),
        "witness.validate.s": total_s("witness.validate"),
        "witness.terms": counters.get("witness.terms", 0),
        "game.pmax.s": total_s("game.pmax"),
        "game.success_effects.self_s": self_s("game.success_effects"),
        "game.play.self_s": self_s("game.play"),
        "channels.kraus_to_choi.calls": calls("channels.kraus_to_choi"),
        "channels.kraus_to_choi.self_s": self_s("channels.kraus_to_choi"),
        "cli.self_s": self_s("cli.main"),
        "trace.overhead_frac": ratio(traced_wall - plain_wall, plain_wall),
    }, totals


# -- the run ----------------------------------------------------------------------------


def machine_block(seed: int, env: dict, inherited: dict, cpus: list[int]) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(cpus),
        "pinned_cpu": cpus[-1],
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "num_threads_inherited": inherited,
        "num_threads_children": {k: v for k, v in env.items() if k.endswith("_NUM_THREADS")},
        "seed": seed,
    }


def source_key() -> str:
    """Hash of the package source, so stored output digests follow the code."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(str(SRC / "timeflip" / "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_repeatable(results: list[OpResult], store: Path, first: dict) -> None:
    """Output files must be byte-identical for every repetition at one seed:
    across the passes of this run (`first`) and across runs of the same code
    (`store`)."""
    known = json.loads(store.read_text()) if store.exists() else {}
    for result in results:
        for name, digest in result.digests.items():
            if digest is None:
                continue
            key = f"{result.op.name}/{name}"
            expected = first.setdefault(key, known.get(key, digest))
            if digest != expected:
                result.problems.append(f"{name} differs from an earlier repetition at this seed")
            known.setdefault(key, digest)
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    if not (SRC / "timeflip" / "cli.py").is_file():
        raise BenchError(f"no timeflip source at {SRC}; run from the root of a checkout")
    env = _child_env()
    inherited = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    # Pin the run, and with it every operation and the speed probe, to one
    # CPU: the probe then samples the speed the operations see.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    load_before = os.getloadavg()
    work = OUT / "work" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    inputs = make_inputs(workload, seed, work / "inputs")
    store = OUT / "digests" / f"{source_key()}-{workload}-s{seed}.json"
    first: dict = {}

    passes: list[list[OpResult]] = []
    traced: list[OpResult] = []
    probe = None
    try:
        work.mkdir(parents=True, exist_ok=True)
        probe = Probe(work / "probe.txt", env)
        while True:
            pass_started = time.monotonic()
            pass_dir = work / f"pass{len(passes)}"
            pass_dir.mkdir(parents=True)
            ctx: dict = {}
            results = []
            for k, op in enumerate(WORKLOADS[workload](seed, pass_dir, inputs)):
                op_id = f"{workload}/s{seed}/p{len(passes)}/{k}-{op.name}"
                result = run_op(op, op_id, False, pass_dir, env, deadline)
                check(result, REFERENCES, ctx)
                results.append(result)
                if trace:
                    shadow = run_op(op, op_id, True, pass_dir, env, deadline)
                    check(shadow, REFERENCES, dict(ctx))
                    if shadow.digests != result.digests:
                        shadow.problems.append("tracing changed an output file")
                    traced.append(shadow)
            check_repeatable(results + traced, store, first)
            passes.append(results)
            elapsed = time.monotonic() - started
            if trace or elapsed + (time.monotonic() - pass_started) > seconds:
                break
        if probe.proc.poll() is not None:
            raise BenchError("the speed probe stopped during the run")
        probe.stop()
        everything = [r for results in passes for r in results] + traced
        probe.assign(everything)
        probe_samples = [c for _, c in probe.samples()]
    finally:
        if probe:
            probe.stop()
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(everything)
    failed = sum(r.failed for r in everything)
    problems = [f"{r.op.name}: {p}" for r in everything for p in r.problems]
    if trace:
        metrics, totals = per_layer(traced, passes[0])
        units = PER_LAYER
    else:
        metrics, totals = end_to_end(passes, workload), None
        units = {**END_TO_END, **{m: "s" for m in OPERATION_METRICS[workload]}}
    metrics["failed_frac"] = failed / attempted
    units = {**units, "failed_frac": "ratio"}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_block(seed, env, inherited, cpus),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "elapsed_s": time.monotonic() - started,
        "probe": {"samples": len(probe_samples), "median_s": statistics.median(probe_samples),
                  "reference_s": PROBE_REF_S},
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
        "operations": [
            {"name": r.op.name, "traced": r.trace is not None, "argv": r.op.argv,
             "status": r.status, "wall_s": r.wall_s, "probe_s": r.probe_s, "ref_s": r.ref_s,
             "setup_s": r.setup_s,
             "inproc_s": r.inproc_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb,
             "stdout": r.stdout,
             "problems": r.problems, "digests": r.digests,
             "reports": (r.trace or {}).get("reports")}
            for r in everything
        ],
    }
    if trace:
        record["layer_totals"] = {name: {"calls": c, "total_s": t, "self_s": s}
                                  for name, (c, t, s) in sorted(totals.items())}
        record["spans"] = {r.trace["op_id"]: r.trace["spans"] for r in traced if r.trace}
    return record


def result_line(record: dict) -> dict:
    """The result line: the bounded metrics of this mode only."""
    names = PER_LAYER if record["trace"] else END_TO_END
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: record["metrics"][name] for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminated from outside: unwind, so the operation and the probe are
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["problems"]:
        print(f"gate: {problem}")
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
