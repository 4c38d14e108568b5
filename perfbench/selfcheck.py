"""Self-check of the benchmark harness.

usage: python3 perfbench/selfcheck.py

1. BENCHMARK.json names the workloads and metrics, with the units, that
   run.py emits.
2. Every metric is emitted with its unit on every workload that defines it:
   on synthetic operation results for each workload, and in every result
   record already under .perfbench/results/.
3. The gates are live: real CLI operations pass their gate with the true
   references and fail it with a deliberately wrong one, and so do
   synthetic outputs for the gates whose operations are too slow to run here.
4. The speed probe starts, writes samples, stops, and gives an operation
   the median of the samples taken while it ran.

Takes about ten seconds.  Exits 1 and lists what failed if anything does.
"""

from __future__ import annotations

import copy
import glob
import json
import shutil
import statistics
import sys
import time

import run
from run import REFERENCES, Op, OpResult

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def check_registry() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer matches run.PER_LAYER")


def synthetic(op: Op, stdout: str = "", status: int = 0, stderr: str = "") -> OpResult:
    return OpResult(op=op, status=status, stdout=stdout, stderr=stderr, wall_s=1.0,
                    setup_s=0.5, inproc_s=0.4, cpu_s=0.9, rss_mb=60.0, digests={}, trace={
                        "totals": {"cli.main": {"calls": 1, "total_s": 0.4, "self_s": 0.1}},
                        "counters": {}, "reports": []})


def check_emission(work) -> None:
    inputs = {name: f"{work}/{name}.json"
              for name in ("rotated-qtf", "definite-mixture", "qtf-definite-half")}
    for workload, build in run.WORKLOADS.items():
        ops = build(1, work, inputs)
        results = [synthetic(op) for op in ops]
        wanted = {**run.END_TO_END, **{m: "s" for m in run.OPERATION_METRICS[workload]}}
        metrics = run.end_to_end([results], workload)
        expect(set(wanted) <= set(metrics), f"{workload}: every end-to-end metric is computed")
        layers, _ = run.per_layer(results, results)
        expect(set(run.PER_LAYER) <= set(layers), f"{workload}: every per-layer metric is computed")
        timed = {op.metric for op in ops if op.metric} | {"wall_s", "certify_s"}
        expect(timed == set(run.OPERATION_METRICS[workload]),
               f"{workload}: its operation metrics are the ones its operations time")

    records = sorted(glob.glob(str(run.OUT / "results" / "*.json")))
    for path in records:
        record = json.loads(open(path, encoding="utf-8").read())
        names = run.PER_LAYER if record["trace"] else {
            **run.END_TO_END, **{m: "s" for m in run.OPERATION_METRICS[record["workload"]]}}
        emitted = record["metrics"]
        ok = all(name in emitted and emitted[name]["unit"] == unit for name, unit in names.items())
        machine = record.get("machine", {})
        ok = ok and all(key in machine for key in ("nproc", "python", "numpy", "scipy", "blas",
                                                   "num_threads_children", "seed"))
        ok = ok and "load_before" in record and "load_after" in record
        expect(ok, f"record {path.rsplit('/', 1)[-1]}: every metric with its unit, machine block")
    if not records:
        print("     (no result records under .perfbench/results yet)")


def gate_problems(result: OpResult, refs: dict, ctx: dict | None = None) -> list[str]:
    trial = copy.copy(result)
    trial.problems = list(result.problems)
    run.check(trial, refs, dict(ctx or {}))
    return trial.problems


def wrong(**changes) -> dict:
    return {**REFERENCES, **changes}


def check_real_gates(work) -> None:
    env = run._child_env()
    deadline = time.monotonic() + 120
    ops = run.certify_qtf(1, work, {})
    rob, prob = ops[0], ops[1]
    game = run.game_pmax(1, work, {})[0]

    result = run.run_op(game, "selfcheck/game", False, work, env, deadline)
    expect(not gate_problems(result, REFERENCES), "game --strategy qtf passes its gate")
    expect(bool(gate_problems(result, wrong(game_correct="20/21"))),
           "game gate fails with a wrong reference (20/21)")

    result = run.run_op(rob, "selfcheck/robustness", False, work, env, deadline)
    ctx: dict = {}
    expect(not gate_problems(result, REFERENCES, ctx), "robustness passes its gate")
    run.check(result, REFERENCES, ctx)
    expect(bool(gate_problems(result, wrong(robustness=0.5))),
           "robustness gate fails with a wrong reference value (0.5)")
    expect(bool(gate_problems(result, wrong(gap_tol=1e-9))),
           "robustness gate fails with a gap bound below the reported gap")
    expect(bool(gate_problems(result, wrong(terms_full=793))),
           "robustness gate fails with a wrong term count (793)")

    result = run.run_op(prob, "selfcheck/probabilities", False, work, env, deadline)
    expect(not gate_problems(result, REFERENCES, ctx), "probabilities passes its gate")
    expect(bool(gate_problems(result, REFERENCES, {"robustness": ctx["robustness"] + 1e-5})),
           "probabilities gate fails against a wrong robustness")

    store = work / "digests.json"
    first: dict = {}
    run.check_repeatable([result], store, first)
    tampered = copy.copy(result)
    tampered.problems = []
    tampered.digests = {name: "0" * 64 for name in result.digests}
    run.check_repeatable([tampered], store, first)
    expect(bool(tampered.problems), "a changed output file fails the repeatability gate")


def check_synthetic_gates(work) -> None:
    pmax = run.game_pmax(1, work, {})[2]
    good = synthetic(pmax, "correct 21/21\npmax-convex-hull 9.197472805e-01\n")
    expect(not gate_problems(good, REFERENCES), "pmax output passes its gate")
    expect(bool(gate_problems(good, wrong(pmax=0.89))), "pmax gate fails with a wrong reference (0.89)")

    noisy = {op.name: op for op in run.noisy_setups(1, work, {
        "rotated-qtf": "a.json", "definite-mixture": "b.json", "qtf-definite-half": "c.json"})}
    for op in noisy.values():
        op.outputs = []
    definite = synthetic(noisy["definite-mixture"], "robustness 0.0\ngap 1.5e-06\n")
    expect(not gate_problems(definite, REFERENCES), "definite mixture with robustness+gap ~0 passes")
    expect(bool(gate_problems(definite, wrong(gap_tol=1e-7))),
           "definite-mixture gate fails with a bound below robustness + gap")

    message = "error: solver did not certify: gap 3.9e-04, worst residual x = 1e-3\n"
    half = synthetic(noisy["qtf-definite-half"], "robustness 0.0603\ngap 3.86e-04\n", 1, message)
    expect(not gate_problems(half, REFERENCES), "honest non-certification passes the half gate")
    expect(half.status != 0, "... and still counts as a failed operation")
    lying = synthetic(noisy["qtf-definite-half"], "robustness 0.0603\ngap 3.86e-04\n", 0)
    expect(bool(gate_problems(lying, REFERENCES)), "exit 0 with an uncertified gap fails")
    too_high = synthetic(noisy["qtf-definite-half"], "robustness 0.3\ngap 1e-05\n", 0)
    expect(bool(gate_problems(too_high, REFERENCES)), "a lower bound above the convexity cap fails")
    expect(bool(gate_problems(half, wrong(robustness=0.1))),
           "half gate fails with a wrong qtf reference (0.1)")


def check_probe(work) -> None:
    probe = run.Probe(work / "probe.txt", run._child_env())
    time.sleep(0.5)
    probe.stop()
    samples = probe.samples()
    expect(probe.proc.returncode is not None and len(samples) >= 3,
           f"the speed probe wrote {len(samples)} samples and stopped")
    result = synthetic(run.game_pmax(1, work, {})[0])
    result.span = (samples[1][0], samples[-1][0])
    probe.assign([result])
    expect(result.probe_s == statistics.median(c for _, c in samples[1:]),
           "an operation gets the median probe sample taken while it ran")
    expect(result.ref_s == result.wall_s * run.PROBE_REF_S / result.probe_s,
           "wall_ref_s scales wall time by PROBE_REF_S / that sample")


def main() -> int:
    work = run.OUT / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_registry()
        check_emission(work)
        check_synthetic_gates(work)
        check_probe(work)
        check_real_gates(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selfcheck: {len(failures)} failed" if failures else "selfcheck ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
