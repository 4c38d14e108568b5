"""End-to-end acceptance gate: the ten headline checks, one test each.

Each test prints a single "criterion N: PASS/FAIL" line with the measured
numbers before asserting, so a scan of the output (or of the -v test names)
gives the per-criterion verdict at the stated tolerances.
"""

import json
import time

import numpy as np
import pytest

from helpers import (
    QTF_ROBUSTNESS,
    QTF_ROBUSTNESS_RESTRICTED,
    apply_supermap,
    definite_mixture,
    definite_split,
    input_output_inversion,
    oracle_term,
    random_bistochastic_channel,
    random_span_element,
)
from timeflip.channels import kraus_to_choi, KrausChannel
from timeflip.cli import EXIT_OK, main as cli_main
from timeflip.game import TAG_PLUS, builtin_gate_sets, qtf_strategy, switch_strategy
from timeflip.sdp import solve_max_robustness
from timeflip.supermaps import qtf_choi, qtf_plus_control
from timeflip.tensor_core import (
    HermitianOperator,
    min_eigenvalue,
    permute_factors,
    split_factor,
)
from timeflip.witness import (
    born_probabilities,
    decompose_witness,
    estimate_robustness,
    experiment_layout,
    poisson_resample,
    z_score,
)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def qtf():
    return qtf_plus_control()


@pytest.fixture(scope="module")
def solved(qtf):
    return solve_max_robustness(qtf)


@pytest.fixture(scope="module")
def solved_restricted(qtf):
    return solve_max_robustness(qtf, restricted=True)


def test_criterion_01_qtf_robustness(tmp_path):
    out = str(tmp_path / "report.json")
    start = time.perf_counter()
    status = cli_main(["robustness", "--setup", "qtf", "--out", out])
    elapsed = time.perf_counter() - start
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    value, gap = report["robustness"], report["gap"]
    ok = (status == EXIT_OK and report["lower"] <= QTF_ROBUSTNESS <= report["upper"]
          and gap <= 1e-4 and elapsed <= 300.0)
    _report(1, ok, f"robustness {value:.6f}, gap {gap:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_restricted_robustness(tmp_path):
    out = str(tmp_path / "report.json")
    start = time.perf_counter()
    status = cli_main(["robustness", "--setup", "qtf", "--restricted", "--out", out])
    elapsed = time.perf_counter() - start
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    value = report["robustness"]
    ok = (status == EXIT_OK and report["lower"] <= QTF_ROBUSTNESS_RESTRICTED <= report["upper"]
          and elapsed <= 120.0)
    _report(2, ok, f"restricted robustness {value:.6f}, {elapsed:.1f}s")
    assert ok


def test_criterion_03_faithfulness_on_definite_mixtures(qtf):
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        mix = definite_mixture(rng, qtf)
        report, _ = solve_max_robustness(mix)
        worst = max(worst, report.upper)
    ok = worst <= 1e-4
    _report(3, ok, f"largest certified robustness over 20 mixtures {worst:.2e}")
    assert ok


def test_criterion_04_estimate_matches_sdp_value(qtf, solved):
    report, witness = solved
    terms = decompose_witness(witness)
    probs = born_probabilities(qtf, terms)
    estimate = estimate_robustness(terms, probs)
    diff = abs(estimate - report.lower)
    ok = diff <= 1e-6
    _report(4, ok, f"estimate {estimate:.9f} vs SDP {report.lower:.9f}, "
                   f"diff {diff:.2e}")
    assert ok


def test_criterion_05_game_exactness():
    plus, minus = builtin_gate_sets()
    worst = 0.0
    for pair in plus + minus:
        p0, p1 = qtf_strategy(pair, (1.0, 0.0))
        winner = p0 if pair.tag == TAG_PLUS else p1
        worst = max(worst, abs(winner - 1.0))
        worst = max(worst, abs(switch_strategy(pair) - 1.0))
    ok = worst <= 1e-10
    _report(5, ok, f"13+8 pairs, both strategies, worst defect {worst:.2e}")
    assert ok


def test_criterion_06_definite_split_positivity(qtf):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        element = random_span_element(qtf, rng, hs_norm=0.5)
        fwd_part, bwd_part = definite_split(element)
        worst = min(min_eigenvalue(fwd_part.matrix), min_eigenvalue(bwd_part.matrix), worst)
    ok = worst >= -1e-10
    _report(6, ok, f"200 splits, smallest eigenvalue {worst:.2e}")
    assert ok


def test_criterion_07_supermap_oracle_equivalence():
    flip = qtf_choi()
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    worst_apply, worst_swap = 0.0, 0.0
    for seed in range(50):
        rng = np.random.default_rng(500 + seed)
        ch = random_bistochastic_channel(rng, terms=3)
        out = apply_supermap(flip, kraus_to_choi(ch))
        controlled = KrausChannel(
            [np.kron(k, p0) + np.kron(k.T, p1) for k in ch.kraus])
        expected = kraus_to_choi(controlled, labels=("gi", "go"))
        expected = split_factor(expected, "gi", (("B_it", 2), ("B_ic", 2)))
        expected = split_factor(expected, "go", (("B_ot", 2), ("B_oc", 2)))
        worst_apply = max(worst_apply,
                          float(np.linalg.norm(out.matrix - expected.matrix)))

        inverted = kraus_to_choi(input_output_inversion(ch))
        swapped = permute_factors(kraus_to_choi(ch), ("out", "in"))
        worst_swap = max(worst_swap,
                         float(np.linalg.norm(inverted.matrix - swapped.matrix)))
    ok = worst_apply <= 1e-9 and worst_swap <= 1e-9
    _report(7, ok, f"50 channels: apply defect {worst_apply:.2e}, "
                   f"inversion-swap defect {worst_swap:.2e}")
    assert ok


def test_criterion_08_decomposition_roundtrip(solved, solved_restricted):
    rng = np.random.default_rng(17)
    layout = experiment_layout()
    worst = 0.0
    for _ in range(10):
        g = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        op = HermitianOperator(layout, (g + g.conj().T) / 2)
        terms = decompose_witness(op)
        rebuilt = sum(t.coeff * oracle_term(t.indices) for t in terms)
        worst = max(worst, float(np.linalg.norm(rebuilt - op.matrix)))
    full_count = sum(t.coeff != 0.0 for t in decompose_witness(solved[1]))
    restricted_count = sum(
        t.coeff != 0.0
        for t in decompose_witness(solved_restricted[1], restricted=True))
    ok = worst <= 1e-8
    _report(8, ok, f"10 round-trips, worst residual {worst:.2e}; term counts "
                   f"{full_count} full / {restricted_count} restricted "
                   f"(reference 794/48 non-binding)")
    assert ok


def test_criterion_09_significance_arithmetic():
    z_full = z_score(0.345, 0.005)
    z_restricted = z_score(0.140, 0.004)
    ok = z_full >= 69.0 and z_restricted >= 35.0
    _report(9, ok, f"z-scores {z_full:.1f} (>= 69) and {z_restricted:.1f} (>= 35)")
    assert ok


def test_criterion_10_poisson_resampler(qtf, solved):
    _, witness = solved
    terms = decompose_witness(witness)
    probs = born_probabilities(qtf, terms)
    mean, spread = poisson_resample(terms, probs, shots=10**7,
                                    repetitions=100, seed=0)
    ok = abs(mean - 0.4007) <= 1e-3 and spread < 1e-3
    _report(10, ok, f"mean {mean:.6f} (target 0.4007 ± 1e-3), stddev {spread:.2e}")
    assert ok
