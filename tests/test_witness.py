"""Witness pipeline: validation, decomposition, Born probabilities, estimation."""

from __future__ import annotations

import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    half_definite,
    identity,
    oracle_term,
    projector,
    random_general_setup,
    random_hermitian_operator,
    relabel,
    rotated,
    trace_target,
)
from timeflip.sdp import solve_cone_value, solve_max_robustness
from timeflip.supermaps import (
    ConeId,
    SetupOperator,
    SpanMask,
    qtf_plus_control,
)
from timeflip.tensor_core import (
    HermitianOperator,
    double_ket,
    hs_inner,
    permute_factors,
    qubits,
    tensor_product,
)
from timeflip.witness import (
    CERTIFICATE_TOL,
    WIRE_LABELS,
    DecompositionTerm,
    ProbabilityRecord,
    born_probabilities,
    certificate_residuals,
    decompose_witness,
    estimate_robustness,
    experiment_layout,
    load_decomposition,
    load_probabilities,
    poisson_resample,
    save_decomposition,
    save_probabilities,
    validate_witness,
    z_score,
)

_TOL = 1e-8
_VALUE_TOL = 5e-3


def _rebuild(terms):
    total = np.zeros((32, 32), dtype=complex)
    for term in terms:
        if term.coeff != 0.0:
            total += term.coeff * oracle_term(term.indices)
    return total


def _identity_channel_branch(direction):
    """The forward (control |0>) or backward (control |1>) branch of the flip."""
    if direction == "forward":
        pairs = (("A_I", "B_it"), ("A_O", "B_ot"))
        control = 0
    else:
        pairs = (("A_O", "B_it"), ("A_I", "B_ot"))
        control = 1
    eye = np.eye(2)
    vec = np.kron(np.kron(double_ket(eye), double_ket(eye)), eye[control])
    op = HermitianOperator(qubits(*pairs[0], *pairs[1], "B_oc"), projector(vec))
    return SetupOperator(permute_factors(op, WIRE_LABELS), qtf_plus_control().roles)


@pytest.fixture(scope="module")
def qtf():
    return qtf_plus_control()


@pytest.fixture(scope="module")
def solved(qtf):
    return solve_max_robustness(qtf)


@pytest.fixture(scope="module")
def solved_restricted(qtf):
    return solve_max_robustness(qtf, restricted=True)


class TestDomainTypes:
    def test_term_index_validation(self):
        with pytest.raises(ValueError):
            DecompositionTerm((0, 1, 2, 3), 1.0)
        with pytest.raises(ValueError):
            DecompositionTerm((0, 1, 2, 3, 4), 1.0)
        assert DecompositionTerm((3, 2, 1), 0.5).restricted

    @pytest.mark.parametrize("record, indices", [
        (DecompositionTerm, (1.7, 0, 0, 0, 0)),
        (ProbabilityRecord, (2.9, 1, 0)),
        (DecompositionTerm, (float("inf"), 0, 0, 0, 0)),
        (ProbabilityRecord, (0, float("nan"), 0)),
    ])
    def test_indices_are_whole_numbers(self, record, indices):
        # int() would truncate 1.7 to 1 and raise OverflowError on inf
        with pytest.raises(ValueError, match=rf"whole numbers in 0\.\.3, got {re.escape(str(indices))}$"):
            record(indices, 0.1)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            ProbabilityRecord((0, 0, 0, 0, 0), -1e-3)
        with pytest.raises(ValueError):
            ProbabilityRecord((0, 0, 0, 0, 0), 1.001)
        clamped = ProbabilityRecord((0, 0, 0, 0, 0), 1.0 + 5e-13)
        assert clamped.probability == 1.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_are_rejected(self, bad):
        with pytest.raises(ValueError, match=r"non-finite coeff .* for term \(0, 1, 2, 3, 0\)"):
            DecompositionTerm((0, 1, 2, 3, 0), bad)
        with pytest.raises(ValueError, match=r"non-finite probability .* for event \(3, 2, 1\)"):
            ProbabilityRecord((3, 2, 1), bad)

    def test_counts_need_shots(self):
        with pytest.raises(ValueError):
            ProbabilityRecord((0, 0, 0, 0, 0), 0.5, counts=10)
        rec = ProbabilityRecord((0, 0, 0, 0, 0), 0.5, counts=10, shots=20)
        assert (rec.counts, rec.shots) == (10, 20)

    @pytest.mark.parametrize("counts, shots", [(10.9, 20), (10, 20.7)])
    def test_counts_and_shots_are_whole_numbers(self, counts, shots):
        with pytest.raises(ValueError, match="whole number"):
            ProbabilityRecord((0, 0, 0, 0, 0), 0.5, counts=counts, shots=shots)

    @pytest.mark.parametrize("counts, shots", [(10, 10**400), (10**400, 10**400)], ids=["shots", "both"])
    def test_counts_and_shots_beyond_float_range_are_rejected(self, counts, shots):
        with pytest.raises(ValueError, match="shots is beyond float range"):
            ProbabilityRecord((0, 0, 0, 0, 0), 1e-399, counts=counts, shots=shots)

    def test_probability_lies_within_half_a_count(self):
        # 1 count of 100 shots: 0.015 is half a count away, 0.9 is not
        assert ProbabilityRecord((0, 0, 0, 0, 0), 0.015, counts=1, shots=100).counts == 1
        for p in (0.9, 0.016):
            with pytest.raises(ValueError, match="more than half a count"):
                ProbabilityRecord((0, 0, 0, 0, 0), p, counts=1, shots=100)

    def test_counts_cannot_exceed_shots(self):
        with pytest.raises(ValueError, match="counts must lie"):
            ProbabilityRecord((0, 0, 0, 0, 0), 0.5, counts=30, shots=20)
        assert ProbabilityRecord((0, 0, 0, 0, 0), 1.0, counts=20, shots=20).counts == 20

    def test_witness_layout_enforced(self):
        wrong = identity(qubits("A_I", "A_O", "B_it", "B_ot", "B_x"))
        for check in (validate_witness, decompose_witness):
            with pytest.raises(ValueError, match="five-qubit layout"):
                check(wrong)


class TestDecomposition:
    def test_basis_element_is_a_single_term(self):
        mat = np.zeros((32, 32), dtype=complex)
        mat[0, 0] = 1.0
        terms = decompose_witness(HermitianOperator(experiment_layout(), mat))
        contributing = [t for t in terms if t.coeff != 0.0]
        assert len(contributing) == 1
        assert contributing[0].indices == (0, 0, 0, 0, 0)
        assert contributing[0].coeff == pytest.approx(1.0, abs=1e-12)

    def test_identity_expansion(self):
        # I = P0 + P1 per wire, so the expansion is the {0,1}^5 indicator
        terms = decompose_witness(identity(experiment_layout()))
        contributing = {t.indices: t.coeff for t in terms if t.coeff != 0.0}
        assert set(contributing) == {
            (a, b, c, d, e)
            for a in range(2)
            for b in range(2)
            for c in range(2)
            for d in range(2)
            for e in range(2)
        }
        assert all(c == pytest.approx(1.0, abs=1e-12) for c in contributing.values())
        assert sum(contributing.values()) == pytest.approx(32.0, abs=1e-9)

    def test_tiny_coefficients_become_exact_zeros(self):
        mat = np.zeros((32, 32), dtype=complex)
        mat[0, 0] = 1.0
        spread = oracle_term((3, 3, 3, 3, 3))
        op = HermitianOperator(experiment_layout(), mat + 5e-11 * spread)
        terms = {t.indices: t.coeff for t in decompose_witness(op)}
        assert terms[(3, 3, 3, 3, 3)] == 0.0

    def test_restricted_roundtrip(self):
        rng = np.random.default_rng(11)
        slot = random_hermitian_operator(rng, qubits("A_I", "A_O"))
        control = random_hermitian_operator(rng, qubits("B_oc"))
        pin = np.zeros((2, 2), dtype=complex)
        pin[0, 0] = 1.0
        lifted = tensor_product(
            [slot, HermitianOperator(qubits("B_it"), pin), identity(qubits("B_ot")), control]
        )
        op = permute_factors(lifted, WIRE_LABELS)
        terms = decompose_witness(op, restricted=True)
        assert all(t.restricted for t in terms)
        assert np.linalg.norm(_rebuild(terms) - op.matrix) <= _TOL

    def test_restricted_rejects_general_structure(self, solved):
        _, w_opt = solved
        with pytest.raises(ValueError, match="restricted product structure"):
            decompose_witness(w_opt, restricted=True)

    def test_optimal_witness_term_count_reported(self, solved):
        _, w_opt = solved
        contributing = [t for t in decompose_witness(w_opt) if t.coeff != 0.0]
        # the argmax witness is solver-dependent; the count just has to be sane
        assert 0 < len(contributing) <= 1024


class TestDecompositionProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_random_hermitian(self, seed):
        rng = np.random.default_rng(seed)
        op = random_hermitian_operator(rng, experiment_layout())
        terms = decompose_witness(op)
        assert np.linalg.norm(_rebuild(terms) - op.matrix) <= _TOL

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_coefficients_match_tensor_inverse_oracle(self, seed):
        rng = np.random.default_rng(seed)
        op = random_hermitian_operator(rng, experiment_layout())
        terms = decompose_witness(op)
        gram = np.array(
            [
                [1.0, 0.0, 0.5, 0.5],
                [0.0, 1.0, 0.5, 0.5],
                [0.5, 0.5, 1.0, 0.5],
                [0.5, 0.5, 0.5, 1.0],
            ]
        )
        inverse = np.linalg.inv(gram)
        for _ in range(4):
            inverse = np.kron(inverse, np.linalg.inv(gram))
        pairings = np.array(
            [np.real(np.trace(oracle_term(t.indices) @ op.matrix)) for t in terms]
        )
        oracle = inverse @ pairings
        produced = np.array([t.coeff for t in terms])
        assert np.max(np.abs(produced - oracle)) <= 1e-9


class TestBornProbabilities:
    def test_all_zero_event_on_qtf(self, qtf):
        records = born_probabilities(qtf, [DecompositionTerm((0, 0, 0, 0, 0), 1.0)])
        assert records[0].probability == pytest.approx(0.5, abs=1e-12)

    def test_forward_branch_concentrates_on_control_zero(self):
        forward = _identity_channel_branch("forward")
        keep = born_probabilities(forward, [DecompositionTerm((0, 0, 0, 0, 0), 1.0)])
        flip = born_probabilities(forward, [DecompositionTerm((0, 0, 0, 0, 1), 1.0)])
        assert keep[0].probability == pytest.approx(1.0, abs=1e-12)
        assert flip[0].probability == pytest.approx(0.0, abs=1e-12)

    def test_instrument_partition(self, qtf):
        # one bistochastic instrument = measure Z on A_I, reprepare the paired
        # Z state on A_O; together with Z measurements on B_ot and B_oc its
        # eight events must exhaust every valid general setup
        rng = np.random.default_rng(21)
        setups = [qtf, random_general_setup(rng, qtf), random_general_setup(rng, qtf)]
        for setup in setups:
            for a in range(4):
                for pairing in ((0, 1), (1, 0)):
                    terms = [
                        DecompositionTerm((a, b, pairing[b], d, e), 1.0)
                        for b in range(2)
                        for d in range(2)
                        for e in range(2)
                    ]
                    total = sum(r.probability for r in born_probabilities(setup, terms))
                    assert total == pytest.approx(1.0, abs=1e-10)

    def test_every_term_matches_the_oracle(self, qtf):
        setup = random_general_setup(np.random.default_rng(5), qtf)
        full = [DecompositionTerm(idx, 1.0) for idx in product(range(4), repeat=5)]
        restricted = [DecompositionTerm(idx, 1.0) for idx in product(range(4), repeat=3)]
        mixed = restricted[::5] + full[::9] + restricted[2::5]
        for terms in (full, restricted, mixed):
            records = born_probabilities(setup, terms)
            assert [r.indices for r in records] == [t.indices for t in terms]
            expected = [np.real(np.trace(oracle_term(t.indices) @ setup.op.matrix)) for t in terms]
            assert np.max(np.abs([r.probability for r in records] - np.array(expected))) <= 1e-12

    def test_cold_pipeline_peak_memory(self, qtf):
        op = random_hermitian_operator(np.random.default_rng(8), experiment_layout())
        tracemalloc.start()
        try:
            born_probabilities(qtf, decompose_witness(op))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_layout_mismatch_raises(self, qtf):
        relabeled = relabel(qtf.op, {"B_oc": "B_x"})
        moved = SetupOperator(relabeled, {**{k: v for k, v in qtf.roles.items() if k != "B_oc"}, "B_x": "global-output"})
        with pytest.raises(ValueError, match="five-qubit layout"):
            born_probabilities(moved, [DecompositionTerm((0, 0, 0, 0, 0), 1.0)])


class TestEstimator:
    def test_qtf_estimate_matches_sdp_value(self, qtf, solved):
        report, w_opt = solved
        terms = decompose_witness(w_opt)
        probs = born_probabilities(qtf, terms)
        estimate = estimate_robustness(terms, probs)
        assert estimate == pytest.approx(report.lower, abs=1e-6)
        assert estimate == pytest.approx(0.4007, abs=_VALUE_TOL)

    def test_restricted_estimate_matches_sdp_value(self, qtf, solved_restricted):
        report, w_res = solved_restricted
        terms = decompose_witness(w_res, restricted=True)
        probs = born_probabilities(qtf, terms)
        estimate = estimate_robustness(terms, probs)
        assert estimate == pytest.approx(report.lower, abs=1e-6)
        assert estimate == pytest.approx(0.1716, abs=_VALUE_TOL)

    def test_restricted_probabilities_are_exact_marginals(self, qtf, solved_restricted):
        # identity on B_ot = summing the two Z outcomes: the restricted
        # estimate cannot depend on how the traced-out wire was measured
        _, w_res = solved_restricted
        terms = [t for t in decompose_witness(w_res, restricted=True) if t.coeff != 0.0]
        for term in terms[:8]:
            b, c, e = term.indices
            split = [DecompositionTerm((0, b, c, d, e), 1.0) for d in range(2)]
            total = sum(r.probability for r in born_probabilities(qtf, split))
            direct = born_probabilities(qtf, [term])[0].probability
            assert direct == pytest.approx(total, abs=1e-12)

    def test_definite_setup_estimate_is_nonpositive(self, solved):
        _, w_opt = solved
        terms = decompose_witness(w_opt)
        forward = _identity_channel_branch("forward")
        backward = _identity_channel_branch("backward")
        mixed = SetupOperator(forward.op * 0.3 + backward.op * 0.7, forward.roles)
        estimate = estimate_robustness(terms, born_probabilities(mixed, terms))
        assert estimate <= 1e-7

    def test_missing_probability_raises(self):
        terms = [DecompositionTerm((0, 0, 0, 0, 0), 1.0), DecompositionTerm((1, 1, 1, 1, 1), 0.0)]
        with pytest.raises(ValueError, match="missing probability"):
            estimate_robustness(terms, [])
        # zero-coefficient terms do not need probabilities
        probs = [ProbabilityRecord((0, 0, 0, 0, 0), 0.25)]
        assert estimate_robustness(terms, probs) == pytest.approx(-0.25)


    def test_repeated_event_raises(self):
        terms = [DecompositionTerm((0, 0, 0, 0, 0), 1.0)]
        probs = [ProbabilityRecord((0, 0, 0, 0, 0), p) for p in (0.1, 0.9)]
        with pytest.raises(ValueError, match=r"repeated event \(0, 0, 0, 0, 0\)"):
            estimate_robustness(terms, probs)


class TestEstimatorProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_estimate_equals_pairing(self, seed):
        rng = np.random.default_rng(seed)
        w = random_hermitian_operator(rng, experiment_layout())
        setup = random_general_setup(rng, qtf_plus_control())
        terms = decompose_witness(w)
        estimate = estimate_robustness(terms, born_probabilities(setup, terms))
        assert estimate == pytest.approx(-hs_inner(w, setup.op), abs=_TOL)


class TestPoissonResampler:
    def test_deterministic_per_seed(self, qtf, solved):
        _, w_opt = solved
        terms = decompose_witness(w_opt)
        probs = born_probabilities(qtf, terms)
        first = poisson_resample(terms, probs, shots=10_000, repetitions=25, seed=3)
        second = poisson_resample(terms, probs, shots=10_000, repetitions=25, seed=3)
        other = poisson_resample(terms, probs, shots=10_000, repetitions=25, seed=4)
        assert first == second
        assert first != other

    def test_large_shot_concentration(self, qtf, solved):
        report, w_opt = solved
        terms = decompose_witness(w_opt)
        probs = born_probabilities(qtf, terms)
        mean, spread = poisson_resample(terms, probs, shots=10**7, repetitions=100, seed=0)
        assert mean == pytest.approx(report.lower, abs=1e-3)
        assert spread < 1e-3

    def test_input_validation(self):
        terms = [DecompositionTerm((0, 0, 0, 0, 0), 1.0)]
        probs = [ProbabilityRecord((0, 0, 0, 0, 0), 0.5)]
        with pytest.raises(ValueError, match="shots"):
            poisson_resample(terms, probs, shots=0)
        with pytest.raises(ValueError, match="whole number"):
            poisson_resample(terms, probs, shots=2.5)
        with pytest.raises(ValueError, match="repetitions"):
            poisson_resample(terms, probs, shots=100, repetitions=1)

    def test_repetitions_are_a_whole_number(self):
        terms = [DecompositionTerm((0, 0, 0, 0, 0), 1.0)]
        probs = [ProbabilityRecord((0, 0, 0, 0, 0), 0.5)]
        with pytest.raises(ValueError, match="repetitions must be a whole number"):
            poisson_resample(terms, probs, shots=100, repetitions=2.9)

    def test_z_scores_of_published_values(self):
        assert z_score(0.345, 0.005) >= 69.0
        assert z_score(0.140, 0.004) >= 35.0
        with pytest.raises(ValueError):
            z_score(0.1, 0.0)


class TestValidateWitness:
    def test_scaled_identity_is_valid_but_useless(self):
        report = validate_witness(identity(experiment_layout()) * 0.25)
        assert report.valid
        assert report.min_definite_value == pytest.approx(1.0, abs=1e-3)
        assert report.certificate_ok
        assert report.certificate is not None

    def test_negative_identity_is_invalid(self):
        report = validate_witness(identity(experiment_layout()) * -0.25)
        assert not report.valid
        assert report.min_definite_value == pytest.approx(-1.0, abs=1e-3)
        assert report.certificate is None

    def test_optimal_witness_is_valid(self, qtf, solved):
        _, w_opt = solved
        report = validate_witness(w_opt)
        assert report.valid
        assert report.min_definite_value >= -1e-4
        assert report.certificate_ok
        assert hs_inner(w_opt, qtf.op) == pytest.approx(-0.4007, abs=_VALUE_TOL)

    def test_solver_certificate_verifies(self, solved):
        report, w_opt = solved
        residuals = certificate_residuals(w_opt, report.extras["certificate"])
        for name, res in residuals.items():
            assert res <= CERTIFICATE_TOL, name

    def test_tampered_certificate_rejected(self, solved):
        report, w_opt = solved
        z_fwd, z_bwd = report.extras["certificate"]
        spoiled = z_fwd + identity(experiment_layout()) * 0.1
        residuals = certificate_residuals(w_opt, (spoiled, z_bwd))
        assert residuals["forward-membership"] > CERTIFICATE_TOL
        assert residuals["backward-membership"] <= CERTIFICATE_TOL

    def test_one_splitting_run(self, solved, admm_runs):
        _, w_opt = solved
        report = validate_witness(w_opt)
        assert report.valid and report.certificate_ok
        assert len(admm_runs) == 1
        assert admm_runs[0].prog.sense == "max"

    @pytest.mark.parametrize("case", ["qtf", "restricted", "rotated"])
    def test_certificate_is_the_floor_dual_point(self, qtf, request, case):
        if case == "rotated":
            _, w = solve_max_robustness(rotated(qtf))
        else:
            _, w = request.getfixturevalue("solved_restricted" if case == "restricted" else "solved")
        report = validate_witness(w)
        assert report.valid and report.certificate_ok
        assert len(report.certificate) == 2
        residuals = certificate_residuals(w, report.certificate)
        for name, res in residuals.items():
            assert res <= CERTIFICATE_TOL, name
            assert report.residuals[name] == res

    def test_certificate_decided_at_a_tiny_positive_floor(self, qtf, solved):
        _, w = solved
        spans = {
            "forward": SpanMask.of_setup(qtf, ConeId.FORWARD),
            "backward": SpanMask.of_setup(qtf, ConeId.BACKWARD),
        }
        floor = solve_cone_value(
            -w.matrix, spans, done=lambda upper, lower: upper - lower <= 1e-10
        )
        assert floor.converged
        # shifting by c I/dd shifts the floor by c: this one's is 1e-7
        target = 1e-7
        shift = target + (floor.upper + floor.lower) / 2
        shifted = w + identity(w.layout) * (shift / trace_target(qtf))
        report = validate_witness(shifted)
        assert report.valid and report.certificate_ok
        assert report.min_definite_value <= target + 1e-9

    def test_shifted_below_tolerance_is_invalid(self, qtf, solved):
        _, w = solved
        shifted = w - identity(w.layout) * (1e-3 / trace_target(qtf))
        report = validate_witness(shifted)
        assert not report.valid and not report.certificate_ok
        assert report.certificate is None
        assert report.attained_definite_value < -report.tol

    def test_report_dict_is_json_safe(self):
        import json

        report = validate_witness(identity(experiment_layout()) * 0.25)
        parsed = json.loads(json.dumps(report.as_dict()))
        assert parsed["valid"] is True


@pytest.fixture(scope="module")
def solved_half(qtf):
    return solve_max_robustness(half_definite(np.random.default_rng(2), qtf))


class TestDistinctDirectionParts:
    """A witness that is nonnegative on the definite cone only through a
    different complement part per direction (see `half_definite`)."""

    def test_robustness_certifies(self, solved_half):
        report, _ = solved_half
        assert report.converged
        assert report.gap <= 1e-4
        assert report.lower <= report.upper

    def test_solver_certificate_is_accepted(self, solved_half):
        report, w = solved_half
        residuals = certificate_residuals(w, report.extras["certificate"])
        for name, res in residuals.items():
            assert res <= CERTIFICATE_TOL, name

    def test_witness_validates_with_a_certificate(self, solved_half):
        _, w = solved_half
        report = validate_witness(w)
        assert report.valid and report.certificate_ok
        assert report.min_definite_value >= -report.tol


class TestCsvInterfaces:
    def test_decomposition_roundtrip_omits_zeros(self, tmp_path, solved):
        _, w_opt = solved
        terms = decompose_witness(w_opt)
        contributing = [t for t in terms if t.coeff != 0.0]
        path = tmp_path / "decomposition.csv"
        save_decomposition(str(path), terms)
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b,c,d,e,coeff"
        assert len(lines) == len(contributing) + 1
        back = load_decomposition(str(path))
        assert [(t.indices, t.coeff) for t in back] == [
            (t.indices, t.coeff) for t in contributing
        ]

    def test_restricted_header(self, tmp_path):
        path = tmp_path / "restricted.csv"
        save_decomposition(str(path), [DecompositionTerm((1, 2, 3), -0.25)])
        assert path.read_text().splitlines()[0] == "b,c,e"  + ",coeff"
        back = load_decomposition(str(path))
        assert back[0].indices == (1, 2, 3) and back[0].coeff == -0.25

    def test_probability_roundtrip_with_counts(self, tmp_path):
        records = [
            ProbabilityRecord((0, 1, 2, 3, 0), 0.125, counts=125, shots=1000),
            ProbabilityRecord((1, 1, 1, 1, 1), 0.5),
        ]
        path = tmp_path / "probs.csv"
        save_probabilities(str(path), records)
        back = load_probabilities(str(path))
        assert [(r.indices, r.probability, r.counts, r.shots) for r in back] == [
            (r.indices, r.probability, r.counts, r.shots) for r in records
        ]

    def test_counts_only_rows_become_frequencies(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("a,b,c,d,e,counts,shots\n2,1,0,1,0,794,1000\n")
        records = load_probabilities(str(path))
        assert records[0].probability == pytest.approx(0.794)
        assert (records[0].counts, records[0].shots) == (794, 1000)

    def test_row_without_a_value_names_its_number(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("b,c,e,counts,shots\n0,0,0,794,1000\n0,0,1,,1000\n")
        with pytest.raises(ValueError, match=re.escape(f"row 3 of {path} has neither")):
            load_probabilities(str(path))

    @pytest.mark.parametrize("loader, value, what", [
        (load_decomposition, "coeff", "term"),
        (load_probabilities, "probability", "event"),
    ], ids=["decomposition", "probabilities"])
    def test_repeated_row_names_the_file_and_both_rows(self, tmp_path, loader, value, what):
        path = tmp_path / "table.csv"
        path.write_text(f"b,c,e,{value}\n0,1,2,0.5\n1,1,1,0.25\n\n0,1,2,0.5\n")
        with pytest.raises(ValueError) as caught:
            loader(str(path))
        assert str(caught.value) == f"rows 2 and 5 of {path}: repeated {what} (0, 1, 2)"

    def test_unrecognized_headers_raise(self, tmp_path):
        # each header error names the header and the file
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n1,2,3\n")
        with pytest.raises(ValueError, match=re.escape(f"header ('x', 'y', 'z') in {path}")):
            load_decomposition(str(path))
        with pytest.raises(ValueError, match=re.escape(f"header ('x', 'y', 'z') in {path}")):
            load_probabilities(str(path))
        path.write_text("b,c,e,coef\n1,2,3,0.5\n")
        with pytest.raises(ValueError, match=re.escape(f"header ('b', 'c', 'e', 'coef') in {path}")):
            load_decomposition(str(path))
