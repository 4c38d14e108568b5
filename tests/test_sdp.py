"""Conic solver: engine behavior, robustness values, certificates, duality."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from helpers import random_channel
from timeflip import sdp
from timeflip.sdp import (
    Block,
    ConicProgram,
    MatrixRow,
    ScalarRow,
    certify_duality,
    restricted_witness_projector,
    solve,
    solve_cone_value,
    solve_max_robustness,
    solve_robustness_given_witness,
)
from timeflip.supermaps import (
    ConeId,
    SetupOperator,
    qtf_plus_control,
    sequential_setup,
    setup_span_projector,
    subspace_project,
)
from timeflip.tensor_core import (
    HermitianOperator,
    SystemLayout,
    hs_inner,
    min_eigenvalue,
    tensor_product,
    trace_and_replace,
)

_GAP_TOL = 1e-4
_VALUE_TOL = 5e-3


def _random_fixed_direction(rng, direction, layout):
    """Fixed-direction setup on the full five-wire layout: a random comb on
    the first four wires tensored with a random state on the trailing one."""
    pre = random_channel(rng, 2, 4)
    post = random_channel(rng, 4, 2)
    comb = sequential_setup(pre, post, 2, direction, labels=layout.labels[:4])
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    state = HermitianOperator(SystemLayout((layout.factors[4],)), rho)
    roles = dict(comb.roles)
    roles[layout.labels[4]] = "global-output"
    return SetupOperator(tensor_product([comb.op, state]), roles)


def _definite_mixture(rng, template):
    layout = template.op.layout
    fwd = _random_fixed_direction(rng, ConeId.FORWARD, layout)
    bwd = _random_fixed_direction(rng, ConeId.BACKWARD, layout)
    lam = rng.uniform(0.15, 0.85)
    mixed = lam * fwd.op.matrix + (1 - lam) * bwd.op.matrix
    return SetupOperator(HermitianOperator(layout, mixed), template.roles)


def _random_general_setup(rng, template):
    """A generic trace-normalized element of the general cone: project a random
    positive operator onto the span, then float it back to positivity with
    uniform noise."""
    layout = template.op.layout
    n = layout.total_dim
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    raw = SetupOperator(HermitianOperator(layout, g @ g.conj().T / n), template.roles)
    m = subspace_project(raw, ConeId.GENERAL).matrix
    floor = -min(min_eigenvalue(m), 0.0)
    m = m + 1.01 * floor * np.eye(n)
    m *= template.trace_target / np.trace(m).real
    return SetupOperator(HermitianOperator(layout, m), template.roles)


@pytest.fixture(scope="module")
def qtf():
    return qtf_plus_control()


@pytest.fixture(scope="module")
def solved(qtf):
    return solve_max_robustness(qtf)


@pytest.fixture(scope="module")
def solved_restricted(qtf):
    return solve_max_robustness(qtf, restricted=True)


class TestEngine:
    def test_trivial_shifted_positivity_program(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        s = g @ g.conj().T / 8
        prog = ConicProgram(
            name="trivial",
            pair_tag="trivial",
            n=8,
            blocks=(Block("T", "psd"), Block("R", "psd")),
            matrix_rows=(MatrixRow("shifted-positivity", {"T": 1.0, "R": -1.0}, -s),),
            scalar_rows=(),
            objective={"T": np.eye(8) / 4},
            principal="T",
        )
        report = solve(prog)
        assert report.converged
        assert abs(report.primal_value) <= 1e-5

    def test_scalar_row_is_projected_exactly(self):
        eye = np.eye(4, dtype=complex)
        prog = ConicProgram(
            name="traced",
            pair_tag="traced",
            n=4,
            blocks=(Block("X", "psd"),),
            matrix_rows=(),
            scalar_rows=(ScalarRow("trace", {"X": eye}, 2.0),),
            objective={"X": np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)},
            principal="X",
        )
        report = solve(prog)
        assert report.converged
        solution = report.extras["solution"]["X"]
        # the cone-side iterate meets the trace row to splitting accuracy
        assert abs(np.trace(solution).real - 2.0) <= 1e-4
        # mass should concentrate on the cheapest diagonal entry
        assert abs(report.primal_value - 2.0) <= 1e-4

    def test_dependent_rows_raise(self):
        zero = np.zeros((2, 2))
        prog = ConicProgram(
            name="dependent",
            pair_tag="dependent",
            n=2,
            blocks=(Block("X", "psd"), Block("Y", "psd")),
            matrix_rows=(
                MatrixRow("first", {"X": 1.0, "Y": 1.0}, zero),
                MatrixRow("second", {"X": 2.0, "Y": 2.0}, zero),
            ),
            scalar_rows=(),
            objective={},
            principal="X",
        )
        with pytest.raises(ValueError, match="dependent"):
            solve(prog)

    def test_subspace_block_requires_projector(self):
        with pytest.raises(ValueError, match="projector"):
            Block("X", "sub")
        with pytest.raises(ValueError, match="kind"):
            Block("X", "conic")

    def test_report_round_trips_through_json(self, solved):
        report, _ = solved
        payload = json.dumps(report.as_dict())
        back = json.loads(payload)
        assert back["pair_tag"] == "robustness"
        assert back["converged"] is True


class TestMaxRobustness:
    def test_indefinite_setup_value(self, solved):
        report, witness = solved
        assert report.converged
        assert report.gap <= _GAP_TOL
        assert abs(report.dual_value - 0.4007) <= _VALUE_TOL
        assert abs(report.primal_value - 0.4007) <= _VALUE_TOL
        # the certified lower bound is the witness expectation itself
        assert report.dual_value >= 0.0

    def test_witness_matches_reported_value(self, qtf, solved):
        report, witness = solved
        s = subspace_project(qtf, ConeId.GENERAL).matrix
        assert abs(-hs_inner(witness.matrix, s) - report.dual_value) <= 1e-9

    def test_certificate_structure(self, qtf, solved):
        report, witness = solved
        cert = report.extras["certificate"]
        layout = qtf.op.layout
        eye = np.eye(layout.total_dim)
        w = witness.matrix
        w_uni = cert["uniform-part"].matrix
        w_fwd = cert["forward-part"].matrix
        w_bwd = cert["backward-part"].matrix
        p_fwd = cert["forward-slack"].matrix
        p_bwd = cert["backward-slack"].matrix
        q = cert["domination-slack"].matrix
        assert np.linalg.norm(w - w_uni - w_fwd - p_fwd) <= 1e-9
        assert np.linalg.norm(w - w_uni - w_bwd - p_bwd) <= 1e-9
        for slack in (p_fwd, p_bwd, q):
            assert min_eigenvalue(slack) >= -1e-11
        # decomposition parts live in the orthogonal complements of the spans
        p_uni = setup_span_projector(qtf, ConeId.UNIFORM_GLOBAL_INPUT)
        p_f = setup_span_projector(qtf, ConeId.FORWARD_SPAN)
        p_b = setup_span_projector(qtf, ConeId.BACKWARD_SPAN)
        p_e = setup_span_projector(qtf, ConeId.GENERAL)
        assert np.linalg.norm(p_uni(w_uni)) <= 1e-9
        assert np.linalg.norm(p_f(w_fwd)) <= 1e-9
        assert np.linalg.norm(p_b(w_bwd)) <= 1e-9
        z = eye / qtf.trace_target - w - q
        assert np.linalg.norm(p_e(z)) <= 1e-9

    def test_witness_nonnegative_on_fixed_directions(self, qtf, solved):
        _, witness = solved
        rng = np.random.default_rng(11)
        for direction in (ConeId.FORWARD, ConeId.BACKWARD):
            for _ in range(5):
                probe = _random_fixed_direction(rng, direction, qtf.op.layout)
                assert hs_inner(witness.matrix, probe.op.matrix) >= -1e-8

    def test_witness_normalization_on_general_cone(self, qtf, solved):
        _, witness = solved
        rng = np.random.default_rng(23)
        for _ in range(20):
            probe = _random_general_setup(rng, qtf)
            assert hs_inner(witness.matrix, probe.op.matrix) <= 1.0 + 1e-6

    def test_restricted_value(self, solved_restricted):
        report, witness = solved_restricted
        assert report.converged
        assert report.gap <= _GAP_TOL
        assert abs(report.dual_value - 0.1716) <= _VALUE_TOL
        assert report.extras["restricted"] is True

    def test_restricted_witness_in_subspace(self, qtf, solved_restricted):
        _, witness = solved_restricted
        project = restricted_witness_projector(qtf)
        assert np.linalg.norm(witness.matrix - project(witness.matrix)) <= 1e-9

    def test_forward_setup_has_zero_robustness(self, qtf):
        rng = np.random.default_rng(5)
        setup = _random_fixed_direction(rng, ConeId.FORWARD, qtf.op.layout)
        report, _ = solve_max_robustness(setup)
        assert report.primal_value <= _GAP_TOL
        assert report.dual_value >= 0.0

    def test_definite_mixtures_are_faithful(self, qtf):
        rng = np.random.default_rng(17)
        for _ in range(3):
            mix = _definite_mixture(rng, qtf)
            report, _ = solve_max_robustness(mix)
            assert report.primal_value <= _GAP_TOL

    def test_monotone_under_uniform_noise(self, qtf, solved):
        base_report, _ = solved
        base = base_report.primal_value
        layout = qtf.op.layout
        n = layout.total_dim
        white = (qtf.trace_target / n) * np.eye(n)
        for q in (0.25, 0.5, 0.75):
            mixed = SetupOperator(
                HermitianOperator(layout, (1 - q) * qtf.op.matrix + q * white), qtf.roles
            )
            report, _ = solve_max_robustness(mixed)
            assert report.dual_value <= (1 - q) * base + _GAP_TOL

    def test_strict_feasibility_probes(self, qtf):
        s = subspace_project(qtf, ConeId.GENERAL)
        lam0 = 2 * qtf.trace_target + 1
        eye_op = HermitianOperator(qtf.op.layout, np.eye(qtf.op.layout.total_dim))
        noise = lam0 * eye_op.matrix
        shifted = s.matrix + noise
        tau = trace_and_replace(HermitianOperator(qtf.op.layout, shifted), ("A_O",)).matrix
        fwd_half = lam0 / 2 * eye_op.matrix + (tau - noise / 2)
        bwd_half = lam0 / 2 * eye_op.matrix + (shifted - tau)
        assert min_eigenvalue(noise) > 0
        assert min_eigenvalue(fwd_half) > 0
        assert min_eigenvalue(bwd_half) > 0
        w0 = eye_op.matrix / (2 * qtf.trace_target)
        assert abs(hs_inner(w0, s.matrix) - 0.5) <= 1e-12
        assert min_eigenvalue(eye_op.matrix / qtf.trace_target - w0) > 0


class TestGivenWitness:
    def test_zero_witness_costs_nothing(self, qtf):
        w = HermitianOperator(qtf.op.layout, np.zeros((32, 32)))
        report = solve_robustness_given_witness(qtf, w)
        assert report.converged
        assert report.primal_value == 0.0
        assert report.iterations == 0

    def test_optimal_witness_recovers_full_value(self, qtf, solved):
        full_report, witness = solved
        report = solve_robustness_given_witness(qtf, witness)
        assert report.converged
        assert report.gap <= _GAP_TOL
        assert abs(report.dual_value - full_report.dual_value) <= _GAP_TOL
        p_low, p_high = report.extras["witness_scale"]
        assert p_low <= 1.0 + 1e-6 and p_high >= 1.0 - 1e-4

    def test_optimal_witness_on_definite_mixture(self, qtf, solved):
        _, witness = solved
        rng = np.random.default_rng(29)
        mix = _definite_mixture(rng, qtf)
        report = solve_robustness_given_witness(mix, witness)
        assert report.primal_value <= _GAP_TOL

    def test_unraisable_witness_reports_infeasible(self, qtf):
        s = subspace_project(qtf, ConeId.GENERAL)
        w = HermitianOperator(qtf.op.layout, -s.matrix)
        with pytest.raises(ValueError, match="infeasible noise constraint"):
            solve_robustness_given_witness(qtf, w)

    def test_mismatched_witness_layout_raises(self, qtf):
        small = HermitianOperator(SystemLayout((("x", 2),)), np.eye(2))
        with pytest.raises(ValueError, match="layout"):
            solve_robustness_given_witness(qtf, small)


class TestCertifyDuality:
    def test_matched_pair_certifies(self, solved):
        report, _ = solved
        primal = report.extras["primal_report"]
        dual = report.extras["dual_report"]
        assert certify_duality(primal, dual)

    def test_perturbed_dual_fails(self, solved):
        report, _ = solved
        primal = report.extras["primal_report"]
        dual = dataclasses.replace(
            report.extras["dual_report"],
            primal_value=report.extras["dual_report"].primal_value + 0.05,
        )
        assert not certify_duality(primal, dual)

    def test_zero_program_pair_certifies(self):
        def zero_prog(sense):
            return ConicProgram(
                name=f"zero:{sense}",
                pair_tag="zero",
                n=2,
                blocks=(Block("X", "psd"),),
                matrix_rows=(),
                scalar_rows=(),
                objective={},
                principal="X",
                sense=sense,
            )

        rep_min = solve(zero_prog("min"), max_iter=50)
        rep_max = solve(zero_prog("max"), max_iter=50)
        assert certify_duality(rep_min, rep_max)

    def test_mismatched_layouts_raise(self, solved):
        report, _ = solved
        primal = report.extras["primal_report"]
        dual = dataclasses.replace(report.extras["dual_report"], labels=("other",))
        with pytest.raises(ValueError, match="mismatched layouts"):
            certify_duality(primal, dual)

    def test_unconverged_report_fails(self, solved):
        report, _ = solved
        primal = report.extras["primal_report"]
        dual = dataclasses.replace(report.extras["dual_report"], converged=False)
        assert not certify_duality(primal, dual)


class TestComplementBasis:
    def test_general_span_complement_basis(self, qtf):
        geom = sdp._SlotGeometry(qtf)
        basis = sdp._general_span_complement_basis(geom)
        assert len(basis) == 39
        for e in basis:
            assert np.linalg.norm(e - e.conj().T) <= 1e-15
            assert np.linalg.norm(geom.p_general(e)) <= 1e-12
        gram = np.array([[hs_inner(a, b) for b in basis] for a in basis])
        assert np.linalg.norm(gram - np.eye(39)) <= 1e-12


class TestConeValue:
    def test_general_cone_self_overlap_is_purity(self, qtf):
        # the maximizer of <S/dd, .> over the general cone is S itself, with
        # value Tr(S^2)/dd = dd for a rank-one setup of trace dd
        s = subspace_project(qtf, ConeId.GENERAL)
        geom_spans = {"general": setup_span_projector(qtf, ConeId.GENERAL)}
        report = solve_cone_value(
            s.matrix / qtf.trace_target, qtf.op.layout, geom_spans, qtf.trace_target
        )
        assert report.converged
        assert abs(report.primal_value - qtf.trace_target) <= 1e-4
        assert abs(report.dual_value - qtf.trace_target) <= 1e-4

    def test_definite_value_stays_below_general(self, qtf):
        s = subspace_project(qtf, ConeId.GENERAL)
        spans = {
            "forward": setup_span_projector(qtf, ConeId.FORWARD),
            "backward": setup_span_projector(qtf, ConeId.BACKWARD),
        }
        report = solve_cone_value(
            s.matrix / qtf.trace_target, qtf.op.layout, spans, qtf.trace_target
        )
        assert report.converged
        assert report.primal_value < qtf.trace_target - 0.5
        parts = report.extras["parts"]
        total = sum(np.trace(p.matrix).real for p in parts.values())
        assert abs(total - qtf.trace_target) <= 1e-9
        for name, part in parts.items():
            assert min_eigenvalue(part.matrix) >= -1e-11
            projector = spans[name]
            assert np.linalg.norm(part.matrix - projector(part.matrix)) <= 1e-9
