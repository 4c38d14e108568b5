"""Conic solver: engine behavior, robustness values, certificates, certified bounds."""

from __future__ import annotations

import dataclasses
import json
import tracemalloc
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    QTF_ROBUSTNESS,
    QTF_ROBUSTNESS_RESTRICTED,
    definite_mixture,
    exactly_positive_definite,
    half_definite,
    oracle_trace_and_replace,
    positions,
    random_channel,
    random_fixed_direction,
    random_general_setup,
    pin_and_trace_projector,
    qutrit_target_output,
    random_hermitian,
    random_unitary,
    restricted_projector,
    rotated,
    shifted_robustness_primal,
    trace_target,
)
from timeflip import game, sdp, witness
from timeflip.sdp import (
    Block,
    ConicProgram,
    MatrixRow,
    solve,
    solve_cone_value,
    solve_max_robustness,
)
from timeflip.supermaps import (
    ROLE_SLOT_INPUT,
    ROLE_SLOT_OUTPUT,
    ConeId,
    SetupOperator,
    SlotSpec,
    SpanMask,
    basis_coords,
    basis_matrices,
    check_setup,
    identity_coordinate,
    qtf_plus_control,
    sequential_setup,
    setup_span_projector,
)
from timeflip.tensor_core import (
    HermitianOperator,
    SystemLayout,
    hs_inner,
    min_eigenvalue,
    permute_factors,
    qubits,
    tensor_product,
)
from timeflip.witness import validate_witness

_GAP_TOL = 1e-4


@pytest.fixture(scope="module")
def qtf():
    return qtf_plus_control()


@pytest.fixture(scope="module")
def solved(qtf):
    return solve_max_robustness(qtf)


@pytest.fixture(scope="module")
def solved_restricted(qtf):
    return solve_max_robustness(qtf, restricted=True)


@pytest.fixture(scope="module")
def solved_rotated(qtf):
    return solve_max_robustness(rotated(qtf))


@pytest.fixture(scope="module")
def solved_restricted_rotated(qtf):
    return solve_max_robustness(rotated(qtf), restricted=True)


@pytest.fixture(scope="module")
def solved_half_definite(qtf):
    return solve_max_robustness(half_definite(np.random.default_rng(2), qtf))


@pytest.fixture(scope="module")
def solved_definite_mixture(qtf):
    return solve_max_robustness(definite_mixture(np.random.default_rng(17), qtf))


@pytest.fixture(scope="module")
def solved_definite_part(qtf):
    """The definite part D of `solved_half_definite`'s setup, S/2 + D/2."""
    return solve_max_robustness(definite_mixture(np.random.default_rng(2), qtf))


_SOLVED = {
    "qtf": "solved",
    "restricted": "solved_restricted",
    "rotated": "solved_rotated",
    "restricted-rotated": "solved_restricted_rotated",
}


class TestEngine:
    @pytest.mark.parametrize("hermitian", [False, True], ids=["float", "complex"])
    def test_psd_clip_survives_an_eigh_failure(self, monkeypatch, hermitian):
        # LAPACK's eigh can fail to converge on a finite block; the clip, and
        # the cone step for the blocks it decomposes, then decompose the
        # stack conjugated by a fixed reflection instead
        rng = np.random.default_rng(3)
        stack = np.stack([random_hermitian(rng, 8) for _ in range(3)])
        stack = stack if hermitian else np.real(stack)
        expected = sdp._psd_clip(stack)
        admm = sdp._Admm(_psd_stack_program(3, 8, hermitian))
        assert admm.hermitian is hermitian
        eigh, calls = np.linalg.eigh, []

        def fails_first(a, *args, **kwargs):
            calls.append(a)
            if len(calls) % 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", fails_first)
        clipped = sdp._psd_clip(stack)
        assert len(calls) == 2 and clipped.dtype == stack.dtype
        np.testing.assert_allclose(clipped, expected, atol=1e-12)
        projected = admm._project_cone(sdp._real_image(stack))
        assert len(calls) == 4 and projected.dtype == float
        np.testing.assert_allclose(_matrices(admm, projected), expected, atol=1e-12)

    def test_trivial_shifted_positivity_program(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        s = g @ g.conj().T / 8
        prog = ConicProgram(
            name="trivial",
            layout=SystemLayout((("x", 8),)),
            blocks=(Block("T", "psd"), Block("R", "psd")),
            matrix_rows=(MatrixRow("shifted-positivity", {"T": 1.0, "R": -1.0}, -s),),
            objective={"T": np.eye(8) / 4},
        )
        report = solve(prog)
        assert report.converged
        assert abs(report.upper) <= 1e-5

    def test_scalar_row_is_projected_exactly(self):
        # the trace as a row on the identity coordinate of a one-wire layout
        eye = np.eye(4, dtype=complex)
        layout = SystemLayout((("a", 4),))
        prog = ConicProgram(
            name="traced",
            layout=layout,
            blocks=(Block("X", "psd"),),
            matrix_rows=(MatrixRow("trace", {"X": 1.0}, eye / 2, identity_coordinate(layout)),),
            objective={"X": np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)},
        )
        report = solve(prog)
        assert report.converged
        solution = report.extras["upper_point"]["X"]
        # the cone-side iterate meets the trace row to splitting accuracy
        assert abs(np.trace(solution).real - 2.0) <= 1e-4
        # mass should concentrate on the cheapest diagonal entry
        assert abs(report.upper - 2.0) <= 1e-4

    def test_dependent_rows_raise(self):
        zero = np.zeros((2, 2))
        prog = ConicProgram(
            name="dependent",
            layout=SystemLayout((("x", 2),)),
            blocks=(Block("X", "psd"), Block("Y", "psd")),
            matrix_rows=(
                MatrixRow("first", {"X": 1.0, "Y": 1.0}, zero),
                MatrixRow("second", {"X": 2.0, "Y": 2.0}, zero),
            ),
            objective={},
        )
        with pytest.raises(ValueError, match="dependent"):
            solve(prog)

    def test_psd_blocks_apart_raise(self):
        # the cone step reads and writes the PSD blocks as one slice
        prog = ConicProgram(
            name="apart",
            layout=SystemLayout((("x", 2),)),
            blocks=(Block("X", "psd"), Block("F", "free"), Block("Y", "psd")),
            matrix_rows=(),
            objective={},
        )
        with pytest.raises(ValueError, match="^apart: the PSD blocks must be listed side by side$"):
            solve(prog)

    def test_subspace_block_requires_projector(self):
        with pytest.raises(ValueError, match="projector"):
            Block("X", "sub")
        with pytest.raises(ValueError, match="kind"):
            Block("X", "conic")

    def test_lone_min_program_claims_no_gap(self):
        layout = qubits("a")
        prog = ConicProgram(
            name="lone",
            layout=layout,
            blocks=(Block("X", "psd"),),
            matrix_rows=(MatrixRow("trace", {"X": 1.0}, np.eye(2) / 2, identity_coordinate(layout)),),
            objective={"X": np.diag([1.0, 3.0])},
        )
        report = solve(prog)
        assert report.converged
        assert np.isfinite(report.upper) and abs(report.upper - 1.0) <= 1e-4
        assert report.lower == -np.inf
        assert report.gap == np.inf
        assert set(report.extras) == {"upper_point"}

    def test_report_round_trips_through_json(self, solved):
        report, _ = solved
        payload = json.dumps(report.as_dict())
        back = json.loads(payload)
        assert set(back) == {"upper", "lower", "gap", "iterations", "residuals", "converged"}
        assert back["converged"] is True


def _psd_stack_program(k, n, hermitian):
    """k PSD blocks of size n and no rows; a complex objective makes the cone
    step decompose complex Hermitian matrices."""
    c = random_hermitian(np.random.default_rng(1), n)
    return ConicProgram(
        name="psd-stack",
        layout=SystemLayout((("x", n),)),
        blocks=tuple(Block(f"X{j}", "psd") for j in range(k)),
        matrix_rows=(),
        objective={"X0": c if hermitian else np.real(c)},
    )


def _matrices(admm, stack):
    """The matrices of a stack of real images, as the run's cone step sees
    them: complex Hermitian when the program is, else the images themselves."""
    return sdp._hermitian(stack) if admm.hermitian else stack


@pytest.fixture
def decomposed(monkeypatch):
    """Per evaluation of the cone step, (evaluation, the names of the blocks
    that went to `eigh`).  Each stack it decomposes must be a view: of the
    projected stack on a real program, of the Hermitian matrices of the PSD
    blocks on a complex one; its blocks are named by their offset among the
    PSD blocks."""
    seen, projected = [], []
    project_cone, eigh = sdp._Admm._project_cone, np.linalg.eigh

    def recording_cone(admm, m):
        seen.append((admm.iterations + 1, []))
        projected.append((admm, m))
        try:
            return project_cone(admm, m)
        finally:
            projected.clear()

    def recording_eigh(a, *args, **kwargs):
        if projected:
            admm, m = projected[0]
            psd = [blk.name for blk in admm.prog.blocks if blk.kind == "psd"]
            if admm.hermitian:
                assert np.iscomplexobj(a) and a.base is not None and len(a.base) == len(psd)
                first = (a.ctypes.data - a.base.ctypes.data) // a[0].nbytes
            else:  # m holds every block, the PSD ones from psd[0] on
                assert np.shares_memory(a, m)
                first = (a.ctypes.data - m.ctypes.data) // m[0].nbytes - admm.names.index(psd[0])
            seen[-1][1].extend(psd[first:first + len(a)])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(sdp._Admm, "_project_cone", recording_cone)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return seen


class TestConeStep:
    @pytest.mark.parametrize("hermitian", [False, True], ids=["float", "complex"])
    def test_matches_the_reference_clip(self, hermitian, decomposed):
        # positive definite, indefinite, negative definite and zero blocks;
        # then the same stack, the definite block skipping the decomposition;
        # then that block turned indefinite, so its Cholesky factorization
        # fails and eigh takes it
        n = 8
        dtype = complex if hermitian else float
        tol = 100 * n * np.finfo(dtype).eps
        rng = np.random.default_rng(7)
        g = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if hermitian else 0)
        definite = g @ g.conj().T / n + np.eye(n)
        indefinite = random_hermitian(rng, n)
        indefinite = indefinite if hermitian else np.real(indefinite)
        stack = np.stack([definite, indefinite, -definite, np.zeros((n, n))]).astype(dtype)
        admm = sdp._Admm(_psd_stack_program(4, n, hermitian))
        assert admm.hermitian is hermitian
        turned = stack.copy()
        turned[0] = indefinite
        for m, flagged, names in (
            (stack, [True, False, False, False], ["X0", "X1", "X2", "X3"]),
            (stack, [True, False, False, False], ["X1", "X2", "X3"]),
            (turned, [False, False, False, False], ["X0", "X1", "X2", "X3"]),
        ):
            image = sdp._real_image(m)
            got = admm._project_cone(image.copy())
            assert got.dtype == float
            assert np.max(np.abs(_matrices(admm, got) - sdp._psd_clip(m))) <= tol * np.max(np.abs(m))
            assert admm._definite == flagged
            assert decomposed[-1][1] == names
            if "X0" not in names:  # the definite block is its own projection
                assert np.array_equal(got[0], image[0])

    @pytest.mark.parametrize("case", ["definite-mixture", "qtf"])
    def test_definite_blocks_skip_the_decomposition(self, qtf, case, decomposed):
        # the witness run's Q block is positive definite in every evaluation
        # from the second on for a definite mixture (robustness 0), and in
        # evaluations 2 to 5 only on qtf; P_fwd and P_bwd never are
        setup = definite_mixture(np.random.default_rng(17), qtf) if case == "definite-mixture" else qtf
        report, _ = solve_max_robustness(setup)
        assert report.converged
        assert len(decomposed) == report.iterations
        assert all(names[:2] == ["P_fwd", "P_bwd"] for _, names in decomposed)
        with_q = [it for it, names in decomposed if "Q" in names]
        if case == "qtf":
            assert with_q == [1, 2, *range(6, report.iterations + 1)]
        else:
            assert with_q == [1, 2]


class TestRebalance:
    """rho doubles when r exceeds 2 s, halves when s exceeds 2 r, within
    1e-5 <= rho <= 1e5, once per CHECKPOINT iterations: at the first accepted
    evaluation at or past each multiple."""

    @staticmethod
    def _factor(r, s, rho=1.0):
        stub = SimpleNamespace(split=(r, s), rho=rho, BALANCE=sdp._Admm.BALANCE)
        return sdp._Admm._rebalance(stub)

    def test_moves_just_past_the_band(self):
        s = 1e-3
        assert self._factor(np.nextafter(2 * s, np.inf), s) == 2.0
        assert self._factor(s, np.nextafter(2 * s, np.inf)) == 0.5

    @pytest.mark.parametrize("r, s", [(2e-3, 1e-3), (1e-3, 2e-3), (1e-3, 1e-3), (1.5e-3, 1e-3)])
    def test_holds_inside_the_band(self, r, s):
        assert self._factor(r, s) == 1.0

    def test_holds_at_the_rho_limits(self):
        assert self._factor(1.0, 1e-3, rho=1e5) == 1.0
        assert self._factor(1e-3, 1.0, rho=1e-5) == 1.0
        assert self._factor(1.0, 1e-3, rho=1e-5) == 2.0
        assert self._factor(1e-3, 1.0, rho=1e5) == 0.5

    @pytest.fixture
    def consulted(self, monkeypatch):
        """The iterations at which `_rebalance` is consulted, in order."""
        seen = []
        rebalance = sdp._Admm._rebalance

        def recording(admm):
            seen.append(admm.iterations)
            return rebalance(admm)

        monkeypatch.setattr(sdp._Admm, "_rebalance", recording)
        return seen

    @pytest.fixture
    def accepted(self, monkeypatch):
        """The iterations of the evaluations the safeguard accepts, in order.
        An evaluation whose iteration is in `forced` gets an extrapolated
        point moved 1e6 along every entry, off the trace row of every
        program, which the safeguard must reject."""
        spy = SimpleNamespace(iterations=[], forced=set())
        step = sdp._Admm.step

        def recording(admm):
            if admm.iterations + 1 in spy.forced and admm._f is not None:
                admm._next, admm._extrapolated = admm._next + 1e6, True
            before = admm.x
            step(admm)
            if admm.x is not before:
                spy.iterations.append(admm.iterations)

        monkeypatch.setattr(sdp._Admm, "step", recording)
        return spy

    @staticmethod
    def _rebalanced_at(accepted):
        """The first accepted evaluation at or past each multiple of
        CHECKPOINT, once per window."""
        due, out = sdp.CHECKPOINT, []
        for it in accepted:
            if it >= due:
                out.append(it)
                due = (it // sdp.CHECKPOINT + 1) * sdp.CHECKPOINT
        return out

    def test_checked_every_checkpoint(self, qtf, consulted, accepted):
        # the safeguard may drop the evaluation on a multiple (it drops 150
        # and 200 of this run), and the check then falls on the next
        # accepted one
        admm = sdp._Admm(_iterated_program(qtf, "value", 0.0))
        admm.run(0.0, 4 * sdp.CHECKPOINT)
        assert consulted == self._rebalanced_at(accepted.iterations)
        assert {it // sdp.CHECKPOINT for it in consulted} >= {1, 2, 3}

    def test_checked_once_per_window_past_dropped_checkpoints(self, qtf, consulted, accepted):
        # the evaluations at 100, 150 and 400 are dropped, so the check falls
        # on the next accepted one, and once in each window
        accepted.forced = {100, 150, 400}
        sdp._Admm(_iterated_program(qtf, "value", 0.0)).run(0.0, 9 * sdp.CHECKPOINT + sdp.CHECKPOINT // 2)
        assert not accepted.forced & set(accepted.iterations)
        assert consulted == self._rebalanced_at(accepted.iterations)
        assert [it // sdp.CHECKPOINT for it in consulted] == list(range(1, 10))
        assert not {100, 150, 400} & set(consulted)


class TestMaxRobustness:
    def test_indefinite_setup_value(self, solved):
        report, witness = solved
        assert report.converged
        assert report.gap <= _GAP_TOL
        assert report.lower <= QTF_ROBUSTNESS <= report.upper
        # the certified lower bound is the witness expectation itself
        assert report.lower >= 0.0

    def test_witness_matches_reported_value(self, qtf, solved):
        report, witness = solved
        s = SpanMask.of_setup(qtf, ConeId.GENERAL).project(qtf.op.matrix)
        assert abs(-hs_inner(witness.matrix, s) - report.lower) <= 1e-9

    def test_certificate_structure(self, qtf, solved):
        report, witness = solved
        cert = report.extras["certificate"]
        assert isinstance(cert, tuple) and len(cert) == 2
        assert all(isinstance(part, HermitianOperator) for part in cert)
        point = report.extras["lower_point"]
        eye = np.eye(qtf.op.layout.total_dim)
        w = witness.matrix
        w_fwd, w_bwd = (part.matrix for part in cert)
        p_fwd, p_bwd, q = point["P_fwd"], point["P_bwd"], point["Q"]
        assert np.linalg.norm(w - w_fwd - p_fwd) <= 1e-9
        assert np.linalg.norm(w - w_bwd - p_bwd) <= 1e-9
        for slack in (p_fwd, p_bwd, q):
            assert min_eigenvalue(slack) >= -1e-11
        # each direction's part lives in the orthogonal complement of its span
        p_f = setup_span_projector(qtf, ConeId.FORWARD)
        p_b = setup_span_projector(qtf, ConeId.BACKWARD)
        p_e = setup_span_projector(qtf, ConeId.GENERAL)
        assert np.linalg.norm(p_f(w_fwd)) <= 1e-9
        assert np.linalg.norm(p_b(w_bwd)) <= 1e-9
        z = eye / trace_target(qtf) - w - q
        assert np.linalg.norm(p_e(z)) <= 1e-9

    def test_witness_nonnegative_on_fixed_directions(self, qtf, solved):
        _, witness = solved
        rng = np.random.default_rng(11)
        for direction in (ConeId.FORWARD, ConeId.BACKWARD):
            for _ in range(5):
                probe = random_fixed_direction(rng, direction, qtf.op.layout)
                assert hs_inner(witness.matrix, probe.op.matrix) >= -1e-8

    def test_witness_normalization_on_general_cone(self, qtf, solved):
        _, witness = solved
        rng = np.random.default_rng(23)
        for _ in range(20):
            probe = random_general_setup(rng, qtf)
            assert hs_inner(witness.matrix, probe.op.matrix) <= 1.0 + 1e-6

    def test_restricted_value(self, solved_restricted):
        report, witness = solved_restricted
        assert report.converged
        assert report.gap <= _GAP_TOL
        assert report.lower <= QTF_ROBUSTNESS_RESTRICTED <= report.upper

    def test_restricted_witness_in_subspace(self, qtf, solved_restricted):
        _, witness = solved_restricted
        project = restricted_projector(qtf)
        assert np.linalg.norm(witness.matrix - project(witness.matrix)) <= 1e-9

    @pytest.mark.parametrize("restricted", [False, True])
    def test_invalid_setup_is_rejected(self, qtf, restricted):
        doubled = SetupOperator(HermitianOperator(qtf.op.layout, 2 * qtf.op.matrix), qtf.roles)
        with pytest.raises(ValueError, match="not a valid general-direction operator"):
            solve_max_robustness(doubled, restricted=restricted)

    def test_forward_setup_has_zero_robustness(self, qtf):
        rng = np.random.default_rng(5)
        setup = random_fixed_direction(rng, ConeId.FORWARD, qtf.op.layout)
        report, _ = solve_max_robustness(setup)
        assert report.upper <= _GAP_TOL
        assert report.lower >= 0.0

    def test_definite_mixtures_are_faithful(self, qtf):
        rng = np.random.default_rng(17)
        for _ in range(3):
            mix = definite_mixture(rng, qtf)
            report, _ = solve_max_robustness(mix)
            assert report.upper <= _GAP_TOL

    def test_monotone_under_uniform_noise(self, qtf, solved):
        base_report, _ = solved
        base = base_report.upper
        layout = qtf.op.layout
        n = layout.total_dim
        white = (trace_target(qtf) / n) * np.eye(n)
        for q in (0.25, 0.5, 0.75):
            mixed = SetupOperator(
                HermitianOperator(layout, (1 - q) * qtf.op.matrix + q * white), qtf.roles
            )
            report, _ = solve_max_robustness(mixed)
            assert report.lower <= (1 - q) * base + _GAP_TOL

    def test_iteration_budget(self, qtf, solved, solved_restricted, solved_half_definite, admm_runs):
        # checkpointed where the gap's rate says it closes: 48 and 127
        # iterations, the validate floor 44, the game cap 40 and the
        # half-definite mixture 245; with checkpoints every 50 iterations
        # only, 48, 150, 44, 40 and 250; with the noise polish repairing
        # along the identity alone, 48, 150, 44, 40 and 450; when the split
        # residuals also had to reach 1e-6, 48, 201, 44, 40 and 891; with rho
        # balanced within 10x every 25 iterations 48, 203, 44, 40 and
        # 1,694.  Anderson memory 5 took 75, 410, 127 and 177; twin subspace
        # blocks 163 and 536; before the exact dual cone 206 and 495; plain
        # ADMM 738 and 1,267
        assert solved[0].iterations <= 60
        assert solved_restricted[0].iterations <= 135
        admm_runs.clear()
        validate_witness(solved[1])
        plus, minus = game.builtin_gate_sets()
        game.compute_pmax_fixed_direction(plus + minus, "convex-hull")
        floor, cap = (run.iterations for run in admm_runs)
        assert floor <= 60
        assert cap <= 50
        report, _ = solved_half_definite
        assert report.converged
        assert report.iterations <= 280

    def test_strict_feasibility_probes(self, qtf):
        s = SpanMask.of_setup(qtf, ConeId.GENERAL).project(qtf.op.matrix)
        lam0 = 2 * trace_target(qtf) + 1
        eye_op = HermitianOperator(qtf.op.layout, np.eye(qtf.op.layout.total_dim))
        noise = lam0 * eye_op.matrix
        shifted = s + noise
        layout = qtf.op.layout
        tau = oracle_trace_and_replace(shifted, layout.dims, positions(layout, ("A_O",)))
        fwd_half = lam0 / 2 * eye_op.matrix + (tau - noise / 2)
        bwd_half = lam0 / 2 * eye_op.matrix + (shifted - tau)
        assert min_eigenvalue(noise) > 0
        assert min_eigenvalue(fwd_half) > 0
        assert min_eigenvalue(bwd_half) > 0
        w0 = eye_op.matrix / (2 * trace_target(qtf))
        assert abs(hs_inner(w0, s) - 0.5) <= 1e-12
        assert min_eigenvalue(eye_op.matrix / trace_target(qtf) - w0) > 0


@pytest.fixture
def admm_arithmetic(monkeypatch):
    """Record the program name of every splitting run, whether its cone step
    sees complex Hermitian matrices, and the dtype of its iterates."""
    seen = []

    class Recording(sdp._Admm):
        def __init__(self, prog, *args, **kwargs):
            super().__init__(prog, *args, **kwargs)
            seen.append((prog.name, self.hermitian, self.x.dtype))

    monkeypatch.setattr(sdp, "_Admm", Recording)
    return seen


@pytest.fixture
def linalg_calls(monkeypatch):
    """Record, for every np.linalg.eigh, eigvalsh and cholesky call in the
    process, whether its argument is complex."""
    seen = []

    def spy(function):
        def recorded(a, *args, **kwargs):
            seen.append(np.iscomplexobj(a))
            return function(a, *args, **kwargs)

        return recorded

    for name in ("eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
    return seen


def _restricted_witness(qtf, iterations):
    """The restricted witness program run for exactly `iterations`, without
    the pair's stop rule, then polished: the certified value and the witness."""
    dual = sdp._robustness_dual(sdp._SlotGeometry(qtf), restricted_projector(qtf))
    run = sdp._Admm(dual)
    run.run(0.0, iterations)
    value, point, _ = dual.polish(run.zs)
    return value, point["W"]


def _definite_spans(qtf):
    return {
        "forward": SpanMask.of_setup(qtf, ConeId.FORWARD),
        "backward": SpanMask.of_setup(qtf, ConeId.BACKWARD),
    }


def _game_cap(direction, u=np.eye(32)):
    """The value program of `game --pmax-sdp` for one strategy class, its
    payoff conjugated by u."""
    plus, minus = game.builtin_gate_sets()
    m_plus, m_minus = game.success_effects(plus + minus)
    cones = {"forward-only": ("forward",), "backward-only": ("backward",)}.get(direction, ("forward", "backward"))
    spans = {
        name: SpanMask(game.game_layout(), game.game_slots(), (), ("C_O",), ConeId[name.upper()])
        for name in cones
    }
    target = u @ (m_plus.matrix + m_minus.matrix) @ u.conj().T
    return sdp.cone_value_programs(target, spans)[1]


def _iterated_program(qtf, program, phase):
    """An iterated program on qtf conjugated by a phase on its last wire:
    the witness program, full or restricted, or the definite value program;
    or the game cap's value program, its payoff conjugated the same way.
    At phase 0 the conjugation is the real identity, so the data stay real."""
    u = np.kron(np.eye(16), np.diag([1.0, np.exp(1j * phase) if phase else 1.0]))
    if program == "game-cap":
        return _game_cap("convex-hull", u)
    s = u @ SpanMask.of_setup(qtf, ConeId.GENERAL).project(qtf.op.matrix) @ u.conj().T
    if program == "value":
        return sdp.cone_value_programs(s, _definite_spans(qtf))[1]
    setup = SetupOperator(HermitianOperator(qtf.op.layout, s), qtf.roles)
    restricted = program == "restricted-witness"
    subspace = restricted_projector(setup) if restricted else None
    return sdp._robustness_dual(sdp._SlotGeometry(setup), subspace)


class TestExactPositivity:
    def test_polished_slacks_are_exactly_positive_definite(self, solved):
        # least eigenvalues about 1.9e-7, 1.9e-7 and 8.4e-9 in floating point
        point = solved[0].extras["lower_point"]
        for name in ("P_fwd", "P_bwd", "Q"):
            assert exactly_positive_definite(point[name]), name

    def test_rounding_level_negative_eigenvalue_is_not_positive_definite(self):
        # G G^T is exactly positive semidefinite and singular, so shifting its
        # diagonal by +-2^-44 (exact at these magnitudes) puts its least
        # eigenvalue at exactly +-2^-44, about the size of eigvalsh's error here
        g = np.random.default_rng(0).integers(-3, 4, size=(32, 31)).astype(float)
        gram = g @ g.T
        shift = 2.0 ** -44 * np.eye(32)
        for sign, definite in ((1.0, True), (-1.0, False)):
            block = gram + sign * shift
            assert np.array_equal(block - gram, sign * shift)
            assert exactly_positive_definite(block) is definite


class TestArithmetic:
    def test_real_and_complex_paths_agree(self, qtf, admm_arithmetic):
        real_report, _ = solve_max_robustness(qtf)
        assert {hermitian for _, hermitian, _ in admm_arithmetic} == {False}
        complex_at = len(admm_arithmetic)
        complex_report, _ = solve_max_robustness(rotated(qtf))
        assert {hermitian for _, hermitian, _ in admm_arithmetic[complex_at:]} == {True}
        # both run on real images
        assert {dtype for _, _, dtype in admm_arithmetic} == {np.dtype(float)}
        assert real_report.gap <= _GAP_TOL and complex_report.gap <= _GAP_TOL
        assert abs(real_report.lower - complex_report.lower) <= 1e-6
        assert abs(real_report.upper - complex_report.upper) <= 1e-6

    def test_real_setups_decompose_real_matrices(self, qtf, linalg_calls):
        # the membership check, the runs and the polishes of a real setup,
        # its witness check with the certificate's residuals and the game cap
        # factor only real matrices, anywhere in the process; a complex
        # setup's do not
        check_setup(qtf)
        _, witness_op = solve_max_robustness(qtf)
        solve_max_robustness(qtf, restricted=True)
        assert validate_witness(witness_op).certificate_ok
        plus, minus = game.builtin_gate_sets()
        game.compute_pmax_fixed_direction(plus + minus, "convex-hull")
        assert linalg_calls and not any(linalg_calls)
        real_calls = len(linalg_calls)
        solve_max_robustness(rotated(qtf))
        assert any(linalg_calls[real_calls:])

    @pytest.mark.parametrize("phase", [0.0, 0.4])
    @pytest.mark.parametrize("program", ["witness", "restricted-witness", "value", "game-cap"])
    def test_affine_projection_meets_every_row(self, qtf, program, phase):
        # every real stack is the real image of a stack of Hermitian
        # matrices, and the projection is checked on those matrices
        prog = _iterated_program(qtf, program, phase)
        assert prog.matrix_rows
        admm = sdp._Admm(prog)
        assert admm.hermitian is (phase != 0.0)
        rng = np.random.default_rng(5)
        shape = admm.x.shape
        v, w = (rng.normal(size=shape) for _ in range(2))
        x = admm._project_affine(v)
        expected = _projection_by_coordinates(prog, admm.names, _matrices(admm, v))
        assert np.max(np.abs(_matrices(admm, x) - expected)) <= 1e-12
        # each row on its support
        residuals = sdp._feasibility_residuals(prog, admm._blocks(x))
        for name, res in residuals.items():
            if name.startswith("row:"):
                assert res <= 1e-10, name
        assert np.linalg.norm(admm._project_affine(x) - x) <= 1e-10 * np.linalg.norm(x)
        # orthogonal: v - P(v) is normal to every direction inside the set
        direction = admm._project_affine(w) - x
        inner = np.vdot(v - x, direction).real
        assert abs(inner) <= 1e-10 * np.linalg.norm(v) * np.linalg.norm(direction)

    @pytest.mark.parametrize("phase", [0.0, 0.4])
    @pytest.mark.parametrize("program", ["witness", "game-cap"])
    def test_correction_forms_agree(self, qtf, monkeypatch, program, phase):
        # the minority coordinates corrected through their dense basis rows
        # and through the change of basis of the whole stack
        prog = _iterated_program(qtf, program, phase)
        runs = {}
        for form, share in (("rows", 1.0), ("change-of-basis", 0.0)):
            monkeypatch.setattr(sdp, "DENSE_SHARE", share)
            runs[form] = sdp._Admm(prog)
        assert runs["rows"]._basis is not None and runs["change-of-basis"]._basis is None
        admm = runs["rows"]
        assert admm.hermitian is (phase != 0.0)
        rng = np.random.default_rng(11)
        v = rng.normal(size=admm.x.shape)  # the real image of a Hermitian stack
        x = {form: _matrices(admm, run._project_affine(v)) for form, run in runs.items()}
        assert np.max(np.abs(x["rows"] - x["change-of-basis"])) <= 1e-12
        for form, point in x.items():
            residuals = sdp._feasibility_residuals(prog, dict(zip(admm.names, point)))
            for name, res in residuals.items():
                if name.startswith("row:"):
                    assert res <= 1e-12, (form, name)

    @pytest.mark.parametrize("program", ["convex-hull", "forward-only", "backward-only", "witness",
                                         "restricted-witness", "validate-floor"])
    def test_correction_form_follows_the_size(self, qtf, program):
        # the game caps correct 238 and 169 of their 1,024 coordinates
        # through the change of basis and never hold an m x n^2 array; the
        # witness programs (63) and the validate floor (64) keep the rows
        if program in game.PMAX_DIRECTIONS:
            prog = _game_cap(program)
        elif program == "validate-floor":
            prog = sdp.cone_value_programs(-qtf.op.matrix, witness._span_masks())[1]
        else:
            prog = _iterated_program(qtf, program, 0.0)
        tracemalloc.start()
        try:
            admm = sdp._Admm(prog)
            for _ in range(60):
                admm.step()
            admm.split
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m, n = len(admm._minority), prog.layout.total_dim
        assert m == {"convex-hull": 238, "forward-only": 169, "backward-only": 169,
                     "validate-floor": 64}.get(program, 63)
        cap = program in game.PMAX_DIRECTIONS
        assert (admm._basis is None) == cap
        if cap:
            assert peak < m * n * n * 8  # bytes of E in float64

    @pytest.mark.parametrize("program", ["witness", "restricted-witness", "value", "game-cap"])
    def test_row_classes_match_unique_columns(self, qtf, program):
        prog = _iterated_program(qtf, program, 0.0)
        every = np.ones(prog.layout.total_dim**2, dtype=bool)
        held = np.array([every if row.support is None else row.support.ravel() for row in prog.matrix_rows])
        patterns, labels = sdp._row_classes(held)
        expected, inverse = np.unique(held.T, axis=0, return_inverse=True)
        assert len(expected) > 1
        assert np.array_equal(patterns, expected)
        assert np.array_equal(labels, inverse.ravel())


class TestRealImage:
    """The solver's stacks hold each Hermitian block H as Re H + Im H."""

    def test_round_trip(self):
        # exact where Re H +- Im H round to nothing (entries on a dyadic
        # grid); elsewhere each entry comes back to within its rounding
        rng = np.random.default_rng(41)
        stack = np.stack([random_hermitian(rng, 8) for _ in range(3)])
        dyadic = np.round(stack * 64) / 64
        image = sdp._real_image(dyadic)
        assert image.dtype == float
        assert np.array_equal(sdp._hermitian(image), dyadic)
        back = sdp._hermitian(sdp._real_image(stack))
        assert np.array_equal(back, np.swapaxes(back.conj(), -1, -2))
        eps = np.finfo(float).eps
        assert np.all(np.abs(back - stack) <= 2 * eps * (np.abs(stack.real) + np.abs(stack.imag)))
        # a real symmetric matrix is its own image
        assert np.array_equal(sdp._real_image(stack.real), stack.real)

    def test_isometry(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            a, b = random_hermitian(rng, 16), random_hermitian(rng, 16)
            inner = np.vdot(sdp._real_image(a), sdp._real_image(b))
            assert abs(inner - np.trace(a.conj().T @ b).real) <= 1e-12

    @pytest.mark.parametrize("program", ["witness", "restricted-witness", "value", "game-cap"])
    def test_affine_step_commutes_with_the_image(self, qtf, program):
        prog = _iterated_program(qtf, program, 0.4)
        admm = sdp._Admm(prog)
        assert admm.hermitian
        rng = np.random.default_rng(47)
        v = np.stack([random_hermitian(rng, prog.layout.total_dim) for _ in admm.names])
        expected = sdp._real_image(_projection_by_coordinates(prog, admm.names, v))
        assert np.max(np.abs(admm._project_affine(sdp._real_image(v)) - expected)) <= 1e-12


def _projection_by_coordinates(prog, names, v):
    """The affine projection of a (k, n, n) stack computed one product-basis
    coordinate at a time: the least-squares correction of the coordinate's
    k values onto the rows that hold there."""
    k = len(names)
    coords = basis_coords(prog.layout, v.astype(complex))
    flat = coords.reshape(k, -1).copy()
    a = np.array([[row.coeffs.get(name, 0.0) for name in names] for row in prog.matrix_rows])
    rhs = basis_coords(prog.layout, np.array([row.rhs for row in prog.matrix_rows]))
    rhs = rhs.reshape(len(a), -1)
    every = np.ones(flat.shape[1], dtype=bool)
    held = np.array([every if row.support is None else row.support.ravel() for row in prog.matrix_rows])
    for j in range(flat.shape[1]):
        a_j = a[held[:, j]]
        if len(a_j):
            excess = a_j @ flat[:, j] - rhs[held[:, j], j]
            flat[:, j] -= a_j.T @ np.linalg.solve(a_j @ a_j.T, excess)
    return basis_matrices(prog.layout, flat.reshape(coords.shape))


def _flipped(setup):
    """The setup with the roles of its slot's input and output exchanged."""
    swap = {ROLE_SLOT_INPUT: ROLE_SLOT_OUTPUT, ROLE_SLOT_OUTPUT: ROLE_SLOT_INPUT}
    return SetupOperator(setup.op, {label: swap.get(role, role) for label, role in setup.roles.items()})


def _half_random(qtf, seed):
    """qtf mixed half and half with a random element of the general cone."""
    general = random_general_setup(np.random.default_rng(seed), qtf)
    mixed = (qtf.op.matrix + general.op.matrix) / 2
    return SetupOperator(HermitianOperator(qtf.op.layout, mixed), qtf.roles)


def _closed_form(restricted):
    return QTF_ROBUSTNESS_RESTRICTED if restricted else QTF_ROBUSTNESS


def _same_robustness(a, b):
    # both brackets hold the optimum, so their lower bounds differ by at
    # most the wider gap
    assert a.converged and b.converged
    assert abs(a.lower - b.lower) <= max(a.gap, b.gap) + 1e-6


class TestInvariance:
    def test_complex_conjugation(self, qtf, solved_rotated):
        setup = rotated(qtf)
        conjugated = SetupOperator(
            HermitianOperator(setup.op.layout, setup.op.matrix.conj()), setup.roles
        )
        report, _ = solve_max_robustness(conjugated)
        _same_robustness(report, solved_rotated[0])
        assert report.lower <= QTF_ROBUSTNESS <= report.upper

    def test_global_output_wires_reordered(self, qtf, solved, solved_restricted):
        order = ("A_I", "A_O", "B_it", "B_oc", "B_ot")
        swapped = SetupOperator(permute_factors(qtf.op, order), qtf.roles)
        assert swapped.op.layout.labels == order
        report, _ = solve_max_robustness(swapped)
        _same_robustness(report, solved[0])
        assert report.lower <= QTF_ROBUSTNESS <= report.upper
        # the restricted form pins B_it and traces B_ot by label, wherever
        # the layout puts them
        report, _ = solve_max_robustness(swapped, restricted=True)
        _same_robustness(report, solved_restricted[0])
        assert report.lower <= QTF_ROBUSTNESS_RESTRICTED <= report.upper

    @pytest.mark.parametrize("case", sorted(_SOLVED))
    def test_every_solved_bracket_contains_the_closed_form(self, request, case):
        report, _ = request.getfixturevalue(_SOLVED[case])
        assert report.converged
        assert report.lower <= _closed_form(case.startswith("restricted")) <= report.upper

    @pytest.mark.parametrize("restricted", [False, True])
    def test_local_unitaries_on_the_global_wires(self, qtf, restricted):
        # unitaries on the global wires keep every span and the PSD cone, so
        # the full value stays.  The restricted witness prepares |0> on B_it,
        # so there the B_it unitary is diagonal: it keeps |0><0|
        rng = np.random.default_rng(29)
        u_it = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2))) if restricted else random_unitary(rng, 2)
        u = np.kron(np.eye(4), reduce(np.kron, [u_it, random_unitary(rng, 2), random_unitary(rng, 2)]))
        setup = SetupOperator(HermitianOperator(qtf.op.layout, u @ qtf.op.matrix @ u.conj().T), qtf.roles)
        report, _ = solve_max_robustness(setup, restricted=restricted)
        assert report.converged
        assert report.lower <= _closed_form(restricted) <= report.upper

    @pytest.mark.parametrize("wires", [("A_I",), ("A_O",), ("A_I", "A_O")], ids="+".join)
    def test_local_unitaries_on_the_slot_wires(self, qtf, wires, admm_arithmetic):
        # every span is a trace-and-replace condition on wires, so a unitary
        # on a slot wire maps every cone onto itself, and the restricted form
        # pins and traces global wires only: both values stay, on programs
        # whose cone step sees complex matrices
        rng = np.random.default_rng(31)
        u = reduce(np.kron, [random_unitary(rng, d) if label in wires else np.eye(d)
                             for label, d in qtf.op.layout.factors])
        setup = SetupOperator(HermitianOperator(qtf.op.layout, u @ qtf.op.matrix @ u.conj().T), qtf.roles)
        for restricted in (False, True):
            report, _ = solve_max_robustness(setup, restricted=restricted)
            assert report.converged
            assert report.lower <= _closed_form(restricted) <= report.upper
        assert admm_arithmetic and all(hermitian for _, hermitian, _ in admm_arithmetic)

    def test_every_witness_bounds_every_certified_upper(self, qtf, request):
        # the witness program's feasible set depends on the layout and its
        # spans, never on S, so a witness certified on one setup bounds the
        # robustness of every setup on the qtf layout from below, and no
        # certified upper bound may fall under it.  A restricted witness is
        # feasible for the full program as well, not the other way round
        setups = {
            "solved": (qtf, False),
            "solved_restricted": (qtf, True),
            "solved_rotated": (rotated(qtf), False),
            "solved_restricted_rotated": (rotated(qtf), True),
            "solved_half_definite": (half_definite(np.random.default_rng(2), qtf), False),
            "solved_definite_mixture": (definite_mixture(np.random.default_rng(17), qtf), False),
        }
        general = SpanMask.of_setup(qtf, ConeId.GENERAL)
        s = {name: general.project(setup.op.matrix) for name, (setup, _) in setups.items()}
        solved = {name: request.getfixturevalue(name) for name in setups}
        for i, (own, witness) in solved.items():
            assert abs(-hs_inner(witness.matrix, s[i]) - own.lower) <= 1e-9, i
            for j, (report, _) in solved.items():
                if setups[j][1] and not setups[i][1]:
                    continue
                assert -hs_inner(witness.matrix, s[j]) <= report.upper + 1e-9, (i, j)

    def test_robustness_is_convex(self, solved, solved_half_definite, solved_definite_part):
        # noises that split S and D split S/2 + D/2 at the mean trace, so
        # R(S/2 + D/2) <= R(S)/2 + R(D)/2, and no certified lower bound of
        # the mixture may exceed the mean of the parts' certified upper bounds
        mixture, s, d = (report for report, _ in (solved_half_definite, solved, solved_definite_part))
        assert mixture.lower <= 0.5 * s.upper + 0.5 * d.upper + 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bounds_ordered_on_random_setups(self, qtf, seed):
        report, _ = solve_max_robustness(_half_random(qtf, seed), max_iter=300)
        assert 0.0 <= report.lower <= report.upper + 1e-6

    def test_flip_exchanges_the_direction_spans(self, qtf):
        flipped = _flipped(qtf)
        for cone, image in ((ConeId.FORWARD, ConeId.BACKWARD), (ConeId.BACKWARD, ConeId.FORWARD)):
            assert np.array_equal(SpanMask.of_setup(flipped, cone).keep, SpanMask.of_setup(qtf, image).keep)

    @pytest.mark.parametrize("case", ["qtf", "restricted"])
    def test_flip_keeps_the_pair_and_swaps_the_certificate(self, qtf, request, case):
        # exchanging the slot's input and output exchanges the forward and
        # backward spans, so the pair is the same program with its two
        # directions swapped: the same bounds and witness, W_fwd and W_bwd
        # trading places.  The restricted form pins only the global wires
        # B_it and B_ot, so it is invariant too
        report, witness = request.getfixturevalue(_SOLVED[case])
        flipped, flipped_witness = solve_max_robustness(_flipped(qtf), restricted=case == "restricted")
        assert abs(flipped.lower - report.lower) <= 1e-12
        assert abs(flipped.upper - report.upper) <= 1e-12
        assert flipped.lower <= _closed_form(case == "restricted") <= flipped.upper
        assert np.max(np.abs(flipped_witness.matrix - witness.matrix)) <= 1e-12
        for mine, theirs in zip(flipped.extras["certificate"], report.extras["certificate"][::-1]):
            assert np.max(np.abs(mine.matrix - theirs.matrix)) <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2])
    def test_flip_on_random_setups(self, qtf, seed):
        # on dense complex data the two runs part by rounding, so the values
        # agree to the certified gap; seed 0 stops unconverged at 300
        # iterations both ways
        setup = _half_random(qtf, seed)
        report, _ = solve_max_robustness(setup, max_iter=300)
        flipped, _ = solve_max_robustness(_flipped(setup), max_iter=300)
        _same_robustness(flipped, report)


_PAIR_DRIVERS = {
    "full": lambda qtf: solve_max_robustness(qtf)[0],
    "restricted": lambda qtf: solve_max_robustness(qtf, restricted=True)[0],
    "cone-value": lambda qtf: solve_cone_value(
        SpanMask.of_setup(qtf, ConeId.GENERAL).project(qtf.op.matrix) / trace_target(qtf),
        _definite_spans(qtf),
    ),
}


class TestOneRunPerPair:
    @pytest.mark.parametrize("driver", sorted(_PAIR_DRIVERS))
    def test_one_splitting_run_per_pair(self, qtf, admm_runs, driver):
        report = _PAIR_DRIVERS[driver](qtf)
        assert report.converged and report.gap <= _GAP_TOL
        assert report.lower <= report.upper
        assert report.gap == report.upper - report.lower
        assert len(admm_runs) == 1
        assert admm_runs[0].prog.sense == "max"
        assert report.iterations == admm_runs[0].iterations > 0

    @pytest.mark.parametrize("case", sorted(_SOLVED))
    def test_min_side_point_is_exactly_feasible(self, qtf, request, case):
        setup = rotated(qtf) if case.endswith("rotated") else qtf
        report, _ = request.getfixturevalue(_SOLVED[case])
        if case.startswith("restricted"):
            # the restricted min side is the noise program of the reduced setup
            setup = sdp.restricted_reduction(setup)[0]
        prog = sdp._robustness_primal(sdp._SlotGeometry(setup))
        point = report.extras["upper_point"]
        assert set(point) == {blk.name for blk in prog.blocks}
        for row in prog.matrix_rows:
            res = sum(coeff * point[name] for name, coeff in row.coeffs.items()) - row.rhs
            if row.support is not None:
                # a masked row holds on its support only
                res = basis_coords(prog.layout, res)[row.support]
            assert np.linalg.norm(res) <= 1e-9, row.name
        for blk in prog.blocks:
            m = point[blk.name]
            assert np.linalg.norm(m - m.conj().T) <= 1e-12, blk.name
            if blk.kind == "psd":
                assert np.linalg.eigvalsh(m)[0] >= 0.0, blk.name
            else:
                assert np.linalg.norm(m - blk.project(m)) <= 1e-9, blk.name
        upper = np.trace(point["T"]).real / trace_target(setup)
        assert report.upper == pytest.approx(upper, abs=1e-12)
        assert report.lower <= report.upper <= report.lower + _GAP_TOL


class TestPositivityRepair:
    @pytest.mark.parametrize("side", ["noise", "noise-F", "noise-B", "witness"])
    def test_polish_clears_a_rounding_level_eigenvalue(self, qtf, solved, side):
        # the blocks a polish repairs are shifted along the identity so that
        # their least eigenvalue lies within 1e-15 of 0: the noise side's B
        # and T together (every row still met), its F alone or its B alone
        # (the polish sets T = F + B - S, so T follows), the witness side's W
        # (its P_fwd and P_bwd follow, Q moves up).  A repair relative to that
        # eigenvalue alone is lost in the rounding of the diagonal: it left a
        # block with a negative eigvalsh (down to -2e-16) at 25 (noise side)
        # and 17 (witness side) of these 101 shifts.
        geom = sdp._SlotGeometry(qtf)
        if side.startswith("noise"):
            moved = {"noise": ("T", "B"), "noise-F": ("F",), "noise-B": ("B",)}[side]
            prog, point = sdp._robustness_primal(geom), solved[0].extras["upper_point"]
            least = np.linalg.eigvalsh(point[moved[-1]])[0]
        else:
            prog, point, moved = sdp._robustness_dual(geom, None), solved[0].extras["lower_point"], ("W",)
            least = min(np.linalg.eigvalsh(point[name])[0] for name in ("P_fwd", "P_bwd"))
        eye = np.eye(geom.n)
        for extra in np.linspace(-1e-15, 1e-15, 101):
            zs = {name: m - (least + extra) * eye if name in moved else m for name, m in point.items()}
            _, polished, _ = prog.polish(zs)
            for blk in prog.blocks:
                if blk.kind == "psd":
                    assert np.linalg.eigvalsh(polished[blk.name])[0] >= 0.0, (blk.name, extra)

    @pytest.mark.parametrize("case", ["full", "reduced"])
    def test_general_span_keeps_what_either_direction_keeps(self, qtf, case):
        # the noise polish splits its repair of T by coordinates, F taking
        # those the forward span keeps and B the rest; B's share lies in the
        # backward span because the general span keeps no other coordinate
        setup = qtf if case == "full" else sdp.restricted_reduction(qtf)[0]
        geom = sdp._SlotGeometry(setup)
        assert np.array_equal(geom.general.keep, geom.forward.keep | geom.backward.keep)

    def test_noise_polish_reports_both_repairs(self, qtf, solved):
        # the value is the trace of F + B - S from the projected F and B, plus
        # the trace the negative parts added and n times the identity bump
        geom = sdp._SlotGeometry(qtf)
        prog, point = sdp._robustness_primal(geom), solved[0].extras["upper_point"]
        g = np.random.default_rng(5).standard_normal((geom.n, geom.n))
        dent = 1e-3 * g @ g.T / geom.n
        zs = {**point, "F": point["F"] - dent, "B": point["B"] - dent}
        value, _, extras = prog.polish(zs)
        start = np.trace(geom.forward.project(zs["F"]) + geom.backward.project(zs["B"]) - geom.s_mat).real
        added, bump = extras["negative_part_trace"], extras["positivity_bump"]
        assert added > 0.0 and bump > 0.0
        assert value * geom.dd == pytest.approx(start + added + geom.n * bump, abs=1e-12)

    def test_noise_polish_on_a_complex_definite_mixture(self, qtf, solved_definite_mixture):
        # the noise polish sets T = F + B - S from the projected and repaired
        # F and B, so every row holds to rounding on complex data too, and the
        # bump along the identity leaves T, F and B positive semidefinite
        mix = definite_mixture(np.random.default_rng(17), qtf)
        assert sdp._Admm(sdp._robustness_dual(sdp._SlotGeometry(mix), None)).hermitian
        report, _ = solved_definite_mixture
        rows = {k: v for k, v in report.residuals.items() if k.startswith("primal:row:")}
        assert len(rows) == 4
        assert max(rows.values()) <= 1e-12, rows
        for name in ("T", "F", "B"):
            assert np.linalg.eigvalsh(report.extras["upper_point"][name])[0] >= 0.0, name


def _embed(x, setup):
    """I_B_it (x) X (x) I_B_ot/2 in the setup's layout order, for X on the
    reduced layout, where B_it and B_ot have dimension one."""
    layout = setup.op.layout
    kept = SystemLayout(tuple(f for f in layout.factors if f[0] not in {"B_it", "B_ot"}))
    core = HermitianOperator(kept, x)
    pinned = HermitianOperator(qubits("B_it"), np.eye(2))
    traced = HermitianOperator(qubits("B_ot"), np.eye(2) / 2)
    return permute_factors(tensor_product([core, pinned, traced]), layout.labels).matrix


class TestRestrictedReduction:
    @pytest.mark.parametrize("case", ["restricted", "restricted-rotated"])
    def test_lifted_noise_is_feasible_at_full_size(self, qtf, request, case):
        setup = rotated(qtf) if case.endswith("rotated") else qtf
        report, _ = request.getfixturevalue(_SOLVED[case])
        point = {name: _embed(m, setup) for name, m in report.extras["upper_point"].items()}
        t, f, b = point["T"], point["F"], point["B"]
        for m, cone in ((t, ConeId.GENERAL), (f, ConeId.FORWARD), (b, ConeId.BACKWARD)):
            assert np.linalg.norm(m - SpanMask.of_setup(setup, cone).project(m)) <= 1e-9, cone
            assert min_eigenvalue(m) >= 0.0, cone
        # S + T splits into F + B up to a part the restricted witness cannot see
        shift = f + b - t - setup.op.matrix
        assert np.linalg.norm(restricted_projector(setup)(shift)) <= 1e-9
        assert np.trace(t).real / trace_target(setup) == pytest.approx(report.upper, abs=1e-12)

    def test_target_output_may_be_the_only_global_output(self):
        # the reduced setup keeps B_ot at dimension one, so it still has a
        # global output wire
        rng = np.random.default_rng(5)
        pre, post = random_channel(rng, 2, 4), random_channel(rng, 4, 2)
        labels = ("A_I", "A_O", "B_it", "B_ot")
        setup = sequential_setup(pre, post, 2, ConeId.FORWARD, labels=labels)
        reduced = sdp.restricted_reduction(setup)[0]
        assert reduced.op.layout.factors == (("A_I", 2), ("A_O", 2), ("B_it", 1), ("B_ot", 1))
        report, _ = solve_max_robustness(setup, restricted=True)
        assert report.converged
        assert report.upper <= _GAP_TOL

    @pytest.mark.parametrize("d_ot", [2, 3])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_reduction_of_the_adjoint_is_d_ot_times_the_identity(self, qtf, kind, d_ot):
        # E* E = Tr(I_B_ot) = d_ot on the reduced layout, exactly: E writes Y
        # into d_ot blocks and E* adds them
        setup = qtf if d_ot == 2 else qutrit_target_output(qtf)
        reduced, restrict, adjoint, _ = sdp.restricted_reduction(setup)
        n = reduced.op.layout.total_dim
        rng = np.random.default_rng(11)
        for _ in range(5):
            y = random_hermitian(rng, n) if kind == "complex" else rng.standard_normal((n, n))
            assert adjoint(y).dtype == y.dtype
            assert np.array_equal(restrict(adjoint(y)), d_ot * y)

    @pytest.mark.parametrize("d_ot", [2, 3])
    def test_projector_is_orthogonal_and_keeps_p0(self, qtf, d_ot):
        setup = qtf if d_ot == 2 else qutrit_target_output(qtf)
        project, n = restricted_projector(setup), setup.op.layout.total_dim
        rng = np.random.default_rng(12)
        for _ in range(5):
            a, b = random_hermitian(rng, n), rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for x in (a, b):
                assert np.max(np.abs(project(project(x)) - project(x))) <= 1e-15
            assert np.vdot(a, project(b)) == pytest.approx(np.vdot(project(a), b), abs=1e-12)
        # the identity goes to |0><0| on B_it, the identity on every other wire
        p0 = np.kron(np.eye(4), np.kron(np.diag([1.0, 0.0]), np.eye(n // 8)))
        assert np.array_equal(project(np.eye(n)), p0)

    @pytest.mark.parametrize("d_ot", [2, 3])
    def test_projector_keeps_real_matrices_real(self, qtf, d_ot):
        # what keeps a real program real (`sdp.Block`): a real matrix goes
        # to the real part of its complex image, exactly
        setup = qtf if d_ot == 2 else qutrit_target_output(qtf)
        project, n = restricted_projector(setup), setup.op.layout.total_dim
        rng = np.random.default_rng(14)
        for _ in range(5):
            m = rng.standard_normal((n, n))
            got, via_complex = project(m), project(m.astype(complex))
            assert got.dtype == np.float64
            assert not np.any(via_complex.imag)
            assert np.array_equal(got, via_complex.real)

    @pytest.mark.parametrize("order", ["layout", "reordered", "qutrit-target-output"])
    def test_projector_matches_the_pin_and_trace_form_bit_for_bit(self, qtf, order):
        # the restricted form finds B_it and B_ot by label, so a reordered
        # layout projects the same way; sign bits of zeros included, and with
        # a qutrit B_ot too
        setup = qutrit_target_output(qtf) if order == "qutrit-target-output" else qtf
        if order == "reordered":
            labels = ("B_ot", "A_O", "B_oc", "B_it", "A_I")
            setup = SetupOperator(permute_factors(qtf.op, labels), qtf.roles)
        project, reference = restricted_projector(setup), pin_and_trace_projector(setup)
        n = setup.op.layout.total_dim
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = rng.standard_normal((n, n))
            c = m + 1j * rng.standard_normal((n, n))
            for x in (m, c, m + m.T, c + c.conj().T):
                got, want = project(x), reference(x)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


class TestConeValue:
    def test_spans_must_share_layout_and_trace(self, qtf):
        layout, slots = qtf.op.layout, [SlotSpec(("A_I",), ("A_O",))]
        full = SpanMask(layout, slots, ("B_it",), ("B_ot", "B_oc"), ConeId.FORWARD)
        # B_it as a global output: same layout, trace 2 instead of 4
        outputs = SpanMask(layout, slots, (), ("B_it", "B_ot", "B_oc"), ConeId.BACKWARD)
        assert (full.trace_target, outputs.trace_target) == (4.0, 2.0)
        target = np.eye(layout.total_dim)
        with pytest.raises(ValueError, match="share one layout and one trace"):
            sdp.cone_value_programs(target, {"forward": full, "backward": outputs})
        other = SpanMask.of_setup(qutrit_target_output(qtf), ConeId.BACKWARD)
        with pytest.raises(ValueError, match="share one layout and one trace"):
            sdp.cone_value_programs(target, {"forward": full, "backward": other})

    def test_general_cone_self_overlap_is_purity(self, qtf):
        # the maximizer of <S/dd, .> over the general cone is S itself, with
        # value Tr(S^2)/dd = dd for a rank-one setup of trace dd
        geom_spans = {"general": SpanMask.of_setup(qtf, ConeId.GENERAL)}
        s = geom_spans["general"].project(qtf.op.matrix)
        report = solve_cone_value(s / trace_target(qtf), geom_spans)
        assert report.converged
        assert abs(report.upper - trace_target(qtf)) <= 1e-4
        assert abs(report.lower - trace_target(qtf)) <= 1e-4

    def test_definite_value_stays_below_general(self, qtf):
        s = SpanMask.of_setup(qtf, ConeId.GENERAL).project(qtf.op.matrix)
        spans = _definite_spans(qtf)
        report = solve_cone_value(s / trace_target(qtf), spans)
        assert report.converged
        assert report.upper < trace_target(qtf) - 0.5
        parts = {name: report.extras["lower_point"][name] for name in spans}
        total = sum(np.trace(part).real for part in parts.values())
        assert abs(total - trace_target(qtf)) <= 1e-9
        for name, part in parts.items():
            assert min_eigenvalue(part) >= -1e-11
            projector = spans[name].project
            assert np.linalg.norm(part - projector(part)) <= 1e-9


class TestStopRule:
    def test_flat_gap_exits_unconverged(self, qtf, monkeypatch):
        # the min side's polish adds 0.05 to its bound, so the certified gap
        # is 5.0e-2 at 1,000 iterations and at 20,000 (measured with the
        # stall exit switched off)
        monkeypatch.setattr(sdp, "_robustness_primal", shifted_robustness_primal(0.05))
        report, _ = solve_max_robustness(qtf)
        assert not report.converged
        assert report.gap > _GAP_TOL
        assert report.iterations <= 2000
        assert report.lower <= report.upper

    def test_stop_waits_on_the_gap_only(self, solved_restricted):
        # the restricted pair certifies its gap at 127 iterations, while its
        # split residuals are still 2.9e-5 and 2.0e-5
        report, _ = solved_restricted
        assert report.converged and report.gap <= sdp.GAP_TOL
        split = (report.residuals["dual:split:primal"], report.residuals["dual:split:dual"])
        assert max(split) > sdp.RESIDUAL_TOL

    @pytest.fixture
    def polished(self, monkeypatch, admm_runs):
        """The iterations at which a robustness pair polishes its noise side,
        whose value gains shift(k) at the k-th polish."""
        spy = SimpleNamespace(iterations=[], shift=lambda k: 0.0)
        build = sdp._robustness_primal

        def spying(geom):
            prog = build(geom)

            def polish(zs):
                spy.iterations.append(admm_runs[-1].iterations)
                value, point, extras = prog.polish(zs)
                return value + spy.shift(len(spy.iterations)), point, extras

            return dataclasses.replace(prog, polish=polish)

        monkeypatch.setattr(sdp, "_robustness_primal", spying)
        return spy

    def test_checkpoints_follow_a_falling_gap(self, qtf, polished):
        # 50, 100, 150, then 192, 220 and 245 on the rate of the last two
        report, _ = solve_max_robustness(half_definite(np.random.default_rng(2), qtf))
        assert report.converged and polished.iterations[-1] == report.iterations
        steps = np.diff(polished.iterations)
        assert all(sdp.CHECKPOINT // 5 <= step <= sdp.CHECKPOINT for step in steps)
        assert any(it % sdp.CHECKPOINT for it in polished.iterations)

    def test_rising_gap_keeps_the_grid(self, qtf, polished):
        # the residuals first reach RESIDUAL_TOL at 48, then the grid
        polished.shift = lambda k: 0.05 * k
        report, _ = solve_max_robustness(qtf, max_iter=300)
        assert not report.converged
        assert polished.iterations == [48, *range(50, 301, sdp.CHECKPOINT)]

    @pytest.mark.parametrize("shift", [0.0, -1.0])
    def test_closed_gap_keeps_the_grid(self, qtf, polished, shift):
        # a stop rule that never holds runs on past a gap <= GAP_TOL (shift
        # 0) or <= 0 (shift -1), where the gap's rate has no log
        polished.shift = lambda k: shift
        geom = sdp._SlotGeometry(qtf)
        primal, dual = sdp._robustness_primal(geom), sdp._robustness_dual(geom, None)
        report = sdp._solve_pair(primal, dual, 200, done=lambda upper, lower: False)
        assert not report.converged and report.iterations == 200
        assert polished.iterations == [48, *range(50, 201, sdp.CHECKPOINT)]

    @pytest.mark.parametrize("best, expected", [
        ([], 50),
        ([(50, 1e-2)], 100),
        # a flat least gap (a rising gap keeps its least), or a closed one:
        # the next multiple
        ([(50, 1e-2), (100, 1e-2)], 150),
        ([(50, 1e-2), (60, 1e-5)], 100),
        ([(50, 0.0), (100, 0.0)], 150),
        ([(50, -1.0), (100, -1.0)], 150),
        # halving every 50 iterations: 1e-4 is 50 ahead of 2e-4, 100 of 4e-4
        ([(100, 4e-4), (150, 2e-4)], 200),
        ([(50, 8e-4), (100, 4e-4)], 150),
        # falling 20-fold over 50: 5-fold in 50 ln 5 / ln 20 = 26.9
        ([(50, 1e-2), (100, 5e-4)], 127),
        # kept CHECKPOINT // 5 ahead when the close is nearer
        ([(50, 1e-2), (100, 1.01e-4)], 110),
        ([(48, 1e-2), (50, 1.5e-4)], 60),
    ])
    def test_next_checkpoint(self, best, expected):
        assert sdp._next_checkpoint(best) == expected

    def test_safeguard_holds_on_a_degenerate_floor(self, qtf):
        # the restricted witness of exactly 201 iterations, polished,
        # certifies 0.1715724353; its definite floor is 2.9e-7, next to 0.
        # It is built without the pair's stop rule, which would move it: the
        # witness of the 127-iteration stop has a floor of 1.7e-5, where s
        # ends at 3.4e-15, and that of the 150-iteration stop (checkpoints
        # every 50 iterations) a floor of 9.8e-6, where s ends at 1.3e-5
        value, w = _restricted_witness(qtf, 201)
        assert value == pytest.approx(0.1715724353, abs=1e-10)
        spans = {
            "forward": SpanMask.of_setup(qtf, ConeId.FORWARD),
            "backward": SpanMask.of_setup(qtf, ConeId.BACKWARD),
        }
        _, value_prog = sdp.cone_value_programs(-w, spans)
        admm = sdp._Admm(value_prog)
        admm.run(0.0, 5000)
        assert admm.iterations == 5000
        r, s = admm.split
        assert r <= 1e-5 and s <= 1e-5
