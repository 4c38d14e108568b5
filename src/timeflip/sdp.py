"""Self-contained splitting solver for the conic programs of this package.

Programs are stated over named Hermitian variables, each constrained to a cone
(positive semidefinite, a linear subspace given by its orthogonal projector,
or free), coupled by affine rows.  A consensus ADMM iteration alternates an
exact affine projection (precomputed Gram algebra) with blockwise cone
projections.  Every program built here carries a polish step that converts the
approximate iterate into an *exactly feasible* point of its own side, so a
matched primal/dual pair brackets the true optimum by weak duality; the
certified gap is the distance between the two polished values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import sqrt
from typing import Callable, Mapping, Sequence

import numpy as np

from .supermaps import (
    ROLE_GLOBAL_INPUT,
    ROLE_GLOBAL_OUTPUT,
    ROLE_SLOT_OUTPUT,
    ConeId,
    SetupOperator,
    SpanMask,
    check_setup,
    setup_span_projector,
)
from .tensor_core import (
    HermitianOperator,
    SystemLayout,
    hs_inner,
    trace_and_replace_matrix,
)

RESIDUAL_TOL = 1e-6
GAP_TOL = 1e-4
MAX_ITER = 50000


# -- program description -------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """One operator variable: a name plus its cone membership."""

    name: str
    kind: str  # "psd" | "free" | "sub"
    project: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("psd", "free", "sub"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.kind == "sub" and self.project is None:
            raise ValueError(f"subspace block {self.name!r} needs a projector")


@dataclass(frozen=True)
class MatrixRow:
    """Affine row sum_k coeff_k x_k = rhs, one operator equation."""

    name: str
    coeffs: Mapping[str, float]
    rhs: np.ndarray


@dataclass(frozen=True)
class ScalarRow:
    """Affine row sum_k <weight_k, x_k> = rhs, one real equation."""

    name: str
    weights: Mapping[str, np.ndarray]
    rhs: float


@dataclass(frozen=True)
class ConicProgram:
    """One side of a conic pair, in block form.

    `objective` holds the true objective operators: the value of a point is
    sum_k <objective_k, x_k> + constant, minimized or maximized per `sense`.
    `polish`, when present, maps the final iterates to an exactly feasible
    point and its certified value.  `principal` names the variable reported
    as the solution operator.
    """

    name: str
    pair_tag: str
    n: int
    blocks: tuple[Block, ...]
    matrix_rows: tuple[MatrixRow, ...]
    scalar_rows: tuple[ScalarRow, ...]
    objective: Mapping[str, np.ndarray]
    principal: str
    sense: str = "min"
    constant: float = 0.0
    layout: SystemLayout | None = None
    polish: Callable | None = None

    @property
    def labels(self) -> tuple[str, ...]:
        return self.layout.labels if self.layout is not None else ()

    def value_at(self, xs: Mapping[str, np.ndarray]) -> float:
        total = self.constant
        for name, c in self.objective.items():
            total += hs_inner(c, xs[name])
        return float(total)


@dataclass
class SolveReport:
    """Certified values and diagnostics for one program or a matched pair."""

    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    residuals: dict[str, float]
    converged: bool
    sense: str
    pair_tag: str
    labels: tuple[str, ...]
    constant: float = 0.0
    primal_solution: HermitianOperator | None = None
    dual_solution: HermitianOperator | None = None
    extras: dict = field(default_factory=dict)

    def as_dict(self, include_solutions: bool = False) -> dict:
        out = {
            "primal_value": self.primal_value,
            "dual_value": self.dual_value,
            "gap": self.gap,
            "iterations": self.iterations,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "converged": bool(self.converged),
            "sense": self.sense,
            "pair_tag": self.pair_tag,
            "labels": list(self.labels),
        }
        if include_solutions:
            from .tensor_core import operator_to_dict

            for key, sol in (
                ("primal_solution", self.primal_solution),
                ("dual_solution", self.dual_solution),
            ):
                if sol is not None:
                    out[key] = operator_to_dict(sol)
        return out


# -- small matrix helpers --------------------------------------------------------


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _psd_clip(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(_sym(m))
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T


def _lmin(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(_sym(m))[0])


# -- the splitting engine ----------------------------------------------------------


class _Admm:
    """Consensus ADMM over named Hermitian blocks with exact affine projection.

    The affine set {A x = b} mixes operator rows (one real coefficient pattern
    per row, applied entrywise) and scalar rows.  Projection is
    v - A*(AA*)^{-1}(Av - b); AA* factors into a small real Gram matrix on the
    operator rows and a Schur complement on the scalar rows, both precomputed.
    """

    def __init__(self, prog: ConicProgram, rho: float = 1.0, alpha: float = 1.7):
        self.prog = prog
        self.names = [b.name for b in prog.blocks]
        self.block = {b.name: b for b in prog.blocks}
        n = prog.n
        sign = 1.0 if prog.sense == "min" else -1.0
        zero = np.zeros((n, n), dtype=complex)
        self.cost = {
            name: sign * np.asarray(prog.objective[name], dtype=complex)
            if name in prog.objective
            else zero
            for name in self.names
        }
        self.rho = rho
        self.alpha = alpha
        self.z = {name: zero.copy() for name in self.names}
        self.u = {name: zero.copy() for name in self.names}
        self.x = {name: zero.copy() for name in self.names}
        self.iterations = 0
        self.r_norm = np.inf
        self.s_norm = np.inf
        self._prepare_affine()

    def _prepare_affine(self) -> None:
        prog = self.prog
        n = prog.n
        mrows, srows = prog.matrix_rows, prog.scalar_rows
        self.mrows, self.srows = mrows, srows
        n_m, n_s = len(mrows), len(srows)
        if n_m:
            a = np.zeros((n_m, len(self.names)))
            for i, row in enumerate(mrows):
                for k, name in enumerate(self.names):
                    a[i, k] = row.coeffs.get(name, 0.0)
            self.a_vecs = a
            gram = a @ a.T
            if np.linalg.cond(gram) > 1e10:
                raise ValueError(f"{prog.name}: operator rows are numerically dependent")
            self.gram_inv = np.linalg.inv(gram)
        if n_s:
            theta = [
                {name: np.asarray(w, dtype=complex) for name, w in row.weights.items()}
                for row in srows
            ]
            self.theta = theta
            h = np.zeros((n_s, n_s))
            for m in range(n_s):
                for mp in range(n_s):
                    for name in theta[m].keys() & theta[mp].keys():
                        h[m, mp] += hs_inner(theta[m][name], theta[mp][name])
            if n_m:
                cross = np.zeros((n_m, n_s, n, n), dtype=complex)
                for i in range(n_m):
                    for m in range(n_s):
                        for k, name in enumerate(self.names):
                            if self.a_vecs[i, k] and name in theta[m]:
                                cross[i, m] += self.a_vecs[i, k] * theta[m][name]
                self.cross = cross
                self.cross_inv = np.einsum("ij,jmab->imab", self.gram_inv, cross)
                schur = h.copy()
                for m in range(n_s):
                    for mp in range(n_s):
                        schur[m, mp] -= sum(
                            hs_inner(cross[i, m], self.cross_inv[i, mp]) for i in range(n_m)
                        )
            else:
                schur = h
            if np.linalg.cond(schur) > 1e10:
                raise ValueError(f"{prog.name}: scalar rows are numerically dependent")
            self.schur_inv = np.linalg.inv(schur)

    def _project_affine(self, v: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        mrows, srows = self.mrows, self.srows
        if not mrows and not srows:
            return dict(v)
        n = self.prog.n
        n_m, n_s = len(mrows), len(srows)
        if n_m:
            res_m = np.zeros((n_m, n, n), dtype=complex)
            for i, row in enumerate(mrows):
                acc = -np.asarray(row.rhs, dtype=complex)
                for name, coeff in row.coeffs.items():
                    acc = acc + coeff * v[name]
                res_m[i] = acc
            y = np.einsum("ij,jab->iab", self.gram_inv, res_m)
        if n_s:
            res_s = np.zeros(n_s)
            for m, row in enumerate(srows):
                res_s[m] = sum(hs_inner(w, v[name]) for name, w in row.weights.items()) - row.rhs
            if n_m:
                res_s -= np.array(
                    [sum(hs_inner(self.cross[i, m], y[i]) for i in range(n_m)) for m in range(n_s)]
                )
            mu = self.schur_inv @ res_s
        out = dict(v)
        if n_m:
            lam = y
            if n_s:
                lam = y - np.einsum("m,imab->iab", mu, self.cross_inv)
            for k, name in enumerate(self.names):
                coeffs = self.a_vecs[:, k]
                if np.any(coeffs):
                    out[name] = out[name] - np.einsum("i,iab->ab", coeffs, lam)
        if n_s:
            for m in range(n_s):
                if mu[m]:
                    for name, w in self.theta[m].items():
                        out[name] = out[name] - mu[m] * w
        return out

    def _project_cone(self, name: str, m: np.ndarray) -> np.ndarray:
        blk = self.block[name]
        if blk.kind == "psd":
            return _psd_clip(m)
        if blk.kind == "sub":
            return _sym(blk.project(m))
        return m

    def step(self) -> None:
        v = {name: self.z[name] - self.u[name] - self.cost[name] / self.rho for name in self.names}
        self.x = self._project_affine(v)
        z_old = self.z
        relaxed = {
            name: self.alpha * self.x[name] + (1 - self.alpha) * z_old[name] for name in self.names
        }
        self.z = {name: self._project_cone(name, relaxed[name] + self.u[name]) for name in self.names}
        self.u = {name: self.u[name] + relaxed[name] - self.z[name] for name in self.names}
        self.r_norm = sqrt(sum(float(np.linalg.norm(self.x[n] - self.z[n]) ** 2) for n in self.names))
        self.s_norm = self.rho * sqrt(
            sum(float(np.linalg.norm(self.z[n] - z_old[n]) ** 2) for n in self.names)
        )
        self.iterations += 1
        if self.iterations % 25 == 0:
            if self.r_norm > 10 * self.s_norm and self.rho < 1e5:
                self.rho *= 2.0
                self.u = {name: m / 2.0 for name, m in self.u.items()}
            elif self.s_norm > 10 * self.r_norm and self.rho > 1e-5:
                self.rho /= 2.0
                self.u = {name: m * 2.0 for name, m in self.u.items()}

    def run(self, tol: float, max_iter: int) -> None:
        start = self.iterations
        while self.iterations - start < max_iter:
            self.step()
            if self.r_norm <= tol and self.s_norm <= tol:
                break


def _feasibility_residuals(prog: ConicProgram, xs: Mapping[str, np.ndarray]) -> dict[str, float]:
    """Residuals of every affine row and the worst cone violations at a point."""
    out: dict[str, float] = {}
    for row in prog.matrix_rows:
        res = -np.asarray(row.rhs, dtype=complex)
        for name, coeff in row.coeffs.items():
            res = res + coeff * xs[name]
        out[f"row:{row.name}"] = float(np.linalg.norm(res))
    for row in prog.scalar_rows:
        res = sum(hs_inner(w, xs[name]) for name, w in row.weights.items()) - row.rhs
        out[f"row:{row.name}"] = abs(float(res))
    worst_psd = 0.0
    worst_sub = 0.0
    for blk in prog.blocks:
        if blk.kind == "psd":
            worst_psd = max(worst_psd, -min(_lmin(xs[blk.name]), 0.0))
        elif blk.kind == "sub":
            worst_sub = max(
                worst_sub, float(np.linalg.norm(xs[blk.name] - blk.project(xs[blk.name])))
            )
    out["cone:psd"] = worst_psd
    out["cone:subspace"] = worst_sub
    return out


def _report_for_side(
    prog: ConicProgram,
    admm: _Admm,
    tol: float,
    value: float,
    solution: Mapping[str, np.ndarray],
    extras: dict,
) -> SolveReport:
    residuals = _feasibility_residuals(prog, solution)
    residuals["split:primal"] = admm.r_norm
    residuals["split:dual"] = admm.s_norm
    shadow = prog.value_at(admm.x)
    principal = None
    if prog.layout is not None and prog.principal in solution:
        principal = HermitianOperator(prog.layout, solution[prog.principal])
    return SolveReport(
        primal_value=value,
        dual_value=shadow,
        gap=abs(value - shadow),
        iterations=admm.iterations,
        residuals=residuals,
        converged=admm.r_norm <= tol and admm.s_norm <= tol,
        sense=prog.sense,
        pair_tag=prog.pair_tag,
        labels=prog.labels,
        constant=prog.constant,
        primal_solution=principal,
        extras=dict(extras, solution=dict(solution)),
    )


def solve(prog: ConicProgram, tol: float = RESIDUAL_TOL, max_iter: int = MAX_ITER) -> SolveReport:
    """Run the splitting iteration on one program and polish its solution.

    primal_value is the certified value of the polished (exactly feasible)
    point; dual_value is the raw objective at the affine-projected iterate,
    which approaches the optimum from the other side as the split closes.
    """
    admm = _Admm(prog)
    admm.run(tol, max_iter)
    if prog.polish is not None:
        value, solution, extras = prog.polish(admm.x, admm.z)
    else:
        value, solution, extras = prog.value_at(admm.z), dict(admm.z), {}
    return _report_for_side(prog, admm, tol, value, solution, extras)


def certify_duality(primal: SolveReport, dual: SolveReport, tol: float = GAP_TOL) -> bool:
    """Check the zero-gap identity on a matched primal/dual pair of reports.

    The shared normalization constants of a matched pair cancel, so the
    identity reduces to agreement of the two certified optimal values within
    10*tol; both solves must also have converged.
    """
    if primal.labels != dual.labels:
        raise ValueError(f"mismatched layouts: {primal.labels} vs {dual.labels}")
    if primal.pair_tag != dual.pair_tag:
        raise ValueError(
            f"reports come from different pairs: {primal.pair_tag!r} vs {dual.pair_tag!r}"
        )
    if not (primal.converged and dual.converged):
        return False
    return abs(primal.primal_value - dual.primal_value) <= 10 * tol


def _solve_pair(
    lower_prog: ConicProgram,
    upper_prog: ConicProgram,
    tol: float,
    gap_tol: float,
    max_iter: int,
) -> tuple[SolveReport, SolveReport, SolveReport]:
    """Run a matched (min, max) pair, tightening the splitting tolerance until
    the certified values bracket the shared optimum within gap_tol.

    `lower_prog` must be the minimization side (its polished value is an upper
    bound on the optimum), `upper_prog` the maximization side (lower bound).
    """
    admm_min, admm_max = _Admm(lower_prog), _Admm(upper_prog)
    current = tol
    while True:
        remaining = max_iter - max(admm_min.iterations, admm_max.iterations)
        if remaining > 0:
            admm_min.run(current, remaining)
            admm_max.run(current, remaining)
        v_min, sol_min, ex_min = lower_prog.polish(admm_min.x, admm_min.z)
        v_max, sol_max, ex_max = upper_prog.polish(admm_max.x, admm_max.z)
        remaining = max_iter - max(admm_min.iterations, admm_max.iterations)
        if v_min - v_max <= gap_tol or remaining <= 0 or current <= tol * 1e-6:
            break
        current /= 10.0
    rep_min = _report_for_side(lower_prog, admm_min, tol, v_min, sol_min, ex_min)
    rep_max = _report_for_side(upper_prog, admm_max, tol, v_max, sol_max, ex_max)
    gap = v_min - v_max
    merged = SolveReport(
        primal_value=v_min,
        dual_value=v_max,
        gap=gap,
        iterations=admm_min.iterations + admm_max.iterations,
        residuals={
            **{f"primal:{k}": v for k, v in rep_min.residuals.items()},
            **{f"dual:{k}": v for k, v in rep_max.residuals.items()},
        },
        converged=rep_min.converged and rep_max.converged and gap <= gap_tol,
        sense="pair",
        pair_tag=lower_prog.pair_tag,
        labels=lower_prog.labels,
        extras={"primal_report": rep_min, "dual_report": rep_max},
    )
    return merged, rep_min, rep_max


# -- geometry shared by the single-slot programs ---------------------------------------


class _SlotGeometry:
    """Projectors, dimensions and exactly-represented data for one setup."""

    def __init__(self, setup: SetupOperator):
        report = check_setup(setup, ConeId.GENERAL, tol=1e-6)
        if not report.passed:
            raise ValueError(
                "setup is not a valid general-direction operator "
                f"(min eig {report.min_eigenvalue:.2e}, residuals {report.residuals})"
            )
        self.setup = setup
        layout = setup.op.layout
        self.layout = layout
        self.n = layout.total_dim
        self.dd = setup.trace_target
        self.eye = np.eye(self.n, dtype=complex)
        self.p_uniform = setup_span_projector(setup, ConeId.UNIFORM_GLOBAL_INPUT)
        self.p_fwd_span = setup_span_projector(setup, ConeId.FORWARD_SPAN)
        self.p_bwd_span = setup_span_projector(setup, ConeId.BACKWARD_SPAN)
        self.p_general = setup_span_projector(setup, ConeId.GENERAL)
        self.p_forward = setup_span_projector(setup, ConeId.FORWARD)
        self.p_backward = setup_span_projector(setup, ConeId.BACKWARD)
        # the setup matrix re-projected onto its span, so the polish identities
        # close to floating-point accuracy
        self.s_mat = _sym(self.p_general(setup.op.matrix))
        out_positions = layout.positions(setup.labels(ROLE_SLOT_OUTPUT))
        self.tau_out = lambda m: trace_and_replace_matrix(m, layout.dims, out_positions)

    def complement(self, projector: Callable) -> Callable:
        return lambda m: m - projector(m)


def _mix_to_psd(
    blocks: dict[str, np.ndarray],
    interior: dict[str, np.ndarray],
    psd_names: Sequence[str],
) -> tuple[dict[str, np.ndarray], float]:
    """Mix every block toward a strictly feasible interior point, just far
    enough that the named blocks become positive semidefinite."""
    gamma = 0.0
    for name in psd_names:
        eps = max(0.0, -_lmin(blocks[name]))
        if eps == 0.0:
            continue
        margin = _lmin(interior[name])
        if margin <= 0:
            raise ValueError(f"interior block {name!r} is not strictly positive")
        gamma = max(gamma, eps / (eps + margin))
    gamma = min(1.0, 1.05 * gamma)
    if gamma == 0.0:
        return dict(blocks), 0.0
    mixed = {name: (1 - gamma) * blocks[name] + gamma * interior[name] for name in blocks}
    return mixed, gamma


# -- the robustness pair -----------------------------------------------------------------


def _robustness_primal(geom: _SlotGeometry, witness_subspace: Callable | None) -> ConicProgram:
    """min Tr(T)/dd over general-cone noise T such that S + T splits into a
    forward plus a backward part (up to a witness-orthogonal shift when the
    witness is restricted to a subspace)."""
    n, dd, eye, s = geom.n, geom.dd, geom.eye, geom.s_mat
    restricted = witness_subspace is not None
    zero = np.zeros((n, n), dtype=complex)
    blocks = [
        Block("T", "psd"),
        Block("T_span", "sub", geom.p_general),
        Block("F", "psd"),
        Block("F_span", "sub", geom.p_forward),
        Block("B", "psd"),
        Block("B_span", "sub", geom.p_backward),
    ]
    split_coeffs = {"F": 1.0, "B": 1.0, "T": -1.0}
    if restricted:
        p_wit = witness_subspace
        blocks.append(Block("SHIFT", "sub", lambda m: m - p_wit(m)))
        split_coeffs["SHIFT"] = -1.0
        solve_shift = _witness_shift_solver(geom, p_wit)
    rows = (
        MatrixRow("noise-in-span", {"T": 1.0, "T_span": -1.0}, zero),
        MatrixRow("forward-in-span", {"F": 1.0, "F_span": -1.0}, zero),
        MatrixRow("backward-in-span", {"B": 1.0, "B_span": -1.0}, zero),
        MatrixRow("definite-split", split_coeffs, s),
    )

    def polish(xs, zs):
        t = _sym(geom.p_general(zs["T"]))
        f = _sym(geom.p_forward(zs["F"]))
        b = _sym(geom.p_backward(zs["B"]))
        delta = s - (f + b - t)
        shift = zero
        if restricted:
            shift = _sym(zs["SHIFT"] - p_wit(zs["SHIFT"]))
            delta = delta + shift
            correction = solve_shift(delta)
            shift = shift - correction
            delta = delta - correction
        d_f = geom.tau_out(delta)
        f = f + d_f
        b = b + (delta - d_f)
        # positivity repair along the identity, a member of every span
        bump = max(0.0, -2 * _lmin(f), -2 * _lmin(b), -_lmin(t)) * (1 + 1e-9)
        t = t + bump * eye
        f = f + bump / 2 * eye
        b = b + bump / 2 * eye
        solution = {"T": t, "T_span": t, "F": f, "F_span": f, "B": b, "B_span": b}
        if restricted:
            solution["SHIFT"] = shift
        value = float(np.trace(t).real) / dd
        return value, solution, {"positivity_bump": bump}

    tag = "robustness-restricted" if restricted else "robustness"
    return ConicProgram(
        name=f"{tag}:primal",
        pair_tag=tag,
        n=n,
        blocks=tuple(blocks),
        matrix_rows=rows,
        scalar_rows=(),
        objective={"T": eye / dd},
        principal="T",
        sense="min",
        layout=geom.layout,
        polish=polish,
    )


def _robustness_dual(geom: _SlotGeometry, witness_subspace: Callable | None) -> ConicProgram:
    """max -<S, W> over witnesses W nonnegative on both fixed directions (via
    the span-orthogonal decomposition) and dominated by I/dd on the general
    cone."""
    n, dd, eye, s = geom.n, geom.dd, geom.eye, geom.s_mat
    restricted = witness_subspace is not None
    zero = np.zeros((n, n), dtype=complex)
    c_uni = geom.complement(geom.p_uniform)
    c_fwd = geom.complement(geom.p_fwd_span)
    c_bwd = geom.complement(geom.p_bwd_span)
    c_gen = geom.complement(geom.p_general)
    blocks = (
        Block("W", "sub", witness_subspace) if restricted else Block("W", "free"),
        Block("W_uni", "sub", c_uni),
        Block("W_fwd", "sub", c_fwd),
        Block("W_bwd", "sub", c_bwd),
        Block("P_fwd", "psd"),
        Block("P_bwd", "psd"),
        Block("Q", "psd"),
        Block("Z", "sub", c_gen),
    )
    rows = (
        MatrixRow("forward-direction", {"W": 1.0, "W_uni": -1.0, "W_fwd": -1.0, "P_fwd": -1.0}, zero),
        MatrixRow("backward-direction", {"W": 1.0, "W_uni": -1.0, "W_bwd": -1.0, "P_bwd": -1.0}, zero),
        MatrixRow("general-domination", {"W": 1.0, "Q": 1.0, "Z": 1.0}, eye / dd),
    )

    if restricted:
        interior = _restricted_dual_interior(geom)
    else:
        w0 = eye / (2 * dd)
        interior = {
            "W": w0,
            "W_uni": zero,
            "W_fwd": zero,
            "W_bwd": zero,
            "P_fwd": w0,
            "P_bwd": w0,
            "Q": eye / dd - w0,
            "Z": zero,
        }

    def polish(xs, zs):
        w = _sym(witness_subspace(zs["W"])) if restricted else _sym(zs["W"])
        w_uni = _sym(c_uni(zs["W_uni"]))
        w_fwd = _sym(c_fwd(zs["W_fwd"]))
        w_bwd = _sym(c_bwd(zs["W_bwd"]))
        z = _sym(c_gen(eye / dd - w - zs["Q"]))
        point = {
            "W": w,
            "W_uni": w_uni,
            "W_fwd": w_fwd,
            "W_bwd": w_bwd,
            "P_fwd": w - w_uni - w_fwd,
            "P_bwd": w - w_uni - w_bwd,
            "Q": eye / dd - w - z,
            "Z": z,
        }
        mixed, gamma = _mix_to_psd(point, interior, ("P_fwd", "P_bwd", "Q"))
        value = -hs_inner(s, mixed["W"])
        if value < 0.0:
            # W = 0 is always feasible with value 0; never report below it
            mixed = {name: zero.copy() for name in point}
            mixed["Q"] = eye / dd
            value = 0.0
        return value, mixed, {"interior_mix": gamma}

    tag = "robustness-restricted" if restricted else "robustness"
    return ConicProgram(
        name=f"{tag}:dual",
        pair_tag=tag,
        n=n,
        blocks=blocks,
        matrix_rows=rows,
        scalar_rows=(),
        objective={"W": -s},
        principal="W",
        sense="max",
        layout=geom.layout,
        polish=polish,
    )


def _restricted_dual_interior(geom: _SlotGeometry) -> dict[str, np.ndarray]:
    """A strictly feasible witness of the restricted form, recentered inside
    both direction cones by a traceless component on the global input."""
    layout, n, dd = geom.layout, geom.n, geom.dd
    gin = geom.setup.labels(ROLE_GLOBAL_INPUT)
    if len(gin) != 1 or layout.dim(gin[0]) != 2:
        raise ValueError("the restricted witness form needs a single qubit global input")
    mats = {lab: np.eye(layout.dim(lab), dtype=complex) for lab in layout.labels}
    mats[gin[0]] = np.diag([1.0, 0.0]).astype(complex)
    p0_full = reduce(np.kron, [mats[lab] for lab in layout.labels])
    mats[gin[0]] = np.diag([1.0, -1.0]).astype(complex)
    z_full = reduce(np.kron, [mats[lab] for lab in layout.labels])
    w = p0_full / (2 * dd)
    w_uni = z_full / (4 * dd)
    zero = np.zeros((n, n), dtype=complex)
    # margins: P_fwd = P_bwd = I/(4 dd); Q = I/dd - P0/(2 dd) has least
    # eigenvalue 1/(2 dd)
    return {
        "W": w,
        "W_uni": w_uni,
        "W_fwd": zero,
        "W_bwd": zero,
        "P_fwd": w - w_uni,
        "P_bwd": w - w_uni,
        "Q": geom.eye / dd - w,
        "Z": zero,
    }


# -- restricted-witness machinery -----------------------------------------------------


def restricted_witness_projector(setup: SetupOperator) -> Callable[[np.ndarray], np.ndarray]:
    """Projector onto the experimentally accessible witness form: the global
    input pinned to the first basis state and the first global-output wire
    uniform, everything else free."""
    layout = setup.op.layout
    gin = setup.labels(ROLE_GLOBAL_INPUT)
    gout = setup.labels(ROLE_GLOBAL_OUTPUT)
    if len(gin) != 1 or layout.dim(gin[0]) != 2 or not gout:
        raise ValueError(
            "the restricted witness form needs one qubit global input and a global output wire"
        )
    mats = {lab: np.eye(layout.dim(lab), dtype=complex) for lab in layout.labels}
    mats[gin[0]] = np.diag([1.0, 0.0]).astype(complex)
    pin = reduce(np.kron, [mats[lab] for lab in layout.labels])
    replaced = layout.positions((gout[0],))
    dims = layout.dims

    def project(m: np.ndarray) -> np.ndarray:
        return trace_and_replace_matrix(pin @ m @ pin, dims, replaced)

    return project


def _general_span_complement_basis(geom: _SlotGeometry) -> list[np.ndarray]:
    """Orthonormal Hermitian basis of the orthogonal complement of the general
    span, built on the product-basis coordinates that the GENERAL mask drops
    (on the qtf layout: 3 traceless on the global input alone, 36 traceless
    on both slot wires with the global output the identity)."""
    basis = SpanMask.of_setup(geom.setup, ConeId.GENERAL).complement_basis()
    gram = np.array([[hs_inner(a, b) for b in basis] for a in basis])
    if np.linalg.norm(gram - np.eye(len(basis))) > 1e-10:
        raise ValueError("complement basis failed its orthonormality check")
    for b in basis:
        if np.linalg.norm(geom.p_general(b)) > 1e-10:
            raise ValueError("complement basis element is not orthogonal to the general span")
    return basis


def _witness_shift_solver(geom: _SlotGeometry, witness_projector: Callable) -> Callable:
    """Map a split residual to the witness-orthogonal shift matching it on the
    span complement, so the remaining residual lies back in the general span.

    The span complement is where the GENERAL mask drops coordinates; residual
    and shift are compared through their components on the Hermitian basis
    of those coordinates.  The Gram system on that basis is symmetric positive
    semidefinite; it is singular exactly on the overlap of the witness
    subspace with the span complement, where the right-hand side vanishes for
    residuals of the admissible structure, so a spectral pseudoinverse solves
    it.  Inconsistent residuals are rejected.
    """
    basis = _general_span_complement_basis(geom)
    k = len(basis)
    projected = [witness_projector(e) for e in basis]
    b_mat = np.empty((k, k))
    for i, e in enumerate(basis):
        for j in range(k):
            b_mat[i, j] = hs_inner(e, basis[j] - projected[j])
    b_mat = (b_mat + b_mat.T) / 2
    vals, vecs = np.linalg.eigh(b_mat)
    keep = vals > 1e-10 * max(vals[-1], 1e-300)
    if not np.any(keep):
        raise ValueError(
            "numerically singular witness projector: the witness subspace contains "
            "the whole span complement"
        )
    b_pinv = (vecs[:, keep] / vals[keep]) @ vecs[:, keep].T

    def solve_shift(delta: np.ndarray) -> np.ndarray:
        d = np.array([hs_inner(e, delta) for e in basis])
        coeff = b_pinv @ d
        if np.linalg.norm(b_mat @ coeff - d) > 1e-8 * (1 + np.linalg.norm(d)):
            raise ValueError(
                "numerically singular witness projector: split residual has a "
                "component the witness-orthogonal shift cannot reach"
            )
        y = sum(c * e for c, e in zip(coeff, basis))
        return y - witness_projector(y)

    return solve_shift


# -- the public drivers ---------------------------------------------------------------


def solve_max_robustness(
    setup: SetupOperator,
    tol: float = RESIDUAL_TOL,
    max_iter: int = MAX_ITER,
    restricted: bool = False,
    gap_tol: float = GAP_TOL,
) -> tuple[SolveReport, HermitianOperator]:
    """Generalized robustness of a setup: the least general-cone noise whose
    admixture pushes the setup into the cone of fixed-direction mixtures.

    Returns the merged pair report and the optimal witness.  The report's
    dual_value is a certified lower bound on the robustness (it equals the
    witness expectation of the returned witness), primal_value a certified
    upper bound, and gap their difference.  `restricted` confines the witness
    to the experimentally accessible subspace.
    """
    geom = _SlotGeometry(setup)
    witness_subspace = restricted_witness_projector(setup) if restricted else None
    primal = _robustness_primal(geom, witness_subspace)
    dual = _robustness_dual(geom, witness_subspace)
    merged, rep_p, rep_d = _solve_pair(primal, dual, tol, gap_tol, max_iter)
    solution = rep_d.extras["solution"]
    witness = HermitianOperator(geom.layout, solution["W"])
    merged.primal_solution = HermitianOperator(geom.layout, rep_p.extras["solution"]["T"])
    merged.dual_solution = witness
    merged.extras["certificate"] = {
        "uniform-part": HermitianOperator(geom.layout, solution["W_uni"]),
        "forward-part": HermitianOperator(geom.layout, solution["W_fwd"]),
        "backward-part": HermitianOperator(geom.layout, solution["W_bwd"]),
        "forward-slack": HermitianOperator(geom.layout, solution["P_fwd"]),
        "backward-slack": HermitianOperator(geom.layout, solution["P_bwd"]),
        "domination-slack": HermitianOperator(geom.layout, solution["Q"]),
    }
    merged.extras["restricted"] = restricted
    return merged, witness


def solve_robustness_given_witness(
    setup: SetupOperator,
    w: HermitianOperator,
    tol: float = RESIDUAL_TOL,
    max_iter: int = MAX_ITER,
    gap_tol: float = GAP_TOL,
) -> SolveReport:
    """Robustness certified by one fixed witness: the least noise admixture
    that raises the witness expectation back to zero.

    Reduces to a single normalization program: r = max(0, -<W,S>) / p_W with
    p_W the largest witness expectation over trace-normalized general-cone
    operators.  primal_value is the certified upper bound on r, dual_value
    the certified lower bound.
    """
    geom = _SlotGeometry(setup)
    if w.layout != geom.layout:
        raise ValueError("witness layout does not match the setup layout")
    numerator = max(0.0, -hs_inner(w.matrix, geom.s_mat))
    tag = "robustness-given-witness"
    if numerator == 0.0:
        return SolveReport(
            primal_value=0.0,
            dual_value=0.0,
            gap=0.0,
            iterations=0,
            residuals={},
            converged=True,
            sense="pair",
            pair_tag=tag,
            labels=geom.layout.labels,
            primal_solution=HermitianOperator(geom.layout, np.zeros((geom.n, geom.n))),
            dual_solution=w,
            extras={"witness_scale": None, "numerator": 0.0},
        )
    bound_prog, value_prog = _witness_scale_programs(geom, np.asarray(w.matrix, dtype=complex))
    merged, rep_min, rep_max = _solve_pair(bound_prog, value_prog, tol, gap_tol, max_iter)
    p_upper, p_lower = merged.primal_value, merged.dual_value
    if p_lower <= 1e-9 * max(1.0, numerator):
        raise ValueError(
            "infeasible noise constraint: no general-cone noise raises this witness "
            f"expectation (largest expectation bounded above by {p_upper:.3e})"
        )
    r_lower, r_upper = numerator / p_upper, numerator / p_lower
    # the maximizing direction, scaled so the witness expectation of S + T
    # vanishes at the certified upper bound
    noise = rep_max.extras["solution"]["T"] * (r_upper / geom.dd)
    return SolveReport(
        primal_value=r_upper,
        dual_value=r_lower,
        gap=r_upper - r_lower,
        iterations=merged.iterations,
        residuals=merged.residuals,
        converged=merged.converged and (r_upper - r_lower) <= gap_tol,
        sense="pair",
        pair_tag=tag,
        labels=geom.layout.labels,
        primal_solution=HermitianOperator(geom.layout, noise),
        dual_solution=w,
        extras={"witness_scale": (p_lower, p_upper), "numerator": numerator},
    )


def _witness_scale_programs(
    geom: _SlotGeometry, w: np.ndarray
) -> tuple[ConicProgram, ConicProgram]:
    """p_W = max <W, T> over the trace-normalized general cone, plus the
    matching upper-bound program (least nu with nu*I - W nonnegative there).
    Returned as (min side, max side)."""
    n, dd, eye = geom.n, geom.dd, geom.eye
    c_gen = geom.complement(geom.p_general)
    tag = "witness-scale"
    zero = np.zeros((n, n), dtype=complex)
    white = (dd / n) * eye
    interior_t = {"T": white, "T_span": white}

    def polish_value(xs, zs):
        t = _sym(geom.p_general(zs["T"]))
        tr = float(np.trace(t).real)
        t = white.copy() if tr <= dd * 1e-6 else t * (dd / tr)
        mixed, gamma = _mix_to_psd({"T": t, "T_span": t}, interior_t, ("T",))
        mixed["T_span"] = mixed["T"]
        return hs_inner(w, mixed["T"]), mixed, {"interior_mix": gamma}

    value_prog = ConicProgram(
        name=f"{tag}:value",
        pair_tag=tag,
        n=n,
        blocks=(Block("T", "psd"), Block("T_span", "sub", geom.p_general)),
        matrix_rows=(MatrixRow("noise-in-span", {"T": 1.0, "T_span": -1.0}, zero),),
        scalar_rows=(ScalarRow("trace-normalization", {"T": eye}, float(dd)),),
        objective={"T": w},
        principal="T",
        sense="max",
        layout=geom.layout,
        polish=polish_value,
    )

    def span_identity(m: np.ndarray) -> np.ndarray:
        return (np.trace(m).real / n) * eye

    def polish_bound(xs, zs):
        nu = float(np.trace(zs["N"]).real) / n
        z = _sym(c_gen(nu * eye - w - zs["Q"]))
        shortfall = -_lmin(nu * eye - w - z)
        if shortfall > 0:
            nu += shortfall * (1 + 1e-12)
        q = nu * eye - w - z
        return nu * dd, {"N": nu * eye, "Q": q, "Z": z}, {"nu": nu}

    bound_prog = ConicProgram(
        name=f"{tag}:bound",
        pair_tag=tag,
        n=n,
        blocks=(Block("N", "sub", span_identity), Block("Q", "psd"), Block("Z", "sub", c_gen)),
        matrix_rows=(MatrixRow("domination", {"N": 1.0, "Q": -1.0, "Z": -1.0}, w),),
        scalar_rows=(),
        objective={"N": (dd / n) * eye},
        principal="N",
        sense="min",
        layout=geom.layout,
        polish=polish_bound,
    )
    return bound_prog, value_prog


# -- cone-value programs over fixed directions (shared with the game module) -------------


def cone_value_programs(
    target: np.ndarray,
    layout: SystemLayout,
    spans: Mapping[str, Callable[[np.ndarray], np.ndarray]],
    trace_target: float,
    pair_tag: str = "cone-value",
) -> tuple[ConicProgram, ConicProgram]:
    """max <target, sum_d S_d> over operators S_d, each positive semidefinite
    inside its named span, with fixed total trace; plus the matching
    upper-bound program.  Returned as (min side, max side)."""
    n = layout.total_dim
    dd = float(trace_target)
    eye = np.eye(n, dtype=complex)
    names = list(spans)
    zero = np.zeros((n, n), dtype=complex)
    target = np.asarray(target, dtype=complex)

    blocks_p: list[Block] = []
    rows_p: list[MatrixRow] = []
    weights: dict[str, np.ndarray] = {}
    objective: dict[str, np.ndarray] = {}
    interior: dict[str, np.ndarray] = {}
    white = (dd / (n * len(names))) * eye
    for name in names:
        blocks_p.append(Block(name, "psd"))
        blocks_p.append(Block(f"{name}_span", "sub", spans[name]))
        rows_p.append(MatrixRow(f"{name}-in-span", {name: 1.0, f"{name}_span": -1.0}, zero))
        weights[name] = eye
        objective[name] = target
        interior[name] = white
        interior[f"{name}_span"] = white

    def polish_value(xs, zs):
        parts = {name: _sym(spans[name](zs[name])) for name in names}
        total = sum(float(np.trace(m).real) for m in parts.values())
        if total <= dd * 1e-6:
            parts = {name: white.copy() for name in names}
        else:
            parts = {name: m * (dd / total) for name, m in parts.items()}
        point: dict[str, np.ndarray] = {}
        for name in names:
            point[name] = parts[name]
            point[f"{name}_span"] = parts[name]
        mixed, gamma = _mix_to_psd(point, interior, names)
        for name in names:
            mixed[f"{name}_span"] = mixed[name]
        value = sum(hs_inner(target, mixed[name]) for name in names)
        return value, mixed, {"interior_mix": gamma}

    value_prog = ConicProgram(
        name=f"{pair_tag}:value",
        pair_tag=pair_tag,
        n=n,
        blocks=tuple(blocks_p),
        matrix_rows=tuple(rows_p),
        scalar_rows=(ScalarRow("trace-normalization", weights, dd),),
        objective=objective,
        principal=names[0],
        sense="max",
        layout=layout,
        polish=polish_value,
    )

    def span_identity(m: np.ndarray) -> np.ndarray:
        return (np.trace(m).real / n) * eye

    complements = {name: (lambda m, p=spans[name]: m - p(m)) for name in names}
    blocks_d: list[Block] = [Block("N", "sub", span_identity)]
    rows_d: list[MatrixRow] = []
    for name in names:
        blocks_d.append(Block(f"Q_{name}", "psd"))
        blocks_d.append(Block(f"Z_{name}", "sub", complements[name]))
        rows_d.append(
            MatrixRow(f"{name}-domination", {"N": 1.0, f"Q_{name}": -1.0, f"Z_{name}": -1.0}, target)
        )

    def polish_bound(xs, zs):
        nu = float(np.trace(zs["N"]).real) / n
        zmats = {
            name: _sym(complements[name](nu * eye - target - zs[f"Q_{name}"])) for name in names
        }
        shortfall = max(-_lmin(nu * eye - target - zmats[name]) for name in names)
        if shortfall > 0:
            nu += shortfall * (1 + 1e-12)
        solution: dict[str, np.ndarray] = {"N": nu * eye}
        for name in names:
            solution[f"Z_{name}"] = zmats[name]
            solution[f"Q_{name}"] = nu * eye - target - zmats[name]
        return nu * dd, solution, {"nu": nu}

    bound_prog = ConicProgram(
        name=f"{pair_tag}:bound",
        pair_tag=pair_tag,
        n=n,
        blocks=tuple(blocks_d),
        matrix_rows=tuple(rows_d),
        scalar_rows=(),
        objective={"N": (dd / n) * eye},
        principal="N",
        sense="min",
        layout=layout,
        polish=polish_bound,
    )
    return bound_prog, value_prog


def solve_cone_value(
    target: np.ndarray,
    layout: SystemLayout,
    spans: Mapping[str, Callable[[np.ndarray], np.ndarray]],
    trace_target: float,
    tol: float = RESIDUAL_TOL,
    max_iter: int = MAX_ITER,
    gap_tol: float = GAP_TOL,
    pair_tag: str = "cone-value",
) -> SolveReport:
    """Certified maximum of <target, .> over trace-normalized mixtures of the
    named cones: primal_value upper-bounds the maximum and dual_value is
    attained by an exactly feasible mixture (reported in extras["parts"])."""
    bound_prog, value_prog = cone_value_programs(target, layout, spans, trace_target, pair_tag)
    merged, rep_min, rep_max = _solve_pair(bound_prog, value_prog, tol, gap_tol, max_iter)
    merged.extras["parts"] = {
        name: HermitianOperator(layout, rep_max.extras["solution"][name]) for name in spans
    }
    return merged
