"""Self-contained splitting solver for the conic programs of this package.

Programs are stated over named Hermitian variables, each constrained to a cone
(positive semidefinite, a linear subspace given by its orthogonal projector,
or free), coupled by affine rows.  A row may hold on a support only, a 0/1
mask over the product-basis coordinates of the program's layout: the
coordinates a span keeps (X - Y in the span's complement is X = Y there),
those it drops (X in the span is X = 0 there), or the identity coordinate,
which carries the trace.  A consensus ADMM iteration holds the k blocks of a
program as (k, n, n) stacks, n the dimension of its layout, and alternates
an exact affine projection (per class of coordinates where the same rows
hold, a precomputed k x k operator on the block index plus an offset; the
largest class's operator applied to the raw entries, the other coordinates
corrected through their basis matrices, or through the change of basis of
the whole stack when they are more than DENSE_SHARE of all) with the cone
projections (subspace blocks apply their projectors; a positive semidefinite
block that was positive definite at its last eigendecomposition is its own
projection while a Cholesky factorization of it succeeds, and the others are
clipped by one stacked eigendecomposition).  The iteration is run as a
fixed-point map on one stack, with safeguarded type-II Anderson
acceleration: an extrapolated point whose fixed-point residual exceeds the
last accepted point's is dropped for the plain step.  The stack is real: a
Hermitian block H is held as its real image Re H + Im H, whose symmetric and
antisymmetric parts are Re H and Im H.  Only the cone step of a complex
program, one with a complex objective or row right-hand side, sees complex
matrices.  A `HermitianOperator` whose imaginary part is exactly zero holds
a real matrix, so a real setup's data arrive real and it runs and polishes
in real symmetric arithmetic.  The trace normalization of every program is
the `SpanMask.trace_target` of its spans.

Every program built here carries a polish step that converts an approximate
point into an *exactly feasible* point of its own side; a bound is certified
when its point was polished.  A matched (min, max) pair is certified by one
splitting run, on the max side: the scaled multipliers of that run,
s_k = -rho * u_k, lie in the dual cone of each block and are the min side's
variables (each min-side program names its blocks' sources in `slack_map`).
At every checkpoint both points are polished, so by weak duality the min
side's value is a certified `upper` bound on the shared optimum and the max
side's a certified `lower` bound.  Checkpoints come every CHECKPOINT
iterations until the gap has fallen between two of them; the next then goes
where the gap, falling on at that rate, reaches GAP_TOL.  The noise side's
polish repairs positivity along the span-projected negative parts of its
blocks before it falls back on the identity, which costs more trace.  The
run stops at the first checkpoint where one stop rule on that bracket holds,
by default a certified gap within GAP_TOL: the split residuals only say how
close the iterate is, and the polished bracket already says how close the
values are.  It gives up early when the gap has stopped falling; every solve
returns one `SolveReport` holding the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Callable, Mapping, Sequence

import numpy as np

from .supermaps import (
    ROLE_GLOBAL_INPUT,
    ROLE_GLOBAL_OUTPUT,
    ConeId,
    SetupOperator,
    SpanMask,
    basis_coords,
    basis_matrices,
    basis_rows,
    check_setup,
    identity_coordinate,
)
from .tensor_core import (
    HermitianOperator,
    SystemLayout,
    hs_inner,
    min_eigenvalue,
)

RESIDUAL_TOL = 1e-6
GAP_TOL = 1e-4
MAX_ITER = 50000
# a certified pair polishes both sides at most CHECKPOINT iterations apart
# (at least CHECKPOINT // 5 where its gap's rate predicts the close), and
# gives up when its least gap fell by less than STALL_DROP over STALL_WINDOW;
# a splitting run rebalances rho every CHECKPOINT iterations
CHECKPOINT = 50
STALL_WINDOW = 1000
STALL_DROP = 0.01
# the affine step corrects the m coordinates outside its main class through
# their basis matrices, dense (m, n^2) rows, while m <= DENSE_SHARE * n^2, and
# through the change of basis of the whole stack above that.  Measured with
# n = 32 on one CPU, per step: the witness programs (m = 63 and 64, four
# blocks) take 62 us with the rows and 231 us with the transforms, the
# convex-hull game cap (238, two blocks) 182 and 174 us, the forward-only cap
# (169, one block) 66 and 123 us.  Above the share the
# rows' memory decides: their m n^2 floats (1.9 MB at 238) are the largest
# array of a `game --pmax-sdp` run and take 1.2-2.3 ms to build
DENSE_SHARE = 1 / 8


# -- program description -------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """One operator variable: a name plus its cone membership.  A subspace
    block's projector maps real matrices to real ones, as E E*/d_ot of
    `restricted_reduction` does."""

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
    """Affine row sum_k coeff_k x_k = rhs, one operator equation.

    With a `support`, a boolean mask over the product-basis coordinates of
    the program's layout (shaped like `SpanMask.keep`), the row holds on
    those coordinates only; without one it holds on every coordinate."""

    name: str
    coeffs: Mapping[str, float]
    rhs: np.ndarray
    support: np.ndarray | None = None


@dataclass(frozen=True)
class ConicProgram:
    """One side of a conic pair, in block form.

    `objective` holds the true objective operators: the value of a point is
    sum_k <objective_k, x_k>, minimized or maximized per `sense`.  `layout`
    gives every block's dimension, its total_dim, and the product-basis
    coordinates a row's support masks.
    `polish` maps the final cone-side iterate (block name -> matrix) to an
    exactly feasible point and its certified value; `solve` and the pair
    driver call it, so only the splitting engine `_Admm` runs a program
    without one.
    `slack_map`, on the min side of a pair, builds that side's point from
    the max side's run: block -> the max-side block whose slack it is.
    """

    name: str
    layout: SystemLayout
    blocks: tuple[Block, ...]
    matrix_rows: tuple[MatrixRow, ...]
    objective: Mapping[str, np.ndarray]
    sense: str = "min"
    polish: Callable | None = None
    slack_map: Mapping[str, str] = field(default_factory=dict)


@dataclass
class SolveReport:
    """Bounds and diagnostics of one solve: a matched pair or a lone program.

    `upper` and `lower` bracket the optimum; each is certified, the value of
    a point polished into an exactly feasible point of its side.  A pair
    fills both, and `gap` is their difference.  A lone program fills only
    its own side (`upper` for a min program, `lower` for a max program) and
    leaves the other at +inf or -inf, so it never claims a finite gap.
    `converged` means, for a pair, that its stop rule held on the bracket (by
    default a gap of at most GAP_TOL), and for a lone program that the split
    residuals are at most RESIDUAL_TOL.  `iterations` counts every evaluation
    of the splitting map, rejected extrapolations included.
    `extras` holds the polished points, `upper_point` and `lower_point`
    (block name -> matrix), next to the polish diagnostics and whatever the
    driver adds.
    """

    upper: float
    lower: float
    iterations: int
    converged: bool
    residuals: dict[str, float]
    extras: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    def as_dict(self) -> dict:
        return {
            "upper": self.upper,
            "lower": self.lower,
            "gap": self.gap,
            "iterations": self.iterations,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "converged": bool(self.converged),
        }


# -- small matrix helpers --------------------------------------------------------


def _herm(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + _herm(m)) / 2


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a (k, n, n) stack of
    Hermitian matrices by one stacked `eigh`, which reads their lower
    triangles; where LAPACK fails to converge, of H m H, with the
    eigenvectors H v, for the reflection H = I - 2 J/n (J all ones)."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError:
        h = np.eye(m.shape[-1]) - 2.0 / m.shape[-1]
        vals, vecs = np.linalg.eigh(h @ m @ h)
        return vals, h @ vecs


def _psd_clip(m: np.ndarray) -> np.ndarray:
    """Nearest positive semidefinite matrices to a (k, n, n) stack, by one
    stacked eigendecomposition of its Hermitian parts."""
    vals, vecs = _eigh(_sym(m))
    return (vecs * np.clip(vals, 0.0, None)[..., None, :]) @ _herm(vecs)


def _psd_shortfall(m: np.ndarray) -> float:
    """How far the least eigenvalue of a Hermitian matrix falls short of the
    error bound n * eps * ||m||_2 of `eigvalsh`, or 0.  A repair by only
    minus the least eigenvalue (say 1e-17) can be lost in rounding."""
    vals = np.linalg.eigvalsh(_sym(m))
    bound = len(m) * np.finfo(float).eps * max(-vals[0], vals[-1])
    return max(0.0, float(bound - vals[0]))


def _real_image(m: np.ndarray) -> np.ndarray:
    """Re m + Im m of a Hermitian matrix or stack: a real matrix whose
    symmetric part is Re m and whose antisymmetric part is Im m."""
    m = np.asarray(m)
    return m.real + m.imag if np.iscomplexobj(m) else m


def _hermitian(r: np.ndarray) -> np.ndarray:
    """The Hermitian matrix or stack whose real image is r."""
    t = np.swapaxes(r, -1, -2)
    h = np.empty(r.shape, dtype=complex)
    np.add(r, t, out=h.real)
    np.subtract(r, t, out=h.imag)
    h *= 0.5
    return h


# -- the splitting engine ----------------------------------------------------------


def _row_classes(held: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of a boolean (rows, coordinates) array, sorted as
    np.unique(held.T, axis=0) sorts them, and each coordinate's index among
    them.  A column is keyed as the integer whose bits, first row highest,
    are its entries, which sorts the same way at a fraction of the cost."""
    if len(held) > 63:
        raise ValueError(f"{len(held)} rows do not fit a 63-bit key")
    key = (1 << np.arange(len(held) - 1, -1, -1)) @ held
    _, first, labels = np.unique(key, return_index=True, return_inverse=True)
    return held[:, first].T, labels


class _Admm:
    """Consensus ADMM over the k blocks of a program, held as (k, n, n) stacks
    and run as a fixed-point iteration with safeguarded Anderson acceleration.

    The affine set {A x = b} is made of operator rows, one real coefficient
    per block, each holding on its support.  The projection works per
    coordinate class, the coordinates where the same rows A_c hold: there
    x = M_c v + c_c, with the k x k operator M_c = I - A_c^T (A_c A_c^T)^{-1}
    A_c on the block index and the offset c_c = A_c^T (A_c A_c^T)^{-1} b,
    both precomputed; a class where no row holds has M_c = I and no offset.
    The coordinates are those of the orthogonal change to the product basis
    of the program's layout (`supermaps.basis_coords`).  The operator M of
    the largest class acts on the block index only, so it commutes with the
    change of basis: the step applies M to the raw entries and adds the
    whole offset as a raw stack, then corrects each of the m other
    coordinates by (M_c - M) of its value.  Up to DENSE_SHARE of the n^2
    coordinates the correction goes through their basis matrices
    (`supermaps.basis_rows`; one real m x n^2 product each way); above it
    through the change of basis of the whole stack (`supermaps.basis_coords`
    and `basis_matrices`), whose cost does not grow with m, and the rows are
    not built (timings at DENSE_SHARE).
    The cone step applies each subspace block's projector and clips the
    positive semidefinite blocks with one stacked eigendecomposition, except
    those that are positive definite: a block whose last decomposition had
    no nonpositive eigenvalue is tried with a Cholesky factorization, which
    succeeds exactly when the block is positive definite (to rounding), and
    then is its own projection.  A definite setup has robustness 0, and its
    witness run keeps Q positive definite in all but its first evaluations
    (173 of 175 on a noisy definite mixture), so most of its steps decompose
    two blocks, not three.  A block whose factorization fails goes to the
    decomposition in the same step.

    The state is one stack, the Douglas-Rachford variable w.  One evaluation
    of the map T projects z = P_K(w), takes the scaled multipliers u = w - z
    and the affine point x = P_A(z - u - cost/rho), and returns
    T(w) = w + ALPHA (x - z), the over-relaxed ADMM step.  The split
    residuals come from that one evaluation: r is the distance of the cone
    point z from the affine set, and s is rho times the part of x - z along
    the affine set, which is the distance of the slacks -rho u (exact
    dual-cone points) from their own affine set.  rho starts at RHO, and at
    the first accepted evaluation at or past each multiple of CHECKPOINT it
    is doubled when r exceeds BALANCE times s and halved when s exceeds
    BALANCE times r (residual balancing, Boyd et al., Found. Trends Mach.
    Learn. 3, 2011, section 3.4.1, with a band of 2 where they use 10),
    within 1e-5 <= rho <= 1e5.

    Type-II Anderson acceleration (Walker and Ni, SIAM J. Numer. Anal. 49,
    2011) extrapolates from the last MEMORY differences of T and of the
    fixed-point residual g = T(w) - w, held in preallocated ring buffers
    whose Gram matrix gains one row per evaluation.  The safeguard (as in
    Zhang, O'Donoghue and Boyd, SIAM J. Optim. 30, 2020): an extrapolated
    point whose ||g|| exceeds that of the last accepted point is dropped,
    the run restarts from the plain step T of the last accepted point and
    the memory is cleared; a rho change clears it too.  Every evaluation,
    a rejected one included, counts as an iteration.

    Every stack is real: a Hermitian block H, n^2 real degrees of freedom,
    is held as its real image R = Re H + Im H, n^2 floats.  The map is an
    isometry, <R_A, R_B> = Re tr(A* B), so norms and the Anderson Gram matrix
    are those of the blocks, and it commutes with the whole affine step,
    whose maps are real and act alike on Re H and Im H.  Only the cone step,
    `zs` and `slacks` rebuild H = ((R + R^T) + i (R - R^T))/2, and only on a
    complex program, one whose objective or some row's right-hand side is a
    complex array.  A real program's iterates stay real symmetric from the
    zero start, up to rounding, so R is H (see `Block` for its projectors).
    """

    # 12 takes fewer iterations than 10 on every benchmark pair; 11, 13, 14,
    # 15 and 20 take more than 10 on at least one
    MEMORY = 12
    REGULARIZATION = 1e-10
    ALPHA = 1.7
    RHO = 1.0
    # 10 leaves s stuck at 3-5 times r on dense complex mixtures; 1.5 takes
    # more iterations than 2 on the validate floor, and checking every 25
    # iterations instead of every CHECKPOINT more on the game caps
    BALANCE = 2.0

    def __init__(self, prog: ConicProgram):
        self.prog = prog
        self.names = [b.name for b in prog.blocks]
        # whether the cone step must see the blocks as complex matrices
        data = [*prog.objective.values(), *(row.rhs for row in prog.matrix_rows)]
        self.hermitian = any(np.iscomplexobj(m) for m in data)
        psd = [k for k, b in enumerate(prog.blocks) if b.kind == "psd"]
        if psd and psd[-1] - psd[0] != len(psd) - 1:
            raise ValueError(f"{prog.name}: the PSD blocks must be listed side by side")
        # the cone step reads and writes them as one slice of the stack, a view
        self.psd = slice(psd[0], psd[-1] + 1) if psd else slice(0)
        # per PSD block, whether its last eigendecomposition found it
        # positive definite
        self._definite = [False] * len(psd)
        self.sub = [(k, b.project) for k, b in enumerate(prog.blocks) if b.kind == "sub"]
        sign = 1.0 if prog.sense == "min" else -1.0
        self.cost = sign * self._stack(prog.objective)
        self.rho = self.RHO
        self.x = self.z = self.u = self._stack({})
        self.iterations = 0
        self._balance_at = CHECKPOINT  # the iteration of the next rebalance
        self._shift = self.cost / self.rho
        self._d_norm, self._split = np.inf, (np.inf, np.inf)
        self._prepare_affine()
        # the next point to evaluate, whether it is extrapolated, and the
        # factor a rho change still owes its multipliers
        self._next = self._stack({})
        self._extrapolated = False
        self._rescale = 1.0
        # T, g and ||g|| at the last accepted point (T is None after a rho
        # change), and the ring buffers of their differences
        self._f = self._g = None
        self._g_norm = np.inf
        shape = (self.MEMORY, *self.x.shape)
        self._df = np.zeros(shape)
        self._dg = np.zeros(shape)
        # the same buffers as flat rows, so a matrix product takes
        # Hilbert-Schmidt inner products and combinations
        self._df_rows = self._df.reshape(self.MEMORY, -1)
        self._dg_rows = self._dg.reshape(self.MEMORY, -1)
        # Gram matrix of the dG and their products <dG_i, g> with the last g
        self._gram = np.zeros((self.MEMORY, self.MEMORY))
        self._h = np.zeros(self.MEMORY)
        self._filled = self._slot = 0

    def _stack(self, mats: Mapping[str, np.ndarray]) -> np.ndarray:
        """The real images of the named matrices as one (k, n, n) stack, zero
        where a block is absent."""
        n = self.prog.layout.total_dim
        out = np.zeros((len(self.names), n, n))
        for k, name in enumerate(self.names):
            if name in mats:
                out[k] = _real_image(mats[name])
        return out

    def _blocks(self, stack: np.ndarray) -> dict[str, np.ndarray]:
        """The matrices of a stack of real images, name -> matrix (views of
        the stack when the program is real)."""
        return dict(zip(self.names, _hermitian(stack) if self.hermitian else stack))

    @property
    def zs(self) -> dict[str, np.ndarray]:
        """The blocks of z."""
        return self._blocks(self.z)

    @property
    def slacks(self) -> dict[str, np.ndarray]:
        """The slacks -rho * u of every block: each lies in its block's dual
        cone, and at a fixed point they solve the dual program."""
        return self._blocks(-self.rho * self.u)

    def _prepare_affine(self) -> None:
        prog, k = self.prog, len(self.names)
        rows, layout, n = prog.matrix_rows, prog.layout, prog.layout.total_dim
        self._main, self._offset = None, np.zeros((k, n, n))
        self._basis, self._corrections = None, []
        if not rows:  # the projection is the identity
            return
        a = np.array([[row.coeffs.get(name, 0.0) for name in self.names] for row in rows])
        rhs = basis_coords(layout, np.array([_real_image(row.rhs) for row in rows]))
        coords = rhs.shape[1:]  # of one matrix: a pair of axes per wire
        rhs = rhs.reshape(len(rows), -1)
        # which rows hold at each coordinate; a class is one pattern of them,
        # with the operator I and no offset where no row holds
        every = np.ones(n * n, dtype=bool)
        held = np.array([every if row.support is None else np.ravel(row.support) for row in rows])
        patterns, labels = _row_classes(held)
        ops, offset = [], np.zeros((k, n * n))
        for j, pattern in enumerate(patterns):
            op = np.eye(k)
            if pattern.any():
                where = labels == j
                a_c = a[pattern]
                gram = a_c @ a_c.T
                if np.linalg.cond(gram) > 1e10:
                    raise ValueError(f"{prog.name}: operator rows are numerically dependent")
                a_pinv = np.linalg.solve(gram, a_c).T
                op -= a_pinv @ a_c
                offset[:, where] = a_pinv @ rhs[pattern][:, where]
            ops.append(op)
        main = int(np.argmax(np.bincount(labels)))
        order = np.argsort(labels, kind="stable")
        minority = order[labels[order] != main]  # grouped by class
        self._main = ops[main] if patterns[main].any() else None
        offset = offset.reshape(k, *coords)
        self._offset = basis_matrices(layout, offset)
        if len(minority):
            self._minority = minority
            if len(minority) <= DENSE_SHARE * n * n:
                # the basis matrices of those coordinates, as flat rows
                self._basis = basis_rows(layout, minority)
            cuts = [0, *(np.flatnonzero(np.diff(labels[minority])) + 1), len(minority)]
            self._corrections = [
                (slice(lo, hi), ops[labels[minority[lo]]] - ops[main]) for lo, hi in zip(cuts, cuts[1:])
            ]

    def _project_affine(self, v: np.ndarray) -> np.ndarray:
        flat = v.reshape(len(v), -1)
        out = (v if self._main is None else (self._main @ flat).reshape(v.shape)) + self._offset
        if self._corrections:
            if self._basis is None:  # through the change of basis of the whole stack
                coords = basis_coords(self.prog.layout, v)
                picked = coords.reshape(len(v), -1)[:, self._minority]
            else:  # through the basis matrices
                picked = flat @ self._basis.T
            for idx, op in self._corrections:
                picked[:, idx] = op @ picked[:, idx]
            if self._basis is None:
                fixed = np.zeros_like(flat)
                fixed[:, self._minority] = picked
                fix = basis_matrices(self.prog.layout, fixed.reshape(coords.shape))
            else:
                fix = picked @ self._basis
            out += fix.reshape(v.shape)
        return out

    def _project_cone(self, m: np.ndarray) -> np.ndarray:
        """Project each block onto its cone, in place; free blocks stay.

        A PSD block flagged positive definite whose Cholesky factorization
        succeeds is its own projection.  The PSD blocks from the first to the
        last of the others go to one stacked `eigh` as they are (it reads
        one triangle), or as their Hermitian matrices when the program is
        complex, and are rebuilt from their last `keep` eigenpairs, `keep`
        the largest count of positive eigenvalues among them."""
        if self._definite:
            blocks = m[self.psd]  # a view
            mats = _hermitian(blocks) if self.hermitian else blocks
            need = [not definite for definite in self._definite]
            for j, definite in enumerate(self._definite):
                if definite:
                    try:
                        np.linalg.cholesky(mats[j])
                    except np.linalg.LinAlgError:
                        need[j] = True
            if True in need:
                lo, hi = need.index(True), len(need) - need[::-1].index(True)
                vals, vecs = _eigh(mats[lo:hi])
                positive = vals > 0.0
                self._definite[lo:hi] = positive[:, 0].tolist()
                first = len(m[0]) - positive.sum(axis=1).max()
                vals, vecs = vals[:, first:], vecs[..., first:]
                np.matmul(vecs * np.clip(vals, 0.0, None)[:, None, :], _herm(vecs), out=mats[lo:hi])
                if self.hermitian:
                    blocks[lo:hi] = _real_image(mats[lo:hi])
        for k, project in self.sub:
            if self.hermitian:
                m[k] = _real_image(_sym(project(_hermitian(m[k]))))
            else:
                m[k] = _sym(project(m[k]))
        return m

    def step(self) -> None:
        """Evaluate T at the next point, then accept the point or drop it."""
        w = self._next
        z = self._project_cone(w.copy())
        u = w - z
        if self._rescale != 1.0:
            u *= self._rescale
            w = z + u
            self._rescale = 1.0
        v = z - u
        v -= self._shift
        x = self._project_affine(v)
        d = np.subtract(x, z, out=v)  # the affine step returns a new stack
        flat = d.reshape(-1)
        d_norm = math.sqrt(flat @ flat)
        self.iterations += 1
        if self._extrapolated and self.ALPHA * d_norm > self._g_norm:
            # safeguard: restart from the plain step of the last accepted
            # point, which stays the base of the next difference
            self._next, self._extrapolated = self._f, False
            self._forget()
            return
        # polishes read blocks of z as views and `split` reads x later;
        # nothing may write into them
        x.flags.writeable = z.flags.writeable = False
        self.x, self.z, self.u = x, z, u
        self._d_norm, self._split = d_norm, None
        g = d
        g *= self.ALPHA  # the fixed-point residual T(w) - w, in place
        f = g + w
        if self._f is not None:
            self._remember(f, g)
        self._f, self._g, self._g_norm = f, g, self.ALPHA * d_norm
        factor = 1.0
        if self.iterations >= self._balance_at:
            # the safeguard may drop the evaluation on the multiple itself
            self._balance_at = (self.iterations // CHECKPOINT + 1) * CHECKPOINT
            factor = self._rebalance()
        if factor != 1.0:
            # T changes with rho: evaluate the plain step next, its
            # multipliers rescaled like the current ones, with a fresh memory
            self.rho *= factor
            self._shift = self.cost / self.rho
            self.u = self.u / factor
            self._rescale = 1.0 / factor
            self._next, self._extrapolated = f, False
            self._f = self._g = None
            self._forget()
        else:
            self._next, self._extrapolated = self._extrapolate(f)

    @property
    def split(self) -> tuple[float, float]:
        """The split residuals (r, s) of the last accepted evaluation: r is
        the distance of z from the affine set, s is rho times the distance of
        x from the affine projection of z.  The two are the orthogonal parts
        of x - z, so r^2 + (s/rho)^2 = ||x - z||^2."""
        if self._split is None:
            p = self._project_affine(self.z)
            self._split = (
                float(np.linalg.norm(self.z - p)),
                self.rho * float(np.linalg.norm(self.x - p)),
            )
        return self._split

    def met(self, tol: float) -> bool:
        """Whether both split residuals are <= tol, skipping the affine
        projection when ||x - z|| already rules it out."""
        if self._split is None and self._d_norm > tol * np.sqrt(1.0 + self.rho**-2):
            return False
        return max(self.split) <= tol

    def _rebalance(self) -> float:
        """The factor on rho that moves the split residuals toward balance."""
        r, s = self.split
        if r > self.BALANCE * s and self.rho < 1e5:
            return 2.0
        if s > self.BALANCE * r and self.rho > 1e-5:
            return 0.5
        return 1.0

    def _remember(self, f: np.ndarray, g: np.ndarray) -> None:
        """Store the differences from the last accepted T and g in the ring,
        over the oldest pair when it is full, with their row of the Gram
        matrix and the products of every stored dG with the new g."""
        j = self._slot
        np.subtract(f, self._f, out=self._df[j])
        np.subtract(g, self._g, out=self._dg[j])
        self._slot = (j + 1) % self.MEMORY
        self._filled = m = min(self._filled + 1, self.MEMORY)
        rows = self._dg_rows[:m]
        row = rows @ rows[j]
        self._gram[j, :m] = row
        self._gram[:m, j] = row
        # g = old g + dG_j, so each older <dG_i, g> gains <dG_i, dG_j>
        self._h[:m] += row
        self._h[j] = rows[j] @ g.reshape(-1)

    def _forget(self) -> None:
        self._filled = self._slot = 0

    def _extrapolate(self, f: np.ndarray) -> tuple[np.ndarray, bool]:
        """The type-II Anderson point T(w) - dF gamma, gamma the regularized
        least-squares fit of the last g by the residual differences dG."""
        m = self._filled
        if m == 0:
            return f, False
        gram = self._gram[:m, :m]
        reg = self.REGULARIZATION * gram.diagonal().sum()
        if reg <= 0.0:
            return f, False
        gamma = np.linalg.solve(gram + reg * np.eye(m), self._h[:m])
        step = (gamma @ self._df_rows[:m]).reshape(f.shape)
        return np.subtract(f, step, out=step), True

    def run(self, tol: float, max_iter: int) -> None:
        start = self.iterations
        while self.iterations - start < max_iter:
            self.step()
            if self.met(tol):
                break


def _feasibility_residuals(prog: ConicProgram, xs: Mapping[str, np.ndarray]) -> dict[str, float]:
    """Residuals of every affine row, on its support, and the worst cone
    violations at a point."""
    out: dict[str, float] = {}
    for row in prog.matrix_rows:
        res = -np.asarray(row.rhs)
        for name, coeff in row.coeffs.items():
            res = res + coeff * xs[name]
        if row.support is not None:
            res = basis_coords(prog.layout, res)[row.support]
        out[f"row:{row.name}"] = float(np.linalg.norm(res))
    worst_psd = 0.0
    worst_sub = 0.0
    for blk in prog.blocks:
        if blk.kind == "psd":
            worst_psd = max(worst_psd, -min(min_eigenvalue(_sym(xs[blk.name])), 0.0))
        elif blk.kind == "sub":
            worst_sub = max(
                worst_sub, float(np.linalg.norm(xs[blk.name] - blk.project(xs[blk.name])))
            )
    out["cone:psd"] = worst_psd
    out["cone:subspace"] = worst_sub
    return out


def _side_residuals(
    prog: ConicProgram, point: Mapping[str, np.ndarray], split: tuple[float, float]
) -> dict[str, float]:
    """Feasibility residuals of a side's point, plus the run's (primal, dual)
    split residuals as that side sees them."""
    out = _feasibility_residuals(prog, point)
    out["split:primal"], out["split:dual"] = split
    return out


def solve(prog: ConicProgram) -> SolveReport:
    """Run the splitting iteration on one program and polish its point.

    The report fills only this program's side with the certified value of
    the polished point: `upper` for a min program, `lower` for a max
    program; the other bound is infinite.  The polished point is reported in
    extras["upper_point"] or extras["lower_point"], next to the polish
    diagnostics, and `converged` means both split residuals are <=
    RESIDUAL_TOL within MAX_ITER iterations.
    """
    admm = _Admm(prog)
    admm.run(RESIDUAL_TOL, MAX_ITER)
    value, point, extras = prog.polish(admm.zs)
    side = "upper" if prog.sense == "min" else "lower"
    bounds = {"upper": np.inf, "lower": -np.inf, side: value}
    split = admm.split
    return SolveReport(
        **bounds,
        iterations=admm.iterations,
        converged=max(split) <= RESIDUAL_TOL,
        residuals=_side_residuals(prog, point, split),
        extras={**extras, f"{side}_point": point},
    )


def _gap_closed(upper: float, lower: float) -> bool:
    return upper - lower <= GAP_TOL


def _next_checkpoint(best: Sequence[tuple[int, float]]) -> int:
    """The iteration of a certified pair's next checkpoint, given the
    (iterations, least gap so far) of the checkpoints before it.

    When the least gap is above GAP_TOL and fell since the checkpoint before,
    it is where the gap, falling on at the rate observed between the two,
    reaches GAP_TOL, kept CHECKPOINT // 5 to CHECKPOINT iterations ahead.
    Otherwise (no rate yet, a flat gap, or one a custom stop rule runs past
    GAP_TOL) it is the next multiple of CHECKPOINT."""
    it, least = best[-1] if best else (0, np.inf)
    if len(best) > 1 and GAP_TOL < least < best[-2][1]:
        rate = math.log(best[-2][1] / least) / (it - best[-2][0])
        ahead = math.ceil(math.log(least / GAP_TOL) / rate)
        return it + min(max(ahead, CHECKPOINT // 5), CHECKPOINT)
    return (it // CHECKPOINT + 1) * CHECKPOINT


def _solve_pair(
    min_prog: ConicProgram,
    max_prog: ConicProgram,
    max_iter: int,
    done: Callable[[float, float], bool] = _gap_closed,
) -> SolveReport:
    """Certify a matched (min, max) pair with one splitting run, on the max
    side, checkpointed where `_next_checkpoint` places it: every CHECKPOINT
    iterations, or where the gap's rate of fall says it reaches GAP_TOL.

    At each checkpoint the max side's iterate and its slacks mapped by
    `min_prog.slack_map` are polished into exactly feasible points of their
    own sides: the min side's value is the certified `upper` bound on the
    optimum, the max side's the certified `lower` bound.  A checkpoint also
    comes early when both split residuals first drop to RESIDUAL_TOL (a game
    cap closes its gap there, at 40 iterations).  The run stops converged at
    the first checkpoint where done(upper, lower) holds, by default where the
    gap is <= GAP_TOL; the split residuals need not be small then.  It stops
    unconverged at max_iter, or when done does not hold and the least gap
    seen has fallen by less than STALL_DROP over the last STALL_WINDOW
    iterations.

    The report holds the last checkpoint's bounds, both polished points and
    both sides' polish diagnostics in `extras`, and both sides' residuals
    under the prefixes "primal:" (min side) and "dual:" (max side).
    """
    admm = _Admm(max_prog)
    best: list[tuple[int, float]] = []  # (iterations, least gap so far) per checkpoint
    stop_tol = RESIDUAL_TOL
    while True:
        admm.run(stop_tol, min(_next_checkpoint(best), max_iter) - admm.iterations)
        v_max, sol_max, ex_max = max_prog.polish(admm.zs)
        slacks = admm.slacks
        point = {name: slacks[src] for name, src in min_prog.slack_map.items()}
        v_min, sol_min, ex_min = min_prog.polish(point)
        gap = v_min - v_max
        converged = done(v_min, v_max)
        if converged or admm.iterations >= max_iter:
            break
        best.append((admm.iterations, min(gap, best[-1][1]) if best else gap))
        before = [least for it, least in best if it <= admm.iterations - STALL_WINDOW]
        if before and best[-1][1] > (1 - STALL_DROP) * before[-1]:
            break
        # once the residuals have reached RESIDUAL_TOL, run whole chunks
        stop_tol = 0.0 if admm.met(RESIDUAL_TOL) else RESIDUAL_TOL
    split = admm.split
    # the run's primal residual is the min side's dual residual, and back
    res_min = _side_residuals(min_prog, sol_min, split[::-1])
    res_max = _side_residuals(max_prog, sol_max, split)
    return SolveReport(
        upper=v_min,
        lower=v_max,
        iterations=admm.iterations,
        converged=converged,
        residuals={
            **{f"primal:{k}": v for k, v in res_min.items()},
            **{f"dual:{k}": v for k, v in res_max.items()},
        },
        extras={**ex_min, **ex_max, "upper_point": sol_min, "lower_point": sol_max},
    )


# -- geometry shared by the single-slot programs ---------------------------------------


class _SlotGeometry:
    """Span masks, dimensions and exactly-represented data for one setup
    (checked by the caller)."""

    def __init__(self, setup: SetupOperator):
        self.layout = setup.op.layout
        self.n = self.layout.total_dim
        self.eye = np.eye(self.n)
        self.general, self.forward, self.backward = (
            SpanMask.of_setup(setup, cone) for cone in ConeId
        )
        self.dd = self.general.trace_target
        # the setup matrix re-projected onto its span, so the polish identities
        # close to floating-point accuracy; real when the setup is
        self.s_mat = _sym(self.general.project(setup.op.matrix))


def _complement(mask: SpanMask) -> Callable:
    """Projector onto the orthogonal complement of a span."""
    return lambda m: m - mask.project(m)


def _mix_to_psd(
    blocks: dict[str, np.ndarray],
    interior: dict[str, np.ndarray],
    margins: Mapping[str, float],
) -> tuple[dict[str, np.ndarray], float]:
    """Mix every block toward a strictly feasible interior point, just far
    enough that the blocks named in `margins`, the least eigenvalues of the
    interior's blocks, become positive semidefinite with the margin of
    `_psd_shortfall`."""
    gamma = 0.0
    for name, margin in margins.items():
        eps = _psd_shortfall(blocks[name])
        if eps == 0.0:
            continue
        if margin <= 0:
            raise ValueError(f"interior block {name!r} is not strictly positive")
        gamma = max(gamma, eps / (eps + margin))
    gamma = min(1.0, 1.05 * gamma)
    if gamma == 0.0:
        return dict(blocks), 0.0
    mixed = {name: (1 - gamma) * blocks[name] + gamma * interior[name] for name in blocks}
    return mixed, gamma


# -- the robustness pair -----------------------------------------------------------------


def _robustness_primal(geom: _SlotGeometry) -> ConicProgram:
    """min Tr(T)/dd over general-cone noise T such that S + T splits into a
    forward plus a backward part F + B; the min side of the robustness pair.

    The polish projects F and B onto their spans and sets T = F + B - S,
    which lies in the general span with them, so the whole split residual
    goes into T and every row holds to rounding.  It then repairs
    positivity, keeping T = F + B - S.  First along negative parts, which
    cost their trace: T's, projected onto the general span and split by
    coordinates between F (those the forward span keeps) and B (the rest,
    which the backward span keeps), then F's and B's own, projected onto
    their spans.  Then along the identity, a member of every span, which
    costs n per unit: T gains the bump, F and B half of it each.  The
    diagnostics "negative_part_trace" and "positivity_bump" are the trace
    the first step added to T and the multiple of the identity the second
    added.  The restricted pair uses this program for the reduced
    setup E*(S) (`restricted_reduction`), its polish first applying E* to
    the witness run's slacks."""
    n, dd, eye, s = geom.n, geom.dd, geom.eye, geom.s_mat
    zero = np.zeros((n, n))
    rows = (
        MatrixRow("noise-in-span", {"T": 1.0}, zero, ~geom.general.keep),
        MatrixRow("forward-in-span", {"F": 1.0}, zero, ~geom.forward.keep),
        MatrixRow("backward-in-span", {"B": 1.0}, zero, ~geom.backward.keep),
        MatrixRow("definite-split", {"F": 1.0, "B": 1.0, "T": -1.0}, s),
    )

    def polish(zs):
        f = _sym(geom.forward.project(zs["F"]))
        b = _sym(geom.backward.project(zs["B"]))
        t0 = f + b - s
        # T's negative part (the PSD clip of -T) projected onto the general
        # span, split by coordinates: the general span keeps exactly those
        # the forward or the backward span keeps
        d = geom.general.project(_psd_clip(-t0))
        d_f = geom.forward.project(d)
        f, b = f + d_f, b + d - d_f
        f = _sym(f + geom.forward.project(_psd_clip(-f)))
        b = _sym(b + geom.backward.project(_psd_clip(-b)))
        t = _sym(f + b - s)
        added = float(np.trace(t - t0).real)
        # positivity repair along the identity, a member of every span
        bump = max(2 * _psd_shortfall(f), 2 * _psd_shortfall(b), _psd_shortfall(t)) * (1 + 1e-9)
        t = t + bump * eye
        f = f + bump / 2 * eye
        b = b + bump / 2 * eye
        value = float(np.trace(t).real) / dd
        return value, {"T": t, "F": f, "B": b}, {"negative_part_trace": added, "positivity_bump": bump}

    return ConicProgram(
        name="robustness:primal",
        layout=geom.layout,
        blocks=(Block("T", "psd"), Block("F", "psd"), Block("B", "psd")),
        matrix_rows=rows,
        objective={"T": eye / dd},
        sense="min",
        polish=polish,
        # T, F and B are the slacks of the witness program's Q, P_fwd and P_bwd
        slack_map={"T": "Q", "F": "P_fwd", "B": "P_bwd"},
    )


def _robustness_dual(geom: _SlotGeometry, witness_subspace: Callable | None) -> ConicProgram:
    """max -<S, W> over witnesses W nonnegative on both fixed directions and
    dominated by I/dd on the general cone.

    W is nonnegative on the definite cone C_F + C_B exactly when it lies in
    the dual C_F* ∩ C_B*, and each C_d* is the PSD cone plus the orthogonal
    complement of span(d): W = W_d + P_d with W_d ⟂ span(d) and P_d ⪰ 0, one
    complement part per direction.  So W - P_d vanishes on the coordinates
    span(d) keeps, and W + Q = I/dd on those the general span keeps; the
    polish computes the complement parts W_d and Z, and W - P_d of its point
    is the certificate part W_d."""
    n, dd, eye, s = geom.n, geom.dd, geom.eye, geom.s_mat
    restricted = witness_subspace is not None
    zero = np.zeros((n, n))
    c_fwd, c_bwd, c_gen = (_complement(m) for m in (geom.forward, geom.backward, geom.general))
    blocks = (
        Block("W", "sub", witness_subspace) if restricted else Block("W", "free"),
        Block("P_fwd", "psd"),
        Block("P_bwd", "psd"),
        Block("Q", "psd"),
    )
    rows = (
        MatrixRow("forward-direction", {"W": 1.0, "P_fwd": -1.0}, zero, geom.forward.keep),
        MatrixRow("backward-direction", {"W": 1.0, "P_bwd": -1.0}, zero, geom.backward.keep),
        MatrixRow("general-domination", {"W": 1.0, "Q": 1.0}, eye / dd, geom.general.keep),
    )

    if restricted:
        interior = _restricted_dual_interior(geom, witness_subspace)
    else:
        w0 = eye / (2 * dd)
        interior = {"W": w0, "P_fwd": w0, "P_bwd": w0, "Q": eye / dd - w0}
    margins = {name: min_eigenvalue(_sym(interior[name])) for name in ("P_fwd", "P_bwd", "Q")}

    def polish(zs):
        w = _sym(witness_subspace(zs["W"])) if restricted else _sym(zs["W"])
        w_fwd = _sym(c_fwd(w - zs["P_fwd"]))
        w_bwd = _sym(c_bwd(w - zs["P_bwd"]))
        z = _sym(c_gen(eye / dd - w - zs["Q"]))
        point = {"W": w, "P_fwd": w - w_fwd, "P_bwd": w - w_bwd, "Q": eye / dd - w - z}
        mixed, gamma = _mix_to_psd(point, interior, margins)
        value = 0.0 - hs_inner(s, mixed["W"])  # not -(...): W = 0 would give -0.0
        if value < 0.0:
            # W = 0 is always feasible with value 0; never report below it
            mixed = {name: zero.copy() for name in point}
            mixed["Q"] = eye / dd
            value = 0.0
        return value, mixed, {"interior_mix": gamma}

    tag = "robustness-restricted" if restricted else "robustness"
    return ConicProgram(
        name=f"{tag}:dual",
        layout=geom.layout,
        blocks=blocks,
        matrix_rows=rows,
        objective={"W": -s},
        sense="max",
        polish=polish,
    )


def _restricted_dual_interior(geom: _SlotGeometry, project: Callable) -> dict[str, np.ndarray]:
    """A strictly feasible witness of the restricted form, recentered inside
    both direction cones by a traceless component on the global input (one
    qubit, as `restricted_reduction` has checked).  That component is
    orthogonal to the uniform-global-input span, which contains both
    direction spans, so it serves as either direction's complement part.
    `project` is the restricted form's projector E E*/d_ot; it takes the
    identity to P0 = |0><0| on B_it, the identity on every other wire."""
    p0_full, dd = project(np.eye(geom.n)), geom.dd
    w = p0_full / (2 * dd)
    w_dir = (2 * p0_full - geom.eye) / (4 * dd)
    # margins: P_fwd = P_bwd = I/(4 dd); Q = I/dd - P0/(2 dd) has least
    # eigenvalue 1/(2 dd)
    return {"W": w, "P_fwd": w - w_dir, "P_bwd": w - w_dir, "Q": geom.eye / dd - w}


# -- restricted-witness machinery -----------------------------------------------------

# the wires the restricted witness pins to |0> and sums over
_PINNED, _TRACED = "B_it", "B_ot"


def restricted_reduction(setup: SetupOperator) -> tuple[SetupOperator, Callable, Callable, Callable]:
    """The experimentally accessible witness form of a setup: B_it prepared
    in |0>, B_ot summed over, everything else free.  Returns the reduced
    setup E*(S), the reduction E*(X) = <0|_B_it Tr_B_ot(X) |0>_B_it, its
    adjoint E(Y) = |0><0|_B_it (x) Y (x) I_B_ot, and the orthogonal
    projector E E*/d_ot onto the restricted witnesses, all on raw matrices;
    d_ot is the dimension of B_ot, and E* E = d_ot.  The wires are found by
    label, as in the restricted decomposition of the witness module; without
    a one-qubit global input B_it and a global-output wire B_ot it raises
    ValueError.

    The reduced layout keeps every wire in place, B_it and B_ot at dimension
    one (so B_ot still carries the global-output role when no other wire
    does).  E* maps the general, forward and backward cones onto those of
    the reduced setup, and the embedding X -> I_B_it (x) X (x) I_B_ot/d_ot
    maps them back with Tr(X)/dd unchanged, while E* vanishes on the
    complement of the restricted witnesses.  So the restricted noise program
    is the full noise program of E*(S)."""
    layout = setup.op.layout
    if (
        setup.labels(ROLE_GLOBAL_INPUT) != (_PINNED,)
        or layout.dim(_PINNED) != 2
        or setup.roles.get(_TRACED) != ROLE_GLOBAL_OUTPUT
    ):
        raise ValueError(
            f"the restricted witness form needs one qubit global input {_PINNED} "
            f"and the global output wire {_TRACED}"
        )
    reduced = SystemLayout(
        tuple((lab, 1 if lab in (_PINNED, _TRACED) else d) for lab, d in layout.factors)
    )
    shape, n, full = layout.dims * 2, reduced.total_dim, layout.total_dim
    # the B_it = 0 block at each diagonal index of B_ot: E* sums them, E
    # writes Y into each
    blocks = [
        tuple(0 if lab == _PINNED else j if lab == _TRACED else slice(None) for lab in layout.labels) * 2
        for j in range(layout.dim(_TRACED))
    ]

    def restrict(m: np.ndarray) -> np.ndarray:
        t = m.reshape(shape)
        return reduce(np.add, (t[block] for block in blocks)).reshape(n, n)

    def adjoint(y: np.ndarray) -> np.ndarray:
        out = np.zeros(shape, dtype=y.dtype)
        for block in blocks:
            out[block] = y.reshape(out[block].shape)
        return out.reshape(full, full)

    def project(m: np.ndarray) -> np.ndarray:
        return adjoint(restrict(m) * (1 / len(blocks)))

    op = HermitianOperator(reduced, restrict(setup.op.matrix))
    return SetupOperator(op, setup.roles), restrict, adjoint, project


# -- the public drivers ---------------------------------------------------------------


def solve_max_robustness(
    setup: SetupOperator,
    max_iter: int = MAX_ITER,
    restricted: bool = False,
) -> tuple[SolveReport, HermitianOperator]:
    """Generalized robustness of a setup: the least general-cone noise whose
    admixture pushes the setup into the cone of fixed-direction mixtures.

    Returns the pair report and the optimal witness.  The report's `lower`
    is a certified lower bound on the robustness (it equals the witness
    expectation of the returned witness), `upper` a certified upper bound
    (the trace of an exactly feasible noise, the split residual taken into
    it), and `gap` their difference; the run stops converged at the first
    checkpoint (`_next_checkpoint`) where the gap is at most GAP_TOL,
    however large the split residuals still are, and `max_iter` caps its
    iterations.
    extras["certificate"] is the witness's splitting certificate
    (W_fwd, W_bwd), whose identities `witness.certificate_residuals` checks:
    W_d = W - P_d is orthogonal to the span of direction d and P_d is
    positive semidefinite; the slacks P_fwd, P_bwd and Q are in
    extras["lower_point"].

    `restricted` confines the witness to the experimentally accessible
    subspace, the image of the projector E E*/d_ot built from the reduction
    E* and its adjoint E (`restricted_reduction`).  The upper bound then comes
    from the full noise program of the reduced setup E*(S), polished from E*
    of the witness run's slacks, and extras["upper_point"] lives on the
    reduced layout.
    """
    check = check_setup(setup, tol=1e-6)
    if not check.passed["general"]:
        raise ValueError(
            "setup is not a valid general-direction operator "
            f"(min eig {check.min_eigenvalue:.2e}, residuals {check.residuals['general']})"
        )
    geom = _SlotGeometry(setup)
    if restricted:
        reduced, restrict, _, project = restricted_reduction(setup)
        dual = _robustness_dual(geom, project)
        # the reduced setup is not checked again: E* sums d_ot compressions,
        # so its least eigenvalue may reach d_ot times the tolerance above
        reduced_primal = _robustness_primal(_SlotGeometry(reduced))

        def polish(zs):
            return reduced_primal.polish({name: restrict(m) for name, m in zs.items()})

        primal = replace(reduced_primal, name="robustness-restricted:primal", polish=polish)
    else:
        primal, dual = _robustness_primal(geom), _robustness_dual(geom, None)
    report = _solve_pair(primal, dual, max_iter)
    point = report.extras["lower_point"]
    witness = HermitianOperator(geom.layout, point["W"])
    report.extras["certificate"] = tuple(
        HermitianOperator(geom.layout, point["W"] - point[part]) for part in ("P_fwd", "P_bwd")
    )
    return report, witness


# -- cone-value programs over fixed directions (shared with the game module) -------------


def cone_value_programs(
    target: np.ndarray,
    spans: Mapping[str, SpanMask],
) -> tuple[ConicProgram, ConicProgram]:
    """max <target, sum_d S_d> over operators S_d, each positive semidefinite
    inside its named span, with total trace dd; plus the matching
    upper-bound program.  Returned as (min side, max side).

    The spans share one layout and one trace normalization dd, their
    `trace_target`.  The value program has S_d = 0 off the coordinates span d
    keeps and sum_d S_d = (dd/n) I on the identity coordinate; the bound
    program has N = nu I and N - Q_d = target on the coordinates span d
    keeps, nu I - target - Q_d being the complement part Z_d.  The programs
    are real when `target` is."""
    first = next(iter(spans.values()))
    layout, dd = first.layout, first.trace_target
    if any(mask.layout != layout or mask.trace_target != dd for mask in spans.values()):
        raise ValueError("the spans of a cone-value program must share one layout and one trace")
    n = layout.total_dim
    eye = np.eye(n)
    names = list(spans)
    zero = np.zeros((n, n))
    identity = identity_coordinate(layout)

    rows_p = [MatrixRow(f"{name}-in-span", {name: 1.0}, zero, ~spans[name].keep) for name in names]
    trace = MatrixRow("trace-normalization", dict.fromkeys(names, 1.0), (dd / n) * eye, identity)
    rows_p.append(trace)
    white = (dd / (n * len(names))) * eye
    interior = dict.fromkeys(names, white)
    margins = dict.fromkeys(names, min_eigenvalue(_sym(white)))

    def polish_value(zs):
        parts = {name: _sym(spans[name].project(zs[name])) for name in names}
        total = sum(float(np.trace(m).real) for m in parts.values())
        if total <= dd * 1e-6:
            parts = {name: white.copy() for name in names}
        else:
            parts = {name: m * (dd / total) for name, m in parts.items()}
        mixed, gamma = _mix_to_psd(parts, interior, margins)
        value = sum(hs_inner(target, mixed[name]) for name in names)
        return value, mixed, {"interior_mix": gamma}

    value_prog = ConicProgram(
        name="cone-value:value",
        layout=layout,
        blocks=tuple(Block(name, "psd") for name in names),
        matrix_rows=tuple(rows_p),
        objective=dict.fromkeys(names, target),
        sense="max",
        polish=polish_value,
    )

    complements = {name: _complement(spans[name]) for name in names}
    rows_d = [MatrixRow("bound-is-scalar", {"N": 1.0}, zero, ~identity)]
    rows_d += [
        MatrixRow(f"{name}-domination", {"N": 1.0, f"Q_{name}": -1.0}, target, spans[name].keep)
        for name in names
    ]

    def polish_bound(zs):
        zmats = {name: _sym(complements[name](-target - zs[f"Q_{name}"])) for name in names}
        nu = max(-min_eigenvalue(_sym(-target - zmats[name])) for name in names)
        nu += abs(nu) * 1e-12
        solution: dict[str, np.ndarray] = {"N": nu * eye}
        for name in names:
            solution[f"Q_{name}"] = nu * eye - target - zmats[name]
        return nu * dd, solution, {"nu": nu, "complements": zmats}

    bound_prog = ConicProgram(
        name="cone-value:bound",
        layout=layout,
        blocks=(Block("N", "free"), *(Block(f"Q_{name}", "psd") for name in names)),
        matrix_rows=tuple(rows_d),
        objective={"N": (dd / n) * eye},
        sense="min",
        polish=polish_bound,
        slack_map={f"Q_{name}": name for name in names},
    )
    return bound_prog, value_prog


def solve_cone_value(
    target: np.ndarray,
    spans: Mapping[str, SpanMask],
    done: Callable[[float, float], bool] = _gap_closed,
) -> SolveReport:
    """Certified maximum of <target, .> over mixtures of the named cones, each
    given by the mask of its span, normalized to the spans' `trace_target`:
    `upper` bounds the maximum from above and `lower` is attained by an
    exactly feasible mixture, whose part in each span is in
    extras["lower_point"].  extras["complements"] holds the bound side's
    complement part Z_d of each span.  The run ends converged at the first
    checkpoint (`_next_checkpoint`) where done(upper, lower) holds, by
    default where the certified gap is at most GAP_TOL; a checkpoint comes
    early when the split residuals first reach RESIDUAL_TOL."""
    return _solve_pair(*cone_value_programs(target, spans), MAX_ITER, done)
