"""Setup operators: processes that use a device in the forward direction, the
backward direction, or a coherent combination of both.

A setup is a Hermitian operator over a labeled layout whose wires carry one of
four roles: the pair handed to the device (slot input / slot output) and the
pair facing the rest of the world (global input / global output).  Validity is
a set of linear conditions, each a product of trace-and-replace maps; all of
them are diagonal in one product operator basis, so every condition and every
span is a 0/1 support mask over that basis.  The same masks produce the
subspace projectors used by the conic solver and the one membership report,
which answers the general, forward and backward cones together; the module
also builds the coherently controlled direction-flip setup and applies
supermaps via the link contraction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from itertools import combinations
from math import prod, sqrt
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .channels import KrausChannel, kraus_to_choi
from .tensor_core import (
    HermitianOperator,
    SystemLayout,
    atomic_write_text,
    identity,
    min_eigenvalue,
    operator_from_dict,
    operator_to_dict,
    partial_trace_matrix,
    partial_transpose,
    permute_factors,
    qubits,
    relabel,
    split_factor,
    tensor_product,
    trace_and_replace,
)

# Absolute tolerance for linear-condition residuals on trace-normalized setups.
MEMBERSHIP_TOL = 1e-9

ROLE_SLOT_INPUT = "slot-input"
ROLE_SLOT_OUTPUT = "slot-output"
ROLE_GLOBAL_INPUT = "global-input"
ROLE_GLOBAL_OUTPUT = "global-output"
ROLES = (ROLE_SLOT_INPUT, ROLE_SLOT_OUTPUT, ROLE_GLOBAL_INPUT, ROLE_GLOBAL_OUTPUT)


class ConeId(Enum):
    """Cones of setup operators; a `SpanMask` cuts out each one's affine span."""

    GENERAL = "general"
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class SlotSpec:
    """One device slot: the wire groups plugged to the device input and output."""

    input: tuple[str, ...]
    output: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "input", tuple(str(l) for l in self.input))
        object.__setattr__(self, "output", tuple(str(l) for l in self.output))

    @property
    def labels(self) -> tuple[str, ...]:
        return self.input + self.output


@dataclass(frozen=True)
class SetupOperator:
    """A Hermitian operator whose layout labels are tagged with wire roles."""

    op: HermitianOperator
    roles: Mapping[str, str]

    def __post_init__(self):
        roles = {str(k): str(v) for k, v in dict(self.roles).items()}
        layout_labels = set(self.op.layout.labels)
        if set(roles) != layout_labels:
            raise ValueError(
                f"roles must cover the layout labels exactly: got {sorted(roles)}, layout has {sorted(layout_labels)}"
            )
        bad = sorted(lab for lab, role in roles.items() if role not in ROLES)
        if bad:
            raise ValueError(f"unknown role for labels {bad}; valid roles are {ROLES}")
        for role in ROLES:
            if role not in roles.values():
                raise ValueError(f"no factor carries role {role!r}")
        object.__setattr__(self, "roles", roles)
        if self.slot_input_dim != self.slot_output_dim:
            raise ValueError(
                f"slot input dimension {self.slot_input_dim} != slot output dimension {self.slot_output_dim}"
            )

    def labels(self, role: str) -> tuple[str, ...]:
        """Labels carrying the given role, in layout order."""
        return tuple(lab for lab in self.op.layout.labels if self.roles[lab] == role)

    def role_dim(self, role: str) -> int:
        return prod(self.op.layout.dim(lab) for lab in self.labels(role))

    @property
    def slot_input_dim(self) -> int:
        return self.role_dim(ROLE_SLOT_INPUT)

    @property
    def slot_output_dim(self) -> int:
        return self.role_dim(ROLE_SLOT_OUTPUT)

    @property
    def global_input_dim(self) -> int:
        return self.role_dim(ROLE_GLOBAL_INPUT)

    @property
    def trace_target(self) -> float:
        """Trace normalization of a valid setup: d_slot * d_global_input."""
        return float(self.slot_input_dim * self.global_input_dim)

    def slot(self) -> SlotSpec:
        return SlotSpec(self.labels(ROLE_SLOT_INPUT), self.labels(ROLE_SLOT_OUTPUT))


# -- support masks ---------------------------------------------------------------
#
# Every trace-and-replace map t_X is diagonal in a product operator basis whose
# first element on each wire is I/sqrt(d): it keeps the coordinates that are
# the identity on every wire of X.  So a condition prod_g (id - t_g) . t_always
# picks the coordinates traceless on at least one wire of each group g and the
# identity on every wire of `always`; a span keeps what no condition picks.

# the condition kinds each span imposes
_SPAN_KINDS = {
    ConeId.GENERAL: ("uniform-global-input", "normalization"),
    ConeId.FORWARD: ("uniform-global-input", "normalization", "forward"),
    ConeId.BACKWARD: ("uniform-global-input", "normalization", "backward"),
}


def _group_dim(layout: SystemLayout, labels: Iterable[str]) -> int:
    return prod(layout.dim(lab) for lab in labels)


@lru_cache(maxsize=None)
def _wire_change(d: int) -> np.ndarray:
    """Orthogonal change of basis on one wire's d*d matrix units: a real
    orthogonal matrix whose first row is 1/sqrt(d) mixes the diagonal units,
    row a landing on the position of the unit (a, a)."""
    mix = np.linalg.qr(np.column_stack([np.ones(d), np.eye(d)[:, 1:]]))[0].T
    change = np.eye(d * d)
    diag = np.arange(d) * (d + 1)
    change[np.ix_(diag, diag)] = mix * np.sign(mix[0, 0])
    change.flags.writeable = False  # cached: every caller shares it
    return change


def _pair_shape(dims: Sequence[int]) -> tuple[int, ...]:
    return tuple(d for d in dims for _ in range(2))


def basis_coords(layout: SystemLayout, mats: np.ndarray) -> np.ndarray:
    """Product-basis coordinates of a raw matrix or of every matrix in a
    stack of shape (..., n, n): an array of shape (..., d1, d1, d2, d2, ...),
    a (row, column) pair of axes per wire.  The change of basis is real and
    orthogonal, so it keeps real matrices real and Hilbert-Schmidt inner
    products unchanged."""
    dims = layout.dims
    mats = np.asarray(mats)
    lead = mats.shape[:-2]
    wires = len(dims)
    pairs = [1 + k + side for k in range(wires) for side in (0, wires)]
    # the stack axis goes last; each pass changes the basis of the leading
    # wire and rotates it last, so after every wire the stack axis leads
    t = mats.reshape((-1, *dims, *dims)).transpose(pairs + [0])
    for d in dims:
        t = (_wire_change(d) @ t.reshape(d * d, -1)).T
    return t.reshape(lead + _pair_shape(dims))


def basis_matrices(layout: SystemLayout, coords: np.ndarray) -> np.ndarray:
    """The raw matrices with the given product-basis coordinates; the inverse
    of `basis_coords`, for one coordinate array or a stack of them."""
    dims, n = layout.dims, layout.total_dim
    wires = len(dims)
    lead = coords.shape[: coords.ndim - 2 * wires]
    t = coords.reshape(-1, n * n).T
    for d in dims:
        t = (_wire_change(d).T @ t.reshape(d * d, -1)).T
    unpairs = [0] + [1 + 2 * k for k in range(wires)] + [2 + 2 * k for k in range(wires)]
    return t.reshape((-1, *_pair_shape(dims))).transpose(unpairs).reshape(lead + (n, n))


def basis_rows(layout: SystemLayout, coordinates: np.ndarray) -> np.ndarray:
    """`basis_matrices` of the unit coordinates at the given flat indices, as
    real (m, n*n) rows: the Kronecker product of one `_wire_change` row per
    wire, taken wire by wire, so the last product is the only (m, n*n) array.

    The solver's affine step builds these rows only while m is at most
    `sdp.DENSE_SHARE` of n*n, and above it goes through `basis_coords` and
    `basis_matrices` of the whole stack; the constant's comment gives the
    timings behind the share."""
    m, dims = len(coordinates), layout.dims
    rows = np.ones((m, 1, 1))
    for d, index in zip(dims, np.unravel_index(coordinates, [d * d for d in dims])):
        if d > 1:  # a dimension-one wire's factor is 1
            factor = _wire_change(d)[index].reshape(m, d, d)
            out = np.empty((m, rows.shape[1], d, rows.shape[2], d))
            for a, b in np.ndindex(d, d):  # out[:, i, a, j, b] = rows[:, i, j] factor[:, a, b]
                np.multiply(rows, factor[:, a, b, None, None], out=out[:, :, a, :, b])
            rows = out.reshape(m, out.shape[1] * d, -1)
    rows += 0.0  # the -0.0 of products become the +0.0 a matrix product gives
    return rows.reshape(m, -1)


def identity_coordinate(layout: SystemLayout) -> np.ndarray:
    """Mask of the one coordinate that is the identity on every wire: the
    coordinate of a matrix there is its trace over sqrt(n)."""
    mask = np.zeros(_pair_shape(layout.dims), dtype=bool)
    mask[(0,) * mask.ndim] = True
    return mask


class SpanMask:
    """The named span as a 0/1 mask over the product-basis coordinates of a
    layout (`basis_coords`): `picks` maps each condition name to the
    coordinates it picks and `keep` holds those no condition picks.

    Uniform global input: replacing everything but the global input must
    equal replacing everything.  Then one condition per non-empty subset of
    slots, with the other slots replaced together with the global output:
    "normalization" removes both wires of every chosen slot, "forward" only
    the device-output wires and "backward" only the device-input wires
    (strictly stronger conditions, pinning the direction).  A condition on a
    group of total dimension one is vacuous and left out.
    """

    def __init__(
        self,
        layout: SystemLayout,
        slots: Sequence[SlotSpec],
        global_in: Sequence[str],
        global_out: Sequence[str],
        which: ConeId,
    ):
        self.layout = layout
        shape = _pair_shape(layout.dims)
        index = np.indices(shape)
        traceless = {lab: (index[2 * k] > 0) | (index[2 * k + 1] > 0) for k, lab in enumerate(layout.labels)}
        # (kind, name, groups that must each carry a traceless part, identity wires)
        rest = tuple(lab for s in slots for lab in s.labels) + tuple(global_out)
        conditions = [("uniform-global-input", "uniform-global-input", (tuple(global_in),), rest)]
        for r in range(1, len(slots) + 1):
            for chosen in combinations(range(len(slots)), r):
                always = tuple(global_out) + tuple(
                    lab for k, s in enumerate(slots) if k not in chosen for lab in s.labels
                )
                ids = ",".join(str(k + 1) for k in chosen)
                ins = tuple(slots[k].input for k in chosen)
                outs = tuple(slots[k].output for k in chosen)
                for kind, groups in (("normalization", ins + outs), ("forward", outs), ("backward", ins)):
                    conditions.append((kind, f"{kind}[{ids}]", groups, always))
        self.picks = {
            name: reduce(
                np.logical_and,
                [reduce(np.logical_or, [traceless[lab] for lab in group]) for group in groups]
                + [~traceless[lab] for lab in always],
                np.ones(shape, dtype=bool),
            )
            for wanted in _SPAN_KINDS[which]
            for kind, name, groups, always in conditions
            if kind == wanted and all(_group_dim(layout, group) > 1 for group in groups)
        }
        self.keep = ~reduce(np.logical_or, self.picks.values(), np.zeros(shape, dtype=bool))

    @classmethod
    def of_setup(cls, setup: SetupOperator, which: ConeId) -> "SpanMask":
        """Single-slot span mask derived from the setup's role tags."""
        gin, gout = setup.labels(ROLE_GLOBAL_INPUT), setup.labels(ROLE_GLOBAL_OUTPUT)
        return cls(setup.op.layout, [setup.slot()], gin, gout, which)

    def project(self, mat: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the span."""
        return basis_matrices(self.layout, basis_coords(self.layout, mat) * self.keep)

    def residuals(self, mat: np.ndarray) -> dict[str, float]:
        """Hilbert-Schmidt norm of the part each condition picks."""
        coords = basis_coords(self.layout, mat)
        return {name: float(np.linalg.norm(coords[picked])) for name, picked in self.picks.items()}


def span_projector(
    layout: SystemLayout,
    slots: Sequence[SlotSpec],
    global_in: Sequence[str],
    global_out: Sequence[str],
    which: ConeId,
) -> Callable[[np.ndarray], np.ndarray]:
    """Orthogonal projector, as a raw-matrix callable, onto the named span.

    Cone ids stand for the affine span of the cone (positivity and trace
    normalization are not linear conditions and are checked elsewhere).
    """
    return SpanMask(layout, slots, global_in, global_out, which).project


def setup_span_projector(setup: SetupOperator, which: ConeId) -> Callable[[np.ndarray], np.ndarray]:
    """Single-slot span projector derived from the setup's role tags."""
    return SpanMask.of_setup(setup, which).project


# -- membership reports ---------------------------------------------------------


@dataclass(frozen=True)
class SetupReport:
    """Validity of a setup in the general, forward and backward cones:
    positivity and trace data, and per cone name the residual of every
    linear condition of that cone's span and the verdict."""

    trace: float
    trace_target: float
    min_eigenvalue: float
    residuals: dict[str, dict[str, float]]
    tol: float
    passed: dict[str, bool]


def check_setup(setup: SetupOperator, tol: float = MEMBERSHIP_TOL) -> SetupReport:
    """`check_multipartite` of a single-slot setup, its wires found by role."""
    gin, gout = setup.labels(ROLE_GLOBAL_INPUT), setup.labels(ROLE_GLOBAL_OUTPUT)
    return check_multipartite(setup.op, [setup.slot()], gin, gout, tol)


def check_multipartite(
    op: HermitianOperator,
    slots: Sequence[SlotSpec],
    global_in: Sequence[str] = (),
    global_out: Sequence[str] = (),
    tol: float = MEMBERSHIP_TOL,
) -> SetupReport:
    """Validity report for a setup with N device slots.

    The general cone imposes uniform global input and, for every non-empty
    subset of slots, the condition that removes both wires of the chosen
    slots, plus positivity and the trace value; the forward and backward
    cones add the stricter single-direction conditions.  Membership in the
    definite-direction cone (a convex hull, not an intersection) is a conic
    decomposition problem left to the sdp module's robustness programs.
    Dimension-one wire groups make conditions vacuous, so a trivial global
    input is simply omitted.
    """
    layout = op.layout
    slots = [s if isinstance(s, SlotSpec) else SlotSpec(*s) for s in slots]
    claimed: list[str] = [lab for s in slots for lab in s.labels]
    claimed += list(global_in) + list(global_out)
    if sorted(claimed) != sorted(layout.labels):
        raise ValueError(
            f"slots and global wires must partition the layout labels: got {sorted(claimed)}, "
            f"layout has {sorted(layout.labels)}"
        )
    for k, s in enumerate(slots):
        if _group_dim(layout, s.input) != _group_dim(layout, s.output):
            raise ValueError(f"slot {k + 1} input and output dimensions differ")

    residuals = {
        cone.value: SpanMask(layout, slots, global_in, global_out, cone).residuals(op.matrix)
        for cone in ConeId
    }
    trace = op.trace
    target = float(_group_dim(layout, global_in) * prod(_group_dim(layout, s.input) for s in slots))
    min_eig = min_eigenvalue(op)
    in_cone = min_eig >= -tol and abs(trace - target) <= tol * max(1.0, abs(target))
    passed = {cone: in_cone and all(r <= tol for r in res.values()) for cone, res in residuals.items()}
    return SetupReport(trace, target, min_eig, residuals, tol, passed)


# -- the coherently controlled direction flip -----------------------------------


def qtf_choi() -> SetupOperator:
    """Choi operator of the controlled direction flip with explicit control wires.

    Rank-one on six qubits (slot input, slot output, global target/control
    inputs, global target/control outputs): the control state selects whether
    the device acts forward or transposed, and superpositions of the two
    control basis states probe both directions coherently.  Trace 8.
    """
    # amplitude tensor on (A_I, A_O, B_it, B_ic, B_ot, B_oc): forward, the
    # double kets |I>> pair A_I with B_it and A_O with B_ot under control |0>;
    # backward, A_O with B_it and A_I with B_ot under control |1>
    v = np.zeros((2,) * 6)
    for a, b in np.ndindex(2, 2):
        v[a, b, a, 0, b, 0] = v[a, b, b, 1, a, 1] = 1.0
    roles = {
        "A_I": ROLE_SLOT_INPUT,
        "A_O": ROLE_SLOT_OUTPUT,
        "B_it": ROLE_GLOBAL_INPUT,
        "B_ic": ROLE_GLOBAL_INPUT,
        "B_ot": ROLE_GLOBAL_OUTPUT,
        "B_oc": ROLE_GLOBAL_OUTPUT,
    }
    return SetupOperator(HermitianOperator(qubits(*roles), np.outer(v, v)), roles)  # outer ravels v


def qtf_plus_control() -> SetupOperator:
    """The direction flip `qtf_choi` with its control input B_ic fed the
    balanced superposition |+>, linked in by `link_product`; the control
    output B_oc stays a global output wire.

    Rank-one on five qubits (A_I, A_O, B_it, B_ot, B_oc), trace 4.  This is
    the setup whose distance from the definite-direction cone the robustness
    programs measure.
    """
    flip = qtf_choi()
    v = np.array([1.0, 1.0]) / sqrt(2.0)
    plus = HermitianOperator(qubits("B_ic"), np.outer(v, v))
    roles = {lab: role for lab, role in flip.roles.items() if lab != "B_ic"}
    return SetupOperator(link_product(plus, flip.op, over={"B_ic"}), roles)


# -- supermap application --------------------------------------------------------


def link_product(a: HermitianOperator, b: HermitianOperator, over: Iterable[str]) -> HermitianOperator:
    """Contract two operators over shared labels: Tr_over[(A^T_over x I)(I x B)].

    The partial transpose sits on the contracted factors of the first operand;
    the result lives on the union of the remaining factors (first operand's
    extras first, then the second operand's order).
    """
    over = set(over)
    a_labels, b_labels = set(a.layout.labels), set(b.layout.labels)
    missing = over - (a_labels & b_labels)
    if missing:
        raise ValueError(f"contraction labels {sorted(missing)} are not shared by both operands")
    leftover = (a_labels & b_labels) - over
    if leftover:
        raise ValueError(f"labels {sorted(leftover)} appear on both sides but are not contracted")
    for lab in over:
        if a.layout.dim(lab) != b.layout.dim(lab):
            raise ValueError(f"dimension mismatch on contracted label {lab!r}")
    a_only = tuple(f for f in a.layout.factors if f[0] not in over)
    union = SystemLayout(a_only + b.layout.factors)
    order = union.labels

    a_pad = tuple(f for f in b.layout.factors if f[0] not in a_labels)
    a_full = a if not a_pad else tensor_product([a, identity(SystemLayout(a_pad))])
    a_full = permute_factors(a_full, order)
    b_full = b if not a_only else tensor_product([b, identity(SystemLayout(a_only))])
    b_full = permute_factors(b_full, order)

    raw = partial_transpose(a_full, over).matrix @ b_full.matrix
    traced = partial_trace_matrix(raw, union.dims, union.positions(over))
    kept = SystemLayout(tuple(f for f in union.factors if f[0] not in over))
    return HermitianOperator(kept, traced)


def apply_supermap(setup: SetupOperator, choi: HermitianOperator) -> HermitianOperator:
    """Plug a device, given by its two-factor Choi operator (input, output),
    into the setup's slot; returns the Choi operator of the induced process on
    the global wires, in the setup's layout order.

    When the slot wires consist of several labels, the device's composite
    input/output indices must be ordered like those labels in the setup layout.
    """
    if len(choi.layout.factors) != 2:
        raise ValueError("device Choi operator must have exactly two factors (input, output)")
    (c_in, d_in), (c_out, d_out) = choi.layout.factors
    if d_in != setup.slot_input_dim or d_out != setup.slot_output_dim:
        raise ValueError(
            f"device dimensions ({d_in}, {d_out}) do not match the slot "
            f"({setup.slot_input_dim}, {setup.slot_output_dim})"
        )
    sin = setup.labels(ROLE_SLOT_INPUT)
    sout = setup.labels(ROLE_SLOT_OUTPUT)
    lifted = relabel(choi, {c_in: "slot:in", c_out: "slot:out"})
    lifted = split_factor(lifted, "slot:in", tuple((lab, setup.op.layout.dim(lab)) for lab in sin))
    lifted = split_factor(lifted, "slot:out", tuple((lab, setup.op.layout.dim(lab)) for lab in sout))
    return link_product(lifted, setup.op, over=set(sin) | set(sout))


def sequential_setup(
    pre: KrausChannel,
    post: KrausChannel,
    slot_dim: int,
    direction: ConeId = ConeId.FORWARD,
    labels: Sequence[str] = ("A_I", "A_O", "B_I", "B_O"),
) -> SetupOperator:
    """Fixed-direction setup routing the global input through `pre`, then the
    device slot, then `post`.

    `pre` maps the global input to (device wire x memory) and `post` maps
    (device wire x memory) to the global output; both composite wires are
    ordered (device, memory).  FORWARD feeds the device's input from `pre`;
    BACKWARD routes through the device in the opposite sense, feeding its
    output wire instead.
    """
    if direction not in (ConeId.FORWARD, ConeId.BACKWARD):
        raise ValueError(f"direction must be FORWARD or BACKWARD, got {direction}")
    slot_in, slot_out, g_in, g_out = labels
    if pre.out_dim % slot_dim:
        raise ValueError(f"pre output dimension {pre.out_dim} does not factor as device wire x memory")
    mem = pre.out_dim // slot_dim
    if post.in_dim != slot_dim * mem:
        raise ValueError(f"post input dimension {post.in_dim} != device wire x memory = {slot_dim * mem}")
    dev_first, dev_second = (slot_in, slot_out) if direction is ConeId.FORWARD else (slot_out, slot_in)

    c_pre = kraus_to_choi(pre, labels=(g_in, "stage:out"))
    c_pre = split_factor(c_pre, "stage:out", ((dev_first, slot_dim), ("memory", mem)))
    c_post = kraus_to_choi(post, labels=("stage:in", g_out))
    c_post = split_factor(c_post, "stage:in", ((dev_second, slot_dim), ("memory", mem)))

    s = link_product(c_pre, c_post, over={"memory"})
    s = permute_factors(s, (slot_in, slot_out, g_in, g_out))
    roles = {
        slot_in: ROLE_SLOT_INPUT,
        slot_out: ROLE_SLOT_OUTPUT,
        g_in: ROLE_GLOBAL_INPUT,
        g_out: ROLE_GLOBAL_OUTPUT,
    }
    return SetupOperator(s, roles)


# -- definite-direction splitting -------------------------------------------------


def definite_split(setup: SetupOperator) -> tuple[HermitianOperator, HermitianOperator]:
    """Split I + S into a forward and a backward part.

    Returns (I/2 + t_out(S), I/2 + S - t_out(S)) with t_out the
    trace-and-replace over the slot-output wires.  For S in the general span
    with uniform global input and Hilbert-Schmidt norm at most 1/2, both parts
    are positive semidefinite members of the forward / backward spans, so
    I + S decomposes over the definite-direction cone.
    """
    op = setup.op
    half = 0.5 * identity(op.layout)
    fwd_part = trace_and_replace(op, setup.labels(ROLE_SLOT_OUTPUT))
    return half + fwd_part, half + (op - fwd_part)


# -- setup file format -------------------------------------------------------------


def setup_to_dict(setup: SetupOperator) -> dict:
    record = operator_to_dict(setup.op)
    record["roles"] = dict(setup.roles)
    return record


def setup_from_dict(obj: dict) -> SetupOperator:
    if not isinstance(obj, dict) or "roles" not in obj:
        raise ValueError("setup record is not an object with a 'roles' mapping")
    if not isinstance(obj["roles"], dict):
        raise ValueError(f"'roles' is not an object of label: role pairs: {obj['roles']!r}")
    return SetupOperator(operator_from_dict(obj), obj["roles"])


def save_setup(path: str, setup: SetupOperator) -> None:
    atomic_write_text(path, json.dumps(setup_to_dict(setup)))


def load_setup(path: str) -> SetupOperator:
    with open(path) as handle:
        return setup_from_dict(json.load(handle))
