"""Shared test utilities: brute-force oracles and random object generators."""

from __future__ import annotations

import dataclasses
import math
from functools import reduce
from math import prod
from typing import Callable, Sequence

import numpy as np

from timeflip import sdp
from timeflip.channels import TP_TOL, KrausChannel
from timeflip.game import (
    _MINUS_KET,
    _PLUS_KET,
    _PORT_PROJECTORS,
    GatePair,
    _as_state,
    _switch_branches,
    _symmetric_projector,
    game_layout,
    success_effects,
)
from timeflip.supermaps import (
    ROLE_SLOT_INPUT,
    ROLE_SLOT_OUTPUT,
    ConeId,
    SetupOperator,
    SpanMask,
    link_product,
    sequential_setup,
)
from timeflip.tensor_core import (
    HermitianOperator,
    SystemLayout,
    min_eigenvalue,
    permute_factors,
    split_factor,
    tensor_product,
    trace_and_replace_matrix,
)

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# The robustness of the qtf setup with the control fed |+>, full and with the
# witness restricted to the accessible subspace, as numerical identifications.
# With the solver's gap tolerance set to 1e-9 the full pair certifies
# [0.400680342891, 0.400680342976] and the restricted pair [0.171572875184,
# 0.171572875311]; mpmath.identify names (11 - 4 sqrt 6)/3 = (2 sqrt 2 -
# sqrt 3)^2/3, a root of 9r^2 - 66r + 25 that changes sign across the full
# bracket, and 3 - 2 sqrt 2 = (sqrt 2 - 1)^2.  Each lies inside its bracket.
# No proof backs them: a certified bracket that excludes one is unsound.
QTF_ROBUSTNESS = 0.40068034295576
QTF_ROBUSTNESS_RESTRICTED = 0.17157287525381


def identity(layout: SystemLayout) -> HermitianOperator:
    return HermitianOperator(layout, np.eye(layout.total_dim))


def positions(layout: SystemLayout, labels) -> tuple[int, ...]:
    """The sorted factor positions of the given labels."""
    return tuple(sorted(layout.position(lab) for lab in set(labels)))


def flat_index(multi, dims):
    idx = 0
    for k, d in zip(multi, dims):
        idx = idx * d + k
    return idx


def oracle_partial_trace(mat, dims, kept_positions):
    """Brute-force partial trace: explicit sum over the traced basis indices."""
    kept = sorted(kept_positions)
    traced = [k for k in range(len(dims)) if k not in kept]
    out_dims = [dims[k] for k in kept]
    out_n = prod(out_dims) if out_dims else 1
    out = np.zeros((out_n, out_n), dtype=complex)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            if any(row[t] != col[t] for t in traced):
                continue
            r = flat_index([row[k] for k in kept], out_dims)
            c = flat_index([col[k] for k in kept], out_dims)
            out[r, c] += mat[flat_index(row, dims), flat_index(col, dims)]
    return out


def oracle_trace_and_replace(mat, dims, replaced_positions):
    """Brute-force trace-and-replace via the partial-trace oracle and a kron."""
    replaced = sorted(replaced_positions)
    kept = [k for k in range(len(dims)) if k not in replaced]
    reduced = oracle_partial_trace(mat, dims, kept)
    scale = prod(dims[k] for k in replaced)
    n = prod(dims)
    out = np.zeros((n, n), dtype=complex)
    red_dims = [dims[k] for k in kept]
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            if any(row[t] != col[t] for t in replaced):
                continue
            r = flat_index([row[k] for k in kept], red_dims)
            c = flat_index([col[k] for k in kept], red_dims)
            out[flat_index(row, dims), flat_index(col, dims)] = reduced[r, c] / scale
    return out


def definite_split(setup: SetupOperator) -> tuple[HermitianOperator, HermitianOperator]:
    """Split I + S into a forward and a backward part.

    Returns (I/2 + t_out(S), I/2 + S - t_out(S)) with t_out the
    trace-and-replace over the slot-output wires, by the oracle.  For S in
    the general span with uniform global input and Hilbert-Schmidt norm at
    most 1/2, both parts are positive semidefinite members of the forward /
    backward spans, so I + S decomposes over the definite-direction cone.
    """
    op, layout = setup.op, setup.op.layout
    half = 0.5 * identity(layout)
    replaced = positions(layout, setup.labels(ROLE_SLOT_OUTPUT))
    fwd_part = HermitianOperator(layout, oracle_trace_and_replace(op.matrix, layout.dims, replaced))
    return half + fwd_part, half + (op - fwd_part)


def padded_link_product(a, b, over):
    r"""The link product as its formula Tr_over[(A^T_over \otimes I)(I \otimes B)]:
    both operands padded with identities to the union layout, A partially
    transposed on the shared wires, one matrix product, then a partial trace
    wire by wire.  The reference `supermaps.link_product` is checked against."""
    over = set(over)
    a_only = tuple(f for f in a.layout.factors if f[0] not in over)
    union = SystemLayout(a_only + b.layout.factors)
    a_pad = tuple(f for f in b.layout.factors if f[0] not in a.layout.labels)
    a_full = a if not a_pad else tensor_product([a, identity(SystemLayout(a_pad))])
    a_full = permute_factors(a_full, union.labels)
    b_full = b if not a_only else tensor_product([b, identity(SystemLayout(a_only))])
    b_full = permute_factors(b_full, union.labels)
    dims = list(union.dims)
    n = len(dims)
    axes = list(range(2 * n))
    for k in positions(union, over):
        axes[k], axes[n + k] = axes[n + k], axes[k]
    a_pt = a_full.matrix.reshape(*dims, *dims).transpose(axes).reshape(a_full.matrix.shape)
    mat = a_pt @ b_full.matrix
    for k in sorted(positions(union, over), reverse=True):
        p, d, q = prod(dims[:k]), dims[k], prod(dims[k + 1:])
        mat = np.trace(mat.reshape(p, d, q, p, d, q), axis1=1, axis2=4).reshape(p * q, p * q)
        dims.pop(k)
    kept = SystemLayout(tuple(f for f in union.factors if f[0] not in over))
    return HermitianOperator(kept, mat)


def relabel(op: HermitianOperator, mapping: dict) -> HermitianOperator:
    """Rename factors without moving them."""
    factors = tuple((mapping.get(lab, lab), dim) for lab, dim in op.layout.factors)
    return HermitianOperator(SystemLayout(factors), op.matrix)


def is_bistochastic(ch: KrausChannel) -> bool:
    """True iff the channel is unital within TP_TOL; every KrausChannel is
    already trace-preserving within it."""
    if ch.in_dim != ch.out_dim:
        raise ValueError(f"bistochasticity needs in_dim == out_dim, got {ch.in_dim} != {ch.out_dim}")
    unital = float(np.max(np.abs(sum(k @ k.conj().T for k in ch.kraus) - np.eye(ch.in_dim))))
    return unital <= TP_TOL


def input_output_inversion(ch: KrausChannel) -> KrausChannel:
    """The bidirectional-device inversion: entrywise transpose of each Kraus
    operator in the computational basis.  At the Choi level this swaps the
    input and output tensor factors."""
    if not is_bistochastic(ch):
        raise ValueError("input-output inversion is defined for bistochastic channels only")
    return KrausChannel([k.T for k in ch.kraus])


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


# The game's two superposition strategies as operators on the five game wires:
# the reference that `qtf_strategy`, `switch_strategy`, `success_effects` and
# `game_witness` are checked against.

def _strategy_operator(column_map: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       effects: Sequence[np.ndarray]) -> HermitianOperator:
    """Assemble a strategy operator from its action on gate matrix units.

    ``column_map(u, v)`` is the (unnormalized) circuit output vector as a
    function of the two gate matrices; it must be linear in the entries of
    each.  ``effects`` are the two answer POVM elements on that output space.
    The result S satisfies  p(answer o) = Tr[(Choi(U) (x) Choi(V) (x) P_o)^T S]
    for every gate pair, with the answer re-encoded as |+>/|-> on the C_O wire.
    """
    columns = []
    for j in range(2):
        for i in range(2):
            e_u = np.zeros((2, 2), dtype=complex)
            e_u[i, j] = 1.0
            for l in range(2):
                for k in range(2):
                    e_v = np.zeros((2, 2), dtype=complex)
                    e_v[k, l] = 1.0
                    columns.append(column_map(e_u, e_v))
    tmat = np.array(columns, dtype=complex).T  # output dim x 16
    blocks = np.zeros((32, 32), dtype=complex)
    for effect, port in zip(effects, _PORT_PROJECTORS):
        gram = tmat.conj().T @ effect @ tmat
        blocks += np.kron(gram, port)
    return HermitianOperator(game_layout(), blocks.T)


def qtf_strategy_operator(target_state=(1.0, 0.0)) -> HermitianOperator:
    """Operator form of `qtf_strategy` on the five game wires."""
    psi = _as_state(target_state, 2, "target_state")

    def column(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        fwd = u @ v.T @ psi
        bwd = u.T @ v @ psi
        return (np.kron(fwd, np.array([1.0, 0.0])) +
                np.kron(bwd, np.array([0.0, 1.0]))) / math.sqrt(2.0)

    eye2 = np.eye(2)
    effects = [np.kron(eye2, port) for port in _PORT_PROJECTORS]
    return _strategy_operator(column, effects)


def switch_strategy_operator() -> HermitianOperator:
    """Operator form of `switch_strategy` on the five game wires."""

    def column(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        sym_vec, anti_vec = _switch_branches(u, v)
        return np.kron(sym_vec, _PLUS_KET) + np.kron(anti_vec, _MINUS_KET)

    proj = _symmetric_projector()
    comp = np.eye(4) - proj
    plus_p, minus_p = _PORT_PROJECTORS
    effect_plus = np.kron(proj, plus_p) + np.kron(comp, minus_p)
    effects = [effect_plus, np.eye(8) - effect_plus]
    return _strategy_operator(column, effects)


def game_witness(pairs: Sequence[GatePair], weights=None,
                 p_max: float = 0.89) -> HermitianOperator:
    """Witness  W = I/4 - (M_plus + M_minus)/p_max  on the game wires.

    ``p_max`` must be a bound on the success probability attainable with both
    gates used in a single fixed direction; any strategy S with
    Tr(W S) < 0 then certifies success beyond that cap.
    """
    if not 0.0 < p_max < 1.0:
        raise ValueError(f"p_max must lie strictly between 0 and 1, got {p_max}")
    m_plus, m_minus = success_effects(pairs, weights)
    mat = np.eye(32) / 4.0 - (m_plus.matrix + m_minus.matrix) / p_max
    return HermitianOperator(game_layout(), mat)


def gate_pair_to_dict(pair: GatePair) -> dict:
    """One record of the gate-pair file format that `game.load_gate_pairs` reads."""
    return {
        "name": pair.name,
        "tag": pair.tag,
        "u": {"re": pair.u.real.tolist(), "im": pair.u.imag.tolist()},
        "v": {"re": pair.v.real.tolist(), "im": pair.v.imag.tolist()},
    }


# The experiment's preparation/measurement states |0>, |1>, |+> and |+i>.
_ORACLE_KETS = (
    np.array([1.0, 0.0]),
    np.array([0.0, 1.0]),
    np.array([1.0, 1.0]) / np.sqrt(2.0),
    np.array([1.0, 1.0j]) / np.sqrt(2.0),
)


def oracle_term(indices):
    """The paper-form product operator of one decomposition term: the global
    transpose of the physical preparation/measurement projectors on the
    layout (A_I, A_O, B_it, B_ot, B_oc), built with no shortcut.  Full terms
    (a, b, c, d, e) measure b on A_I, prepare c on A_O, prepare a on B_it
    and measure d, e on B_ot, B_oc; restricted terms (b, c, e) prepare |0>
    on B_it and leave B_ot unmeasured."""
    proj = [np.outer(k, k.conj()) for k in _ORACLE_KETS]
    if len(indices) == 5:
        a, b, c, d, e = indices
        physical = [proj[b].conj(), proj[c], proj[a], proj[d].conj(), proj[e].conj()]
    else:
        b, c, e = indices
        physical = [proj[b].conj(), proj[c], proj[0], np.eye(2), proj[e].conj()]
    return reduce(np.kron, physical).T


def projector(vec) -> np.ndarray:
    """The rank-one operator |v><v| of a state vector."""
    return np.outer(vec, np.conj(vec))


def random_hermitian(rng, n, scale=1.0):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (g + g.conj().T) / 2


def random_hermitian_operator(rng, layout: SystemLayout, scale=1.0) -> HermitianOperator:
    return HermitianOperator(layout, random_hermitian(rng, layout.total_dim, scale))


def random_psd(rng, n, scale=1.0):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (g @ g.conj().T) / n


def random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_bistochastic_channel(rng, n=2, terms=3) -> KrausChannel:
    """A random mixture of unitaries (always bistochastic)."""
    probs = rng.dirichlet(np.ones(terms))
    kraus = [np.sqrt(p) * random_unitary(rng, n) for p in probs]
    return KrausChannel(kraus)


def random_channel(rng, din, dout, kraus_rank=2) -> KrausChannel:
    """A random channel from a Haar-style isometry, sliced into Kraus terms."""
    g = rng.normal(size=(dout * kraus_rank, din)) + 1j * rng.normal(size=(dout * kraus_rank, din))
    q, r = np.linalg.qr(g)
    iso = q[:, :din] * (np.diag(r)[:din] / np.abs(np.diag(r)[:din]))
    kraus = [iso[k * dout:(k + 1) * dout, :] for k in range(kraus_rank)]
    return KrausChannel(kraus)


def random_fixed_direction(rng, direction, layout) -> SetupOperator:
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


def random_span_element(
    setup: SetupOperator, rng: np.random.Generator, hs_norm: float = 0.5
) -> SetupOperator:
    """Random Hermitian element of the general span (uniform global input
    included), scaled to the requested Hilbert-Schmidt norm (Gaussian
    entries, projected)."""
    n = setup.op.layout.total_dim
    project = SpanMask.of_setup(setup, ConeId.GENERAL).project
    while True:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        mat = project((g + g.conj().T) / 2)
        scale = float(np.linalg.norm(mat))
        if scale > 1e-9:
            break
    op = HermitianOperator(setup.op.layout, mat * (hs_norm / scale))
    return SetupOperator(op, setup.roles)


def trace_target(setup: SetupOperator) -> float:
    """The trace of a valid setup on the wires of `setup`, read from its
    general span."""
    return SpanMask.of_setup(setup, ConeId.GENERAL).trace_target


def random_general_setup(rng, template) -> SetupOperator:
    """A generic trace-normalized element of the general cone: project a random
    positive operator onto the span, then float it back to positivity with
    uniform noise."""
    layout = template.op.layout
    n = layout.total_dim
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    raw = SetupOperator(HermitianOperator(layout, g @ g.conj().T / n), template.roles)
    m = SpanMask.of_setup(raw, ConeId.GENERAL).project(raw.op.matrix)
    floor = -min(min_eigenvalue(m), 0.0)
    m = m + 1.01 * floor * np.eye(n)
    m *= trace_target(template) / np.trace(m).real
    return SetupOperator(HermitianOperator(layout, m), template.roles)


def definite_mixture(rng, template) -> SetupOperator:
    """A random mixture of one forward and one backward fixed-direction setup,
    with the roles of the template."""
    layout = template.op.layout
    fwd = random_fixed_direction(rng, ConeId.FORWARD, layout)
    bwd = random_fixed_direction(rng, ConeId.BACKWARD, layout)
    lam = rng.uniform(0.15, 0.85)
    mixed = lam * fwd.op.matrix + (1 - lam) * bwd.op.matrix
    return SetupOperator(HermitianOperator(layout, mixed), template.roles)


def rotated_mixture(rng, template) -> SetupOperator:
    """0.5 * template under Haar unitaries on every wire + 0.5 * a definite
    mixture with its roles: a general setup with nonzero robustness (0.0897
    on the qtf template with seed 0), where `random_general_setup` lands in
    the definite cone.  A local unitary maps every cone onto itself."""
    layout = template.op.layout
    u = reduce(np.kron, [random_unitary(rng, d) for d in layout.dims])
    turned = u @ template.op.matrix @ u.conj().T
    mixed = 0.5 * turned + 0.5 * definite_mixture(rng, template).op.matrix
    return SetupOperator(HermitianOperator(layout, mixed), template.roles)


def half_definite(rng, template) -> SetupOperator:
    """0.5 * template + 0.5 * a definite mixture with its roles.  On the qtf
    template with seed 2 its robustness is 0.0474, and its optimal witness
    needs a different complement part in each direction: a witness program
    that shares one part between the directions stalls below that value."""
    mixed = 0.5 * template.op.matrix + 0.5 * definite_mixture(rng, template).op.matrix
    return SetupOperator(HermitianOperator(template.op.layout, mixed), template.roles)


def rotated(setup) -> SetupOperator:
    """A five-wire setup conjugated by a fixed complex diagonal unitary on
    B_it, B_ot, B_oc: the same robustness, but complex data."""
    phases = [np.diag([1.0, np.exp(1j * t)]) for t in (0.7, -1.3, 2.1)]
    u = np.kron(np.eye(4), reduce(np.kron, phases))
    return SetupOperator(
        HermitianOperator(setup.op.layout, u @ setup.op.matrix @ u.conj().T), setup.roles
    )


def restricted_projector(setup) -> Callable[[np.ndarray], np.ndarray]:
    """E E*/d_ot, the orthogonal projector onto the restricted witness form,
    as `sdp.restricted_reduction` returns it."""
    return sdp.restricted_reduction(setup)[3]


def qutrit_target_output(setup) -> SetupOperator:
    """The setup with B_ot embedded in a qutrit by the isometry |0> -> |0>,
    |1> -> |1>: a post-processing of the global output, so every cone keeps
    its members, and the restricted witnesses, which sum B_ot over, see the
    same setup."""
    layout = setup.op.layout
    v = np.eye(3)[:, :2]
    k = reduce(np.kron, [v if lab == "B_ot" else np.eye(d) for lab, d in layout.factors])
    wider = SystemLayout(tuple((lab, 3 if lab == "B_ot" else d) for lab, d in layout.factors))
    return SetupOperator(HermitianOperator(wider, k @ setup.op.matrix @ k.conj().T), setup.roles)


def pin_and_trace_projector(setup) -> Callable[[np.ndarray], np.ndarray]:
    """The restricted witness projector in its pin-and-trace form, the
    reference for E E*/d_ot: |0><0| on B_it applied on both sides, then B_ot
    traced out and replaced by I/d_ot."""
    layout = setup.op.layout
    pin = reduce(np.kron, [np.diag([1.0, 0.0]) if lab == "B_it" else np.eye(d) for lab, d in layout.factors])
    replaced = positions(layout, ("B_ot",))
    return lambda m: trace_and_replace_matrix(pin @ m @ pin, layout.dims, replaced)


def shifted_robustness_primal(shift: float):
    """A stand-in for `sdp._robustness_primal` whose polish reports the noise
    trace plus `shift`: the certified gap of a robustness pair built on it
    never falls below `shift`, so it is flat by construction."""
    original = sdp._robustness_primal

    def build(geom):
        prog = original(geom)

        def polish(zs):
            value, point, extras = prog.polish(zs)
            return value + shift, point, extras

        return dataclasses.replace(prog, polish=polish)

    return build


def exactly_positive_definite(block: np.ndarray) -> bool:
    """Whether a real symmetric float block is positive definite in exact
    arithmetic.  Every float is a dyadic rational, so one power of two scales
    the block exactly to integers; fraction-free (Bareiss) elimination then
    keeps each pivot an integer, the leading principal minor of its order,
    and the block is positive definite if and only if every pivot is
    positive (Sylvester's criterion).  A complex block is accepted when its
    imaginary part is exactly zero."""
    block = np.asarray(block)
    if np.iscomplexobj(block):
        if np.any(block.imag):
            raise ValueError("the block has a nonzero imaginary part")
        block = block.real
    if block.ndim != 2 or not np.array_equal(block, block.T):
        raise ValueError("the block is not exactly symmetric")
    ratios = [[x.as_integer_ratio() for x in row] for row in block.tolist()]
    scale = max(den for row in ratios for _, den in row)
    m = [[num * (scale // den) for num, den in row] for row in ratios]
    previous = 1
    for k, row_k in enumerate(m):
        pivot = row_k[k]
        if pivot <= 0:
            return False
        for row_i in m[k + 1:]:
            factor = row_i[k]
            for j in range(k + 1, len(m)):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // previous
        previous = pivot
    return True
