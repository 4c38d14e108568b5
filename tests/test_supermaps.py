"""Setup cones, membership reports, the controlled flip, supermap application."""

from __future__ import annotations

from itertools import combinations
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PAULI_I,
    PAULI_Y,
    apply_supermap,
    definite_split,
    identity,
    input_output_inversion,
    oracle_partial_trace,
    oracle_trace_and_replace,
    padded_link_product,
    positions,
    projector,
    random_bistochastic_channel,
    random_channel,
    random_hermitian,
    random_hermitian_operator,
    random_span_element,
    qutrit_target_output,
)
from timeflip import supermaps
from timeflip.sdp import restricted_reduction
from timeflip.channels import KrausChannel, kraus_to_choi
from timeflip.game import game_layout, game_slots
from timeflip.supermaps import (
    ROLE_GLOBAL_INPUT,
    ROLE_GLOBAL_OUTPUT,
    ROLE_SLOT_INPUT,
    ROLE_SLOT_OUTPUT,
    ConeId,
    SetupOperator,
    SlotSpec,
    SpanMask,
    basis_matrices,
    basis_rows,
    check_multipartite,
    check_setup,
    link_product,
    qtf_choi,
    qtf_plus_control,
    sequential_setup,
    setup_from_dict,
    setup_span_projector,
    setup_to_dict,
    span_projector,
)
from timeflip.tensor_core import (
    HermitianOperator,
    SystemLayout,
    hs_inner,
    min_eigenvalue,
    qubits,
    split_factor,
    tensor_product,
)

_PLAIN_ROLES = {
    "A_I": ROLE_SLOT_INPUT,
    "A_O": ROLE_SLOT_OUTPUT,
    "B_I": ROLE_GLOBAL_INPUT,
    "B_O": ROLE_GLOBAL_OUTPUT,
}


def _plain_layout() -> SystemLayout:
    return qubits("A_I", "A_O", "B_I", "B_O")


# a qutrit global input and a slot input made of two labels
_QUTRIT_LAYOUT = SystemLayout((("A_I1", 2), ("A_I2", 2), ("A_O", 4), ("B_I", 3), ("B_O", 2)))
_QUTRIT_ROLES = {
    "A_I1": ROLE_SLOT_INPUT,
    "A_I2": ROLE_SLOT_INPUT,
    "A_O": ROLE_SLOT_OUTPUT,
    "B_I": ROLE_GLOBAL_INPUT,
    "B_O": ROLE_GLOBAL_OUTPUT,
}
_QUTRIT_SLOTS = [SlotSpec(("A_I1", "A_I2"), ("A_O",))]


def _random_comb(rng, direction=ConeId.FORWARD, mem=2) -> SetupOperator:
    pre = random_channel(rng, 2, 2 * mem)
    post = random_channel(rng, 2 * mem, 2)
    return sequential_setup(pre, post, 2, direction)


def _projection_residual(setup: SetupOperator, which: ConeId) -> float:
    m = setup.op.matrix
    return float(np.linalg.norm(m - SpanMask.of_setup(setup, which).project(m)))


def test_setup_operator_validates_roles():
    lay = _plain_layout()
    op = identity(lay)
    with pytest.raises(ValueError):
        SetupOperator(op, {"A_I": ROLE_SLOT_INPUT})  # labels not covered
    bad = dict(_PLAIN_ROLES, A_I="sideways")
    with pytest.raises(ValueError):
        SetupOperator(op, bad)
    all_global = {lab: ROLE_GLOBAL_INPUT for lab in lay.labels}
    with pytest.raises(ValueError):
        SetupOperator(op, all_global)
    uneven = SystemLayout((("A_I", 2), ("A_O", 3), ("B_I", 2), ("B_O", 2)))
    with pytest.raises(ValueError):
        SetupOperator(identity(uneven), _PLAIN_ROLES)


def test_qtf_choi_is_rank_one_with_trace_eight():
    s = qtf_choi()
    assert s.op.trace == pytest.approx(8.0)
    eigs = np.linalg.eigvalsh(s.op.matrix)
    assert np.sum(eigs > 1e-9) == 1
    report = check_setup(s, tol=1e-10)
    assert report.passed["general"]
    assert report.trace_target == pytest.approx(8.0)
    assert all(r <= 1e-10 for r in report.residuals["general"].values())


def test_qtf_choi_control_states_select_direction():
    rng = np.random.default_rng(11)
    ch = random_bistochastic_channel(rng)
    out = apply_supermap(qtf_choi(), kraus_to_choi(ch))
    for k, expected in ((0, ch), (1, input_output_inversion(ch))):
        plug = HermitianOperator(qubits("B_ic"), projector(np.eye(2)[k]))
        linked = link_product(plug, out, over={"B_ic"})
        kept = positions(linked.layout, {"B_it", "B_ot"})
        reduced = oracle_partial_trace(linked.matrix, linked.layout.dims, kept)
        target = kraus_to_choi(expected, labels=("B_it", "B_ot"))
        assert np.allclose(reduced, target.matrix, atol=1e-12)


def test_qtf_choi_matches_controlled_kraus_form():
    # oracle: the flip acts like the control-dependent Kraus family
    # K x |0><0| + K^T x |1><1| on (target, control)
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    flip = qtf_choi()
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        ch = random_bistochastic_channel(rng, terms=3)
        out = apply_supermap(flip, kraus_to_choi(ch))
        controlled = KrausChannel([np.kron(k, p0) + np.kron(k.T, p1) for k in ch.kraus])
        expected = kraus_to_choi(controlled, labels=("gi", "go"))
        expected = split_factor(expected, "gi", (("B_it", 2), ("B_ic", 2)))
        expected = split_factor(expected, "go", (("B_ot", 2), ("B_oc", 2)))
        assert out.layout == expected.layout
        assert np.allclose(out.matrix, expected.matrix, atol=1e-12)


def test_span_trace_target_is_the_membership_reports():
    # each span reads the trace normalization off the wires it is built from
    qtf = qtf_plus_control()
    reduced = restricted_reduction(qtf)[0]
    for setup, expected in ((qtf, 4.0), (reduced, 2.0), (qutrit_target_output(qtf), 4.0)):
        for cone in ConeId:
            assert SpanMask.of_setup(setup, cone).trace_target == check_setup(setup).trace_target == expected
    report = check_multipartite(identity(game_layout()), game_slots(), (), ("C_O",))
    for cone in ConeId:
        mask = SpanMask(game_layout(), game_slots(), (), ("C_O",), cone)
        assert mask.trace_target == report.trace_target == 4.0


def test_qtf_plus_control_passes_general_only():
    s = qtf_plus_control()
    assert s.op.trace == pytest.approx(4.0)
    assert np.sum(np.linalg.eigvalsh(s.op.matrix) > 1e-9) == 1
    report = check_setup(s, tol=1e-10)
    assert report.passed == {"general": True, "forward": False, "backward": False}
    assert report.residuals["forward"]["forward[1]"] > 1e-2
    assert report.residuals["backward"]["backward[1]"] > 1e-2


def test_qtf_plus_control_on_identity_prepares_balanced_control():
    s = qtf_plus_control()
    out = apply_supermap(s, kraus_to_choi(KrausChannel([PAULI_I])))
    plus = np.array([[1.0], [1.0]]) / np.sqrt(2)
    expected = kraus_to_choi(KrausChannel([np.kron(PAULI_I, plus)]), labels=("B_it", "go"))
    expected = split_factor(expected, "go", (("B_ot", 2), ("B_oc", 2)))
    assert np.allclose(out.matrix, expected.matrix, atol=1e-12)


def test_qtf_plus_control_on_y_flips_control_parity():
    # transposing Y gives -Y, so the two branches interfere into Y x Z_control
    s = qtf_plus_control()
    out = apply_supermap(s, kraus_to_choi(KrausChannel([PAULI_Y])))
    minus = np.array([[1.0], [-1.0]]) / np.sqrt(2)
    expected = kraus_to_choi(KrausChannel([np.kron(PAULI_Y, minus)]), labels=("B_it", "go"))
    expected = split_factor(expected, "go", (("B_ot", 2), ("B_oc", 2)))
    assert np.allclose(out.matrix, expected.matrix, atol=1e-12)


def test_subspace_projection_residuals_for_the_flip():
    s = qtf_plus_control()
    assert _projection_residual(s, ConeId.GENERAL) <= 1e-10
    assert _projection_residual(s, ConeId.FORWARD) > 1e-2
    assert _projection_residual(s, ConeId.BACKWARD) > 1e-2


def test_identity_lies_in_every_span():
    s = SetupOperator(identity(_plain_layout()), _PLAIN_ROLES)
    for which in ConeId:
        assert _projection_residual(s, which) <= 1e-12


def test_prepare_and_return_setup_is_forward():
    # discard the global input, hand |0> to the device, forward its output
    prepare = KrausChannel([np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])])
    forward_out = KrausChannel([PAULI_I])
    s = sequential_setup(prepare, forward_out, 2)
    assert check_setup(s).passed["forward"]
    out = apply_supermap(s, kraus_to_choi(KrausChannel([PAULI_Y])))
    prepared = np.zeros((2, 2), dtype=complex)
    prepared[1, 1] = 1.0  # Y|0><0|Y^dag
    expected = tensor_product([identity(qubits("B_I")), HermitianOperator(qubits("B_O"), prepared)])
    assert np.allclose(out.matrix, expected.matrix, atol=1e-12)


def test_random_combs_pass_their_direction_only():
    rng = np.random.default_rng(7)
    fwd = _random_comb(rng, ConeId.FORWARD)
    bwd = _random_comb(rng, ConeId.BACKWARD)
    assert check_setup(fwd).passed == {"general": True, "forward": True, "backward": False}
    assert check_setup(bwd).passed == {"general": True, "forward": False, "backward": True}
    mix_matrix = 0.5 * fwd.op.matrix + 0.5 * bwd.op.matrix
    mix = SetupOperator(HermitianOperator(fwd.op.layout, mix_matrix), _PLAIN_ROLES)
    assert check_setup(mix).passed == {"general": True, "forward": False, "backward": False}


def test_apply_supermap_is_bilinear():
    rng = np.random.default_rng(21)
    fwd = _random_comb(rng, ConeId.FORWARD)
    bwd = _random_comb(rng, ConeId.BACKWARD)
    c1 = kraus_to_choi(random_bistochastic_channel(rng))
    c2 = kraus_to_choi(random_bistochastic_channel(rng))
    lam = 0.3
    mixed_matrix = lam * fwd.op.matrix + (1 - lam) * bwd.op.matrix
    mixed_setup = SetupOperator(HermitianOperator(fwd.op.layout, mixed_matrix), _PLAIN_ROLES)
    lhs = apply_supermap(mixed_setup, c1)
    rhs = lam * apply_supermap(fwd, c1).matrix + (1 - lam) * apply_supermap(bwd, c1).matrix
    assert np.linalg.norm(lhs.matrix - rhs) <= 1e-10
    mixed_choi = HermitianOperator(c1.layout, lam * c1.matrix + (1 - lam) * c2.matrix)
    lhs = apply_supermap(fwd, mixed_choi)
    rhs = lam * apply_supermap(fwd, c1).matrix + (1 - lam) * apply_supermap(fwd, c2).matrix
    assert np.linalg.norm(lhs.matrix - rhs) <= 1e-10


def test_apply_supermap_output_is_channel_normalized():
    rng = np.random.default_rng(23)
    for setup in (_random_comb(rng), qtf_plus_control()):
        ch = random_bistochastic_channel(rng)
        out = apply_supermap(setup, kraus_to_choi(ch))
        gin = setup.labels(ROLE_GLOBAL_INPUT)
        marginal = oracle_partial_trace(out.matrix, out.layout.dims, positions(out.layout, gin))
        assert np.allclose(marginal, np.eye(len(marginal)), atol=1e-10)


def test_apply_supermap_rejects_bad_device_shapes():
    s = qtf_plus_control()
    with pytest.raises(ValueError):
        apply_supermap(s, identity(qubits("x", "y", "z")))
    wrong_dim = identity(SystemLayout((("in", 3), ("out", 3))))
    with pytest.raises(ValueError):
        apply_supermap(s, wrong_dim)


def test_link_product_validates_labels_and_dims():
    a = identity(qubits("x", "y"))
    b = identity(qubits("y", "z"))
    with pytest.raises(ValueError):
        link_product(a, b, over={"w"})
    with pytest.raises(ValueError):
        link_product(a, b, over=set())  # shared label left uncontracted
    with pytest.raises(ValueError):
        link_product(a, identity(SystemLayout((("y", 3), ("z", 2)))), over={"y"})


def test_link_product_with_no_overlap_is_tensor_product():
    rng = np.random.default_rng(3)
    a = random_hermitian_operator(rng, qubits("x"))
    b = random_hermitian_operator(rng, qubits("z"))
    linked = link_product(a, b, over=set())
    assert np.allclose(linked.matrix, tensor_product([a, b]).matrix)


def test_link_product_builds_the_setups_bit_for_bit_as_the_padded_product(monkeypatch):
    # qtf_plus_control and the forward and backward combs of sequential_setup
    # (what the noisy-setups benchmark instances are made of) come out with
    # the same bits as when the padded reference does the linking
    rng = np.random.default_rng(29)
    builds = [qtf_plus_control]
    for direction in (ConeId.FORWARD, ConeId.BACKWARD) * 3:
        pre, post = random_channel(rng, 2, 4), random_channel(rng, 4, 2)
        builds.append(lambda pre=pre, post=post, d=direction: sequential_setup(pre, post, 2, d))
    direct = [build().op for build in builds]
    monkeypatch.setattr(supermaps, "link_product", padded_link_product)
    for got, build in zip(direct, builds):
        want = build().op
        assert got.layout == want.layout
        assert np.array_equal(got.matrix, want.matrix)


@pytest.mark.parametrize("a_factors, b_factors, over", [
    # two shared wires, in opposite orders and at different positions
    ((("x", 2), ("s", 3), ("y", 3), ("t", 2)), (("t", 2), ("z", 3), ("s", 3)), {"s", "t"}),
    ((("s", 2), ("x", 3)), (("y", 2), ("z", 2), ("s", 2)), {"s"}),
    ((("s", 3), ("t", 2)), (("t", 2), ("s", 3)), {"s", "t"}),
])
def test_link_product_matches_the_padded_product_on_mixed_dimensions(a_factors, b_factors, over):
    rng = np.random.default_rng(31)
    a = random_hermitian_operator(rng, SystemLayout(a_factors))
    b = random_hermitian_operator(rng, SystemLayout(b_factors))
    got, want = link_product(a, b, over), padded_link_product(a, b, over)
    assert got.layout == want.layout
    assert np.allclose(got.matrix, want.matrix, rtol=0.0, atol=1e-12)


def test_definite_split_of_zero_is_half_identity():
    lay = qtf_plus_control().op.layout
    zero = SetupOperator(HermitianOperator(lay, np.zeros((32, 32))), qtf_plus_control().roles)
    f, b = definite_split(zero)
    assert np.allclose(f.matrix, np.eye(32) / 2)
    assert np.allclose(b.matrix, np.eye(32) / 2)


def test_definite_split_yields_psd_directional_parts():
    rng = np.random.default_rng(40)
    template = qtf_plus_control()
    fwd_proj = setup_span_projector(template, ConeId.FORWARD)
    bwd_proj = setup_span_projector(template, ConeId.BACKWARD)
    for _ in range(10):
        s = random_span_element(template, rng, hs_norm=0.5)
        f, b = definite_split(s)
        assert min_eigenvalue(f.matrix) >= -1e-10
        assert min_eigenvalue(b.matrix) >= -1e-10
        assert np.linalg.norm(f.matrix - fwd_proj(f.matrix)) <= 1e-10
        assert np.linalg.norm(b.matrix - bwd_proj(b.matrix)) <= 1e-10


def test_multipartite_product_of_forward_combs():
    rng = np.random.default_rng(17)
    first = _random_comb(rng, ConeId.FORWARD)
    second = sequential_setup(
        random_channel(rng, 2, 4), random_channel(rng, 4, 2), 2,
        labels=("P_I", "P_O", "Q_I", "Q_O"),
    )
    op = tensor_product([first.op, second.op])
    report = check_multipartite(
        op,
        slots=[SlotSpec(("A_I",), ("A_O",)), SlotSpec(("P_I",), ("P_O",))],
        global_in=("B_I", "Q_I"),
        global_out=("B_O", "Q_O"),
    )
    assert report.trace_target == pytest.approx(16.0)
    assert report.passed["general"]
    assert report.passed["forward"]
    assert not report.passed["backward"]
    assert set(report.residuals["general"]) == {
        "uniform-global-input",
        "normalization[1]",
        "normalization[2]",
        "normalization[1,2]",
    }


def test_multipartite_validates_partition_and_slot_dims():
    op = identity(_plain_layout())
    with pytest.raises(ValueError):
        check_multipartite(op, slots=[SlotSpec(("A_I",), ("A_O",))], global_in=("B_I",))
    uneven = identity(SystemLayout((("A_I", 2), ("A_O", 4), ("B_I", 2), ("B_O", 2))))
    with pytest.raises(ValueError):
        check_multipartite(
            uneven, slots=[SlotSpec(("A_I",), ("A_O",))], global_in=("B_I",), global_out=("B_O",)
        )


def test_setup_json_roundtrip():
    s = qtf_plus_control()
    record = setup_to_dict(s)
    back = setup_from_dict(record)
    assert np.allclose(back.op.matrix, s.op.matrix)
    assert back.roles == dict(s.roles)
    with pytest.raises(ValueError):
        setup_from_dict({k: v for k, v in record.items() if k != "roles"})


# -- the span masks against the trace-and-replace definition -------------------

def _span_case(name):
    """(layout, slots, global input, global output, roles or None)."""
    if name == "qtf":
        s = qtf_plus_control()
        return s.op.layout, [s.slot()], ("B_it",), ("B_ot", "B_oc"), s.roles
    if name == "game":
        return game_layout(), list(game_slots()), (), ("C_O",), None
    return _QUTRIT_LAYOUT, _QUTRIT_SLOTS, ("B_I",), ("B_O",), _QUTRIT_ROLES


def _defined_conditions(layout, slots, global_in, global_out):
    """Every named condition as (name, groups, always), by kind.  A condition
    is prod_g (id - t_g) . t_always; a group of dimension one makes it vacuous."""

    def dim(labels):
        return prod(layout.dim(lab) for lab in labels)

    kinds = {"uniform": [], "normalization": [], "forward": [], "backward": []}
    if dim(global_in) > 1:
        rest = [lab for s in slots for lab in s.labels] + list(global_out)
        kinds["uniform"].append(("uniform-global-input", [global_in], rest))
    for r in range(1, len(slots) + 1):
        for chosen in combinations(range(len(slots)), r):
            rest = list(global_out)
            rest += [lab for k, s in enumerate(slots) if k not in chosen for lab in s.labels]
            ids = ",".join(str(k + 1) for k in chosen)
            inputs = [slots[k].input for k in chosen]
            outputs = [slots[k].output for k in chosen]
            for kind, groups in (
                ("normalization", inputs + outputs),
                ("forward", outputs),
                ("backward", inputs),
            ):
                if all(dim(g) > 1 for g in groups):
                    kinds[kind].append((f"{kind}[{ids}]", groups, rest))
    return kinds


def _oracle_condition(mat, layout, groups, always):
    def t(m, labels):
        return oracle_trace_and_replace(m, layout.dims, positions(layout, labels))

    out = t(mat, always)
    for group in groups:
        out = out - t(out, group)
    return out


@pytest.mark.parametrize("case", ["qtf", "game", "qutrit"])
def test_masks_match_the_trace_and_replace_definition(case):
    layout, slots, global_in, global_out, roles = _span_case(case)
    kinds = _defined_conditions(layout, slots, global_in, global_out)
    h = random_hermitian(np.random.default_rng(31), layout.total_dim)

    def residuals(names):
        return {
            name: float(np.linalg.norm(_oracle_condition(h, layout, groups, always)))
            for kind in names
            for name, groups, always in kinds[kind]
        }

    def assert_residuals(got, expected):
        assert list(got) == list(expected)
        assert all(abs(got[name] - expected[name]) <= 1e-12 for name in expected)

    op = HermitianOperator(layout, h)
    report = check_multipartite(op, slots, global_in, global_out)
    for cone in ConeId:
        # the general conditions, and those of the cone's direction
        names = ("uniform", "normalization") + (() if cone is ConeId.GENERAL else (cone.value,))
        expected = h
        for kind in names:
            for _, groups, always in kinds[kind]:
                expected = expected - _oracle_condition(expected, layout, groups, always)
        got = span_projector(layout, slots, global_in, global_out, cone)(h)
        assert np.linalg.norm(got - expected) <= 1e-12
        assert_residuals(report.residuals[cone.value], residuals(names))
    if roles is not None:
        assert check_setup(SetupOperator(op, roles)) == report


@pytest.mark.parametrize("dims", [(2,) * 5, (2, 3, 2), (1, 2, 1, 2, 2)])
def test_basis_rows_are_the_basis_matrices_of_unit_coordinates(dims):
    layout = SystemLayout(tuple((f"w{k}", d) for k, d in enumerate(dims)))
    n = layout.total_dim
    units = np.eye(n * n).reshape(n * n, *(d for d in dims for _ in range(2)))
    expected = basis_matrices(layout, units).reshape(n * n, n * n)
    rows = basis_rows(layout, np.arange(n * n))
    assert np.array_equal(rows, expected)
    # bit for bit, the sign of every zero included
    assert np.array_equal(np.signbit(rows), np.signbit(expected))
    picked = np.array([n * n - 1, 0, 5])
    assert np.array_equal(basis_rows(layout, picked), expected[picked])


@pytest.mark.parametrize("dims", [(2,) * 5, (2, 3, 2), (1, 2, 1, 2, 2)])
def test_basis_rows_match_the_broadcast_product(dims):
    # the rows are written one (a, b) plane of each wire's factor at a time;
    # the one broadcast product over all five axes gives the same bits
    layout = SystemLayout(tuple((f"w{k}", d) for k, d in enumerate(dims)))
    n = layout.total_dim
    picked = np.random.default_rng(3).permutation(n * n)[: n * n // 3]
    m = len(picked)
    expected = np.ones((m, 1, 1))
    for d, index in zip(dims, np.unravel_index(picked, [d * d for d in dims])):
        if d > 1:
            factor = supermaps._wire_change(d)[index].reshape(m, 1, d, 1, d)
            expected = (expected[:, :, None, :, None] * factor).reshape(m, expected.shape[1] * d, -1)
    expected = expected.reshape(m, -1) + 0.0
    rows = basis_rows(layout, picked)
    assert np.array_equal(rows, expected)
    assert np.array_equal(np.signbit(rows), np.signbit(expected))


class TestSpanProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_projectors_idempotent_self_adjoint_hermiticity_preserving(self, seed):
        rng = np.random.default_rng(seed)
        for lay, slots, global_in, global_out in (
            (_plain_layout(), [SlotSpec(("A_I",), ("A_O",))], ("B_I",), ("B_O",)),
            (_QUTRIT_LAYOUT, _QUTRIT_SLOTS, ("B_I",), ("B_O",)),
        ):
            n = lay.total_dim
            h1 = random_hermitian(rng, n)
            h2 = random_hermitian(rng, n)
            for which in ConeId:
                project = span_projector(lay, slots, global_in, global_out, which)
                p1 = project(h1)
                assert np.linalg.norm(project(p1) - p1) <= 1e-10
                assert abs(np.vdot(p1, h2).real - np.vdot(h1, project(h2)).real) <= 1e-10
                assert np.linalg.norm(p1 - p1.conj().T) <= 1e-12

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.5))
    @settings(max_examples=20, deadline=None)
    def test_definite_split_property(self, seed, hs_norm):
        rng = np.random.default_rng(seed)
        template = SetupOperator(identity(_plain_layout()), _PLAIN_ROLES)
        s = random_span_element(template, rng, hs_norm=hs_norm)
        f, b = definite_split(s)
        assert min_eigenvalue(f.matrix) >= -1e-10
        assert min_eigenvalue(b.matrix) >= -1e-10
        assert hs_inner(f.matrix, b.matrix) >= -1e-9  # both parts stay close to I/2, never oppose

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_forward_projection_of_general_element_keeps_uniform_input(self, seed):
        rng = np.random.default_rng(seed)
        template = SetupOperator(identity(_plain_layout()), _PLAIN_ROLES)
        s = random_span_element(template, rng, hs_norm=1.0)
        fwd = setup_span_projector(template, ConeId.FORWARD)(s.op.matrix)
        general = SpanMask.of_setup(template, ConeId.GENERAL)
        assert general.residuals(fwd)["uniform-global-input"] <= 1e-10
