"""Tensor-core tests against brute-force oracles and algebraic identities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PAULI_X,
    PAULI_Z,
    oracle_partial_trace,
    oracle_trace_and_replace,
    random_hermitian,
    random_hermitian_operator,
)
from timeflip.tensor_core import (
    HermitianOperator,
    Ket,
    SystemLayout,
    basis_ket,
    double_ket,
    hs_inner,
    identity,
    norms,
    operator_from_dict,
    operator_to_dict,
    partial_trace,
    partial_transpose,
    permute_factors,
    psd_project,
    qubits,
    tensor_product,
    trace_and_replace,
)

_TOL = 1e-12


def test_layout_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        SystemLayout((("a", 2), ("a", 2)))


def test_layout_total_dim_and_subset():
    lay = SystemLayout((("a", 2), ("b", 3), ("c", 2)))
    assert lay.total_dim == 12
    assert lay.subset({"c", "a"}).labels == ("a", "c")
    with pytest.raises(KeyError):
        lay.subset({"z"})


def test_hermitian_constructor_symmetrizes_and_rejects():
    m = np.array([[1.0, 1e-13], [0.0, 2.0]])
    op = HermitianOperator(qubits("a").subset({"a"}), m)
    assert np.allclose(op.matrix, op.matrix.conj().T)
    with pytest.raises(ValueError):
        HermitianOperator(SystemLayout((("a", 2),)), np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_warns_between_thresholds():
    m = np.array([[1.0, 1e-10], [0.0, 2.0]])
    with pytest.warns(UserWarning):
        HermitianOperator(SystemLayout((("a", 2),)), m)


def test_tensor_product_identity_case():
    lay_a, lay_b = qubits("a"), qubits("b")
    out = tensor_product([identity(lay_a), identity(lay_b)])
    assert np.allclose(out.matrix, np.eye(4))
    assert out.layout.labels == ("a", "b")


def test_tensor_product_kets_and_zz_sign():
    ket00 = tensor_product([basis_ket(qubits("a"), 0), basis_ket(qubits("b"), 0)])
    assert np.allclose(ket00.amplitudes, [1, 0, 0, 0])
    zz = tensor_product(
        [HermitianOperator(qubits("a"), PAULI_Z), HermitianOperator(qubits("b"), PAULI_Z)]
    )
    ket01 = np.array([0, 1, 0, 0], dtype=complex)
    assert np.allclose(zz.matrix @ ket01, -ket01)


def test_tensor_product_rejects_duplicate_labels_and_mixed_kinds():
    with pytest.raises(ValueError):
        tensor_product([identity(qubits("a")), identity(qubits("a"))])
    with pytest.raises(TypeError):
        tensor_product([identity(qubits("a")), basis_ket(qubits("b"), 0)])


def test_partial_trace_maximally_entangled_marginal():
    phi = double_ket(np.eye(2), labels=("a", "b"))
    marg = partial_trace(phi.outer(), kept={"a"})
    assert np.allclose(marg.matrix, np.eye(2))


def test_partial_trace_identity_and_unknown_label():
    op = identity(qubits("a", "b"))
    out = partial_trace(op, kept={"b"})
    assert np.allclose(out.matrix, 2 * np.eye(2))
    with pytest.raises(KeyError):
        partial_trace(op, kept={"nope"})


def test_partial_trace_choi_of_z_channel_input_marginal():
    choi = double_ket(PAULI_Z, labels=("in", "out")).outer()
    marg = partial_trace(choi, kept={"in"})
    assert np.allclose(marg.matrix, np.eye(2))


def test_partial_trace_against_bruteforce_oracle():
    rng = np.random.default_rng(7)
    lay = SystemLayout((("a", 2), ("b", 3), ("c", 2)))
    op = random_hermitian_operator(rng, lay)
    got = partial_trace(op, kept={"a", "c"})
    want = oracle_partial_trace(op.matrix, lay.dims, kept_positions=[0, 2])
    assert np.allclose(got.matrix, want, atol=1e-12)
    assert abs(got.trace - op.trace) < 1e-10


def test_trace_and_replace_identity_and_traceless():
    lay = qubits("a", "b")
    assert np.allclose(trace_and_replace(identity(lay), {"a"}).matrix, np.eye(4))
    z_i = tensor_product([HermitianOperator(qubits("a"), PAULI_Z), identity(qubits("b"))])
    assert np.allclose(trace_and_replace(z_i, {"a"}).matrix, 0.0)


def test_trace_and_replace_entangled_example():
    phi = double_ket(np.eye(2), labels=("a", "b")).outer()
    out = trace_and_replace(phi, {"b"})
    assert np.allclose(out.matrix, np.kron(np.eye(2), np.eye(2) / 2))


def test_trace_and_replace_against_bruteforce_oracle():
    rng = np.random.default_rng(11)
    lay = SystemLayout((("a", 2), ("b", 2), ("c", 3)))
    op = random_hermitian_operator(rng, lay)
    got = trace_and_replace(op, {"b", "c"})
    want = oracle_trace_and_replace(op.matrix, lay.dims, [1, 2])
    assert np.allclose(got.matrix, want, atol=1e-12)


def test_double_ket_placement_examples():
    assert np.allclose(double_ket(np.eye(2)).amplitudes, [1, 0, 0, 1])
    assert np.allclose(double_ket(PAULI_X).amplitudes, [0, 1, 1, 0])
    with pytest.raises(ValueError):
        double_ket(np.ones((2, 3)))


def test_double_ket_transpose_is_factor_swap():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    swapped = permute_factors(double_ket(m, labels=("p", "q")), ("q", "p"))
    direct = double_ket(m.T, labels=("q", "p"))
    assert np.allclose(swapped.amplitudes, direct.amplitudes)


def test_psd_project_examples():
    lay = SystemLayout((("a", 4),))
    d = HermitianOperator(lay, np.diag([3.0, -1.0, 0.5, -2.0]))
    assert np.allclose(psd_project(d).matrix, np.diag([3.0, 0.0, 0.5, 0.0]))
    z = HermitianOperator(SystemLayout((("a", 2),)), PAULI_Z)
    assert np.allclose(psd_project(z).matrix, np.diag([1.0, 0.0]))


def test_norms_examples():
    four = identity(SystemLayout((("a", 4),)))
    assert norms(four) == pytest.approx((2.0, 1.0, 4.0))
    z = HermitianOperator(qubits("a"), PAULI_Z)
    hs, op, tr = norms(z)
    assert (hs, op, tr) == pytest.approx((np.sqrt(2), 1.0, 2.0))


def test_partial_transpose_is_involution_and_matches_full_transpose():
    rng = np.random.default_rng(5)
    lay = qubits("a", "b")
    op = random_hermitian_operator(rng, lay)
    pt = partial_transpose(op, {"a"})
    assert np.allclose(partial_transpose(pt, {"a"}).matrix, op.matrix)
    full = partial_transpose(pt, {"b"})
    assert np.allclose(full.matrix, op.matrix.T)


def test_permute_factors_roundtrip_and_mismatch():
    rng = np.random.default_rng(9)
    lay = SystemLayout((("a", 2), ("b", 3), ("c", 2)))
    op = random_hermitian_operator(rng, lay)
    perm = permute_factors(op, ("c", "a", "b"))
    back = permute_factors(perm, ("a", "b", "c"))
    assert np.allclose(back.matrix, op.matrix)
    assert perm.layout.dims == (2, 2, 3)
    with pytest.raises(ValueError):
        permute_factors(op, ("a", "b"))


def test_operator_json_roundtrip_verifies_hermiticity():
    rng = np.random.default_rng(13)
    op = random_hermitian_operator(rng, qubits("x", "y"))
    round_tripped = operator_from_dict(operator_to_dict(op))
    assert np.allclose(round_tripped.matrix, op.matrix)
    bad = operator_to_dict(op)
    bad["re"][0][1] += 1.0
    with pytest.raises(ValueError):
        operator_from_dict(bad)


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_operator_record_rejects_non_finite_entries(part, value):
    record = operator_to_dict(identity(qubits("x")))
    record[part][1][0] = value
    with pytest.raises(ValueError, match=rf"non-finite '{part}' entry .* at \[1, 0\]"):
        operator_from_dict(record)


class TestProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_trace_and_replace_idempotent_and_self_adjoint(self, seed):
        rng = np.random.default_rng(seed)
        lay = qubits("p", "q", "r")
        a = random_hermitian_operator(rng, lay)
        b = random_hermitian_operator(rng, lay)
        once = trace_and_replace(a, {"q"})
        twice = trace_and_replace(once, {"q"})
        assert np.allclose(once.matrix, twice.matrix, atol=1e-12)
        lhs = hs_inner(trace_and_replace(a, {"q"}), b)
        rhs = hs_inner(a, trace_and_replace(b, {"q"}))
        assert abs(lhs - rhs) < 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_double_ket_norm_squared_is_hs_norm_squared(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        dk = double_ket(m, labels=("u", "v"))
        assert abs(dk.norm() ** 2 - np.trace(m.conj().T @ m).real) < _TOL * 100

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_psd_project_floor_and_fixed_point(self, seed):
        rng = np.random.default_rng(seed)
        lay = qubits("p", "q")
        op = random_hermitian_operator(rng, lay)
        proj = psd_project(op)
        assert np.linalg.eigvalsh(proj.matrix)[0] >= -1e-10
        again = psd_project(proj)
        assert np.allclose(again.matrix, proj.matrix, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_norm_ordering(self, seed):
        rng = np.random.default_rng(seed)
        op = HermitianOperator(qubits("p", "q"), random_hermitian(rng, 4))
        hs, opn, trn = norms(op)
        assert opn <= hs + 1e-12
        assert hs <= trn + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_partial_trace_of_product_recovers_trace_factor(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian_operator(rng, qubits("a"))
        b = random_hermitian_operator(rng, qubits("b"))
        prod_op = tensor_product([a, b])
        left = partial_trace(prod_op, kept={"a"})
        assert np.allclose(left.matrix, b.trace * a.matrix, atol=1e-10)
