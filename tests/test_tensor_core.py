"""Tensor-core tests against brute-force oracles and algebraic identities."""

from __future__ import annotations

import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PAULI_X,
    PAULI_Z,
    oracle_partial_trace,
    oracle_trace_and_replace,
    projector,
    random_hermitian_operator,
)
from timeflip.tensor_core import (
    HermitianOperator,
    SystemLayout,
    atomic_write_text,
    double_ket,
    hs_inner,
    identity,
    operator_from_dict,
    operator_to_dict,
    partial_trace_matrix,
    partial_transpose,
    permute_factors,
    qubits,
    tensor_product,
    trace_and_replace,
)

_TOL = 1e-12


def test_layout_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        SystemLayout((("a", 2), ("a", 2)))


def test_layout_total_dim():
    lay = SystemLayout((("a", 2), ("b", 3), ("c", 2)))
    assert lay.total_dim == 12


def test_hermitian_constructor_symmetrizes_and_rejects():
    m = np.array([[1.0, 1e-13], [0.0, 2.0]])
    op = HermitianOperator(qubits("a"), m)
    assert np.allclose(op.matrix, op.matrix.conj().T)
    with pytest.raises(ValueError):
        HermitianOperator(SystemLayout((("a", 2),)), np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_warns_between_thresholds():
    m = np.array([[1.0, 1e-10], [0.0, 2.0]])
    with pytest.warns(UserWarning):
        HermitianOperator(SystemLayout((("a", 2),)), m)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_hermitian_constructor_rejects_non_finite_entries(value):
    # a NaN asymmetry compares false against the tolerance, so the Hermiticity
    # check alone would let it through
    m = np.eye(2, dtype=complex)
    m[0, 0] = value
    with pytest.raises(ValueError, match=r"non-finite matrix entry .* at \[0, 0\]"):
        HermitianOperator(qubits("a"), m)


def test_tensor_product_identity_case():
    lay_a, lay_b = qubits("a"), qubits("b")
    out = tensor_product([identity(lay_a), identity(lay_b)])
    assert np.allclose(out.matrix, np.eye(4))
    assert out.layout.labels == ("a", "b")


def test_tensor_product_zz_sign():
    zz = tensor_product(
        [HermitianOperator(qubits("a"), PAULI_Z), HermitianOperator(qubits("b"), PAULI_Z)]
    )
    ket01 = np.array([0, 1, 0, 0], dtype=complex)
    assert np.allclose(zz.matrix @ ket01, -ket01)


@pytest.mark.parametrize(
    "scalar", [2 + 0j, np.complex128(2), 2j], ids=["complex", "complex128", "imaginary"]
)
def test_scaling_by_a_complex_scalar(scalar):
    # a complex with zero imaginary part scales by its real part; numpy's
    # complex128 used to reach float() and raise ComplexWarning
    op = HermitianOperator(qubits("a"), PAULI_Z)
    if scalar.imag:
        with pytest.raises(TypeError, match="non-real"):
            op * scalar
    else:
        assert np.array_equal((op * scalar).matrix, 2 * PAULI_Z)


def test_tensor_product_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        tensor_product([identity(qubits("a")), identity(qubits("a"))])


def test_partial_trace_maximally_entangled_marginal():
    marg = partial_trace_matrix(projector(double_ket(np.eye(2))), (2, 2), traced=[1])
    assert np.allclose(marg, np.eye(2))


def test_partial_trace_of_identity():
    out = partial_trace_matrix(np.eye(4), (2, 2), traced=[0])
    assert np.allclose(out, 2 * np.eye(2))


def test_partial_trace_choi_of_z_channel_input_marginal():
    marg = partial_trace_matrix(projector(double_ket(PAULI_Z)), (2, 2), traced=[1])
    assert np.allclose(marg, np.eye(2))


def test_partial_trace_against_bruteforce_oracle():
    rng = np.random.default_rng(7)
    lay = SystemLayout((("a", 2), ("b", 3), ("c", 2)))
    op = random_hermitian_operator(rng, lay)
    got = partial_trace_matrix(op.matrix, lay.dims, traced=[1])
    want = oracle_partial_trace(op.matrix, lay.dims, kept_positions=[0, 2])
    assert np.allclose(got, want, atol=1e-12)
    assert abs(np.trace(got).real - op.trace) < 1e-10


def test_trace_and_replace_identity_and_traceless():
    lay = qubits("a", "b")
    assert np.allclose(trace_and_replace(identity(lay), {"a"}).matrix, np.eye(4))
    z_i = tensor_product([HermitianOperator(qubits("a"), PAULI_Z), identity(qubits("b"))])
    assert np.allclose(trace_and_replace(z_i, {"a"}).matrix, 0.0)


def test_trace_and_replace_entangled_example():
    phi = HermitianOperator(qubits("a", "b"), projector(double_ket(np.eye(2))))
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
    assert np.array_equal(double_ket(np.eye(2)), [1, 0, 0, 1])
    assert np.array_equal(double_ket(PAULI_X), [0, 1, 1, 0])
    # a rectangular (out, in) = (2, 3) matrix: input wire first, so the
    # amplitude M[i, j] sits at composite index (j, i) = 2 * j + i
    m = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(double_ket(m), [m[i, j] for j in range(3) for i in range(2)])
    with pytest.raises(ValueError):
        double_ket(np.ones(4))


def test_double_ket_transpose_is_factor_swap():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    swapped = double_ket(m).reshape(3, 3).T.reshape(-1)
    assert np.array_equal(swapped, double_ket(m.T))


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


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_written_file_gets_the_mode_open_would_give(tmp_path, umask_022):
    target, plain = tmp_path / "a.txt", tmp_path / "b.txt"
    atomic_write_text(str(target), "x")
    with open(plain, "w") as handle:
        handle.write("x")
    assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode) == 0o644


def test_overwritten_file_keeps_its_mode(tmp_path, umask_022):
    target = tmp_path / "a.txt"
    target.write_text("old")
    target.chmod(0o640)
    atomic_write_text(str(target), "new")
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert target.read_text() == "new"


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
        assert abs(np.linalg.norm(double_ket(m)) ** 2 - np.trace(m.conj().T @ m).real) < _TOL * 100

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_partial_trace_of_product_recovers_trace_factor(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian_operator(rng, qubits("a"))
        b = random_hermitian_operator(rng, qubits("b"))
        prod_op = tensor_product([a, b])
        left = partial_trace_matrix(prod_op.matrix, (2, 2), traced=[1])
        assert np.allclose(left, b.trace * a.matrix, atol=1e-10)
