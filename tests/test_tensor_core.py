"""Tensor-core tests against brute-force oracles and algebraic identities."""

from __future__ import annotations

import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PAULI_X,
    PAULI_Z,
    identity,
    oracle_partial_trace,
    oracle_trace_and_replace,
    positions,
    projector,
    random_hermitian_operator,
)
from timeflip import tensor_core
from timeflip.tensor_core import (
    HermitianOperator,
    SystemLayout,
    atomic_write_text,
    double_ket,
    hs_inner,
    operator_from_dict,
    operator_to_dict,
    permute_factors,
    qubits,
    tensor_product,
    trace_and_replace_matrix,
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


@pytest.mark.parametrize("data, dtype", [
    (np.array([[1.0, 2.0 + 0j], [2.0, -1.0]]), np.float64),  # zero imaginary part
    (np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -1.0]]), np.complex128),
    (np.array([[1, 2], [2, -1]]), np.float64),
])
def test_matrix_is_real_exactly_when_its_imaginary_part_is_zero(data, dtype):
    op = HermitianOperator(qubits("a"), data)
    assert op.matrix.dtype == dtype
    assert op.matrix.flags.c_contiguous and not op.matrix.flags.writeable
    np.testing.assert_array_equal(op.matrix, data)


def test_real_matrix_is_checked_in_its_own_dtype(monkeypatch):
    # a real matrix never goes through a complex copy, and it is symmetrized
    # bit for bit as its complex twin is
    seen = []
    check = tensor_core.reject_non_finite
    monkeypatch.setattr(tensor_core, "reject_non_finite", lambda m, what: (seen.append(m.dtype), check(m, what)))
    rng = np.random.default_rng(3)
    g = rng.normal(size=(8, 8))
    m = g + g.T + 1e-13 * rng.normal(size=(8, 8))
    real = HermitianOperator(qubits("a", "b", "c"), m)
    twin = HermitianOperator(qubits("a", "b", "c"), m.astype(complex))
    assert seen == [np.float64, np.complex128]
    assert real.matrix.dtype == twin.matrix.dtype == np.float64
    assert np.array_equal(real.matrix, twin.matrix)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_symmetrizing_keeps_the_bits_of_the_mean(dtype):
    rng = np.random.default_rng(5)
    g = rng.normal(size=(8, 8)).astype(dtype)
    if dtype == np.complex128:
        g += 1j * rng.normal(size=(8, 8))
    m = g + g.conj().T + 1e-13 * rng.normal(size=(8, 8))
    assert np.array_equal(HermitianOperator(qubits("a", "b", "c"), m).matrix, (m + m.conj().T) / 2)


def test_symmetrizing_a_finite_entry_does_not_overflow():
    # 1e308 + 1e308 overflows; 1e308 / 2 + 1e308 / 2 does not
    m = np.eye(2)
    m[0, 0] = 1e308
    op = HermitianOperator(qubits("a"), m)
    assert np.isfinite(op.matrix).all() and op.matrix[0, 0] == 1e308
    # nor does the asymmetry of an imaginary diagonal entry, 2e308
    with pytest.raises(ValueError, match=r"not Hermitian \(max asymmetry inf\)"):
        HermitianOperator(qubits("a"), np.diag([1e308j, 1.0]))


def test_real_operator_record_is_unchanged():
    # a real matrix writes the same record its complex twin did
    record = operator_to_dict(HermitianOperator(qubits("a"), np.array([[1.0, 2.0], [2.0, -1.0]])))
    assert json.dumps(record) == (
        '{"labels": ["a"], "dims": [2], "re": [[1.0, 2.0], [2.0, -1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}'
    )
    assert operator_from_dict(record).matrix.dtype == np.float64


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


def test_trace_and_replace_identity_and_traceless():
    assert np.allclose(trace_and_replace_matrix(np.eye(4), (2, 2), [0]), np.eye(4))
    z_i = np.kron(PAULI_Z, np.eye(2))
    assert np.allclose(trace_and_replace_matrix(z_i, (2, 2), [0]), 0.0)


def test_trace_and_replace_entangled_example():
    phi = projector(double_ket(np.eye(2)))
    out = trace_and_replace_matrix(phi, (2, 2), [1])
    assert np.allclose(out, np.kron(np.eye(2), np.eye(2) / 2))


def test_trace_and_replace_against_bruteforce_oracle():
    rng = np.random.default_rng(11)
    lay = SystemLayout((("a", 2), ("b", 2), ("c", 3)))
    op = random_hermitian_operator(rng, lay)
    got = trace_and_replace_matrix(op.matrix, lay.dims, positions(lay, {"b", "c"}))
    want = oracle_trace_and_replace(op.matrix, lay.dims, [1, 2])
    assert np.allclose(got, want, atol=1e-12)


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
        a = random_hermitian_operator(rng, lay).matrix
        b = random_hermitian_operator(rng, lay).matrix
        once = trace_and_replace_matrix(a, lay.dims, [1])
        twice = trace_and_replace_matrix(once, lay.dims, [1])
        assert np.allclose(once, twice, atol=1e-12)
        lhs = hs_inner(trace_and_replace_matrix(a, lay.dims, [1]), b)
        rhs = hs_inner(a, trace_and_replace_matrix(b, lay.dims, [1]))
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
        left = oracle_partial_trace(prod_op.matrix, (2, 2), kept_positions=[0])
        assert np.allclose(left, b.trace * a.matrix, atol=1e-10)
