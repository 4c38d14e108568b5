"""Complex tensor algebra over labeled multi-qubit layouts.

Products, partial traces, trace-and-replace maps, partial transposes,
double-ket embeddings and the operator file format.  Everything here is a pure
function over immutable values; a single basis convention (row-major composite
indices, first layout factor most significant) is used throughout.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
import warnings
from dataclasses import dataclass
from functools import reduce
from math import prod
from numbers import Real
from typing import Iterable, Sequence

import numpy as np

# Hermiticity handling at construction: silently symmetrize below the warning
# threshold, warn between the two, refuse above the hard error threshold.
SYMMETRIZE_WARN_TOL = 1e-12
HERMITIAN_ERROR_TOL = 1e-8


@dataclass(frozen=True)
class SystemLayout:
    """Ordered, labeled tensor factors with dimensions."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        for lab, dim in self.factors:
            if not isinstance(lab, str):
                raise ValueError(f"layout label {lab!r} is not a string")
            # a bool is an int to Python, and int(2.7) is 2: both are refused
            whole = isinstance(dim, Real) and not isinstance(dim, bool) and float(dim).is_integer()
            if not whole or dim < 1:
                raise ValueError(f"'dims' entry {dim!r} of factor {lab!r} is not a positive whole number")
        factors = tuple((lab, int(dim)) for lab, dim in self.factors)
        labels = [lab for lab, _ in factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in layout: {labels}")
        object.__setattr__(self, "factors", factors)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    def dim(self, label: str) -> int:
        for lab, dim in self.factors:
            if lab == label:
                return dim
        raise KeyError(f"no factor labeled {label!r}")

    def position(self, label: str) -> int:
        for k, (lab, _) in enumerate(self.factors):
            if lab == label:
                return k
        raise KeyError(f"no factor labeled {label!r}")

    def positions(self, labels: Iterable[str]) -> tuple[int, ...]:
        return tuple(sorted(self.position(lab) for lab in set(labels)))


def qubits(*labels: str) -> SystemLayout:
    """Layout of two-dimensional factors with the given labels."""
    return SystemLayout(tuple((lab, 2) for lab in labels))


@dataclass(frozen=True)
class HermitianOperator:
    """A dense complex matrix over a layout, Hermitian by construction."""

    layout: SystemLayout
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        n = self.layout.total_dim
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match layout dimension {n}")
        deviation = float(np.max(np.abs(m - m.conj().T))) if n else 0.0
        if deviation > HERMITIAN_ERROR_TOL:
            raise ValueError(f"matrix is not Hermitian (max asymmetry {deviation:.3e})")
        if deviation > SYMMETRIZE_WARN_TOL:
            warnings.warn(f"symmetrizing nearly-Hermitian matrix (asymmetry {deviation:.3e})")
        m = (m + m.conj().T) / 2
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._check_same_layout(other)
        return HermitianOperator(self.layout, self.matrix + other.matrix)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._check_same_layout(other)
        return HermitianOperator(self.layout, self.matrix - other.matrix)

    def __neg__(self) -> "HermitianOperator":
        return HermitianOperator(self.layout, -self.matrix)

    def __mul__(self, scalar: float) -> "HermitianOperator":
        if isinstance(scalar, (complex, np.complexfloating)):
            if scalar.imag != 0:
                raise TypeError("scaling by a non-real number breaks Hermiticity")
            scalar = scalar.real
        return HermitianOperator(self.layout, self.matrix * float(scalar))

    __rmul__ = __mul__

    def _check_same_layout(self, other: "HermitianOperator") -> None:
        if self.layout != other.layout:
            raise ValueError(f"layout mismatch: {self.layout.labels} vs {other.layout.labels}")


@dataclass(frozen=True)
class Ket:
    """A state vector over a layout."""

    layout: SystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if v.size != self.layout.total_dim:
            raise ValueError(
                f"amplitude length {v.size} does not match layout dimension {self.layout.total_dim}"
            )
        v.flags.writeable = False
        object.__setattr__(self, "amplitudes", v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def outer(self) -> HermitianOperator:
        """The rank-one operator |psi><psi|."""
        return HermitianOperator(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))

    def __add__(self, other: "Ket") -> "Ket":
        if self.layout != other.layout:
            raise ValueError("layout mismatch in ket sum")
        return Ket(self.layout, self.amplitudes + other.amplitudes)

    def __mul__(self, scalar: complex) -> "Ket":
        return Ket(self.layout, self.amplitudes * scalar)

    __rmul__ = __mul__


def basis_ket(layout: SystemLayout, index: int) -> Ket:
    """The computational-basis vector |index> on the given layout."""
    v = np.zeros(layout.total_dim, dtype=complex)
    v[index] = 1.0
    return Ket(layout, v)


def tensor_product(ops: Sequence[HermitianOperator] | Sequence[Ket]):
    """Kronecker product in factor order; layouts are concatenated."""
    ops = list(ops)
    if not ops:
        raise ValueError("tensor_product needs at least one operand")
    layout = SystemLayout(tuple(f for op in ops for f in op.layout.factors))
    if all(isinstance(op, Ket) for op in ops):
        return Ket(layout, reduce(np.kron, [op.amplitudes for op in ops]))
    if all(isinstance(op, HermitianOperator) for op in ops):
        return HermitianOperator(layout, reduce(np.kron, [op.matrix for op in ops]))
    raise TypeError("tensor_product operands must be all operators or all kets")


def identity(layout: SystemLayout) -> HermitianOperator:
    return HermitianOperator(layout, np.eye(layout.total_dim))


# -- raw-matrix kernels (shared with the solver hot loop) ---------------------


def partial_trace_matrix(mat: np.ndarray, dims: Sequence[int], traced: Sequence[int]) -> np.ndarray:
    """Trace out the factors at the given positions of a raw matrix."""
    dims = list(dims)
    for k in sorted(traced, reverse=True):
        p = prod(dims[:k])
        d = dims[k]
        q = prod(dims[k + 1:])
        t = mat.reshape(p, d, q, p, d, q)
        mat = np.trace(t, axis1=1, axis2=4).reshape(p * q, p * q)
        dims.pop(k)
    return mat


def trace_and_replace_matrix(mat: np.ndarray, dims: Sequence[int], replaced: Sequence[int]) -> np.ndarray:
    """Trace out the given positions and re-tensor normalized identities there."""
    dims = tuple(dims)
    for k in replaced:
        p = prod(dims[:k])
        d = dims[k]
        q = prod(dims[k + 1:])
        t = mat.reshape(p, d, q, p, d, q)
        tr = np.trace(t, axis1=1, axis2=4)
        mat = np.einsum("abcd,ij->aibcjd", tr, np.eye(d) / d).reshape(mat.shape)
    return mat


def partial_transpose_matrix(mat: np.ndarray, dims: Sequence[int], positions: Sequence[int]) -> np.ndarray:
    """Transpose the factors at the given positions of a raw matrix."""
    n = len(dims)
    t = mat.reshape(*dims, *dims)
    axes = list(range(2 * n))
    for k in positions:
        axes[k], axes[n + k] = axes[n + k], axes[k]
    return t.transpose(axes).reshape(mat.shape)


# -- labeled operations -------------------------------------------------------


def trace_and_replace(op: HermitianOperator, replaced: Iterable[str]) -> HermitianOperator:
    r"""The map S -> Tr_X(S) \otimes I_X/d_X with X re-inserted in place."""
    positions = op.layout.positions(replaced)
    return HermitianOperator(op.layout, trace_and_replace_matrix(op.matrix, op.layout.dims, positions))


def partial_transpose(op: HermitianOperator, labels: Iterable[str]) -> HermitianOperator:
    positions = op.layout.positions(labels)
    return HermitianOperator(op.layout, partial_transpose_matrix(op.matrix, op.layout.dims, positions))


def permute_factors(op, order: Sequence[str]):
    """Reorder the tensor factors of an operator or ket to the given label order."""
    layout = op.layout
    if sorted(order) != sorted(layout.labels):
        raise ValueError(f"order {order} is not a permutation of {layout.labels}")
    perm = [layout.position(lab) for lab in order]
    new_layout = SystemLayout(tuple(layout.factors[k] for k in perm))
    n = len(layout.dims)
    if isinstance(op, Ket):
        v = op.amplitudes.reshape(layout.dims).transpose(perm).reshape(-1)
        return Ket(new_layout, v)
    t = op.matrix.reshape(*layout.dims, *layout.dims)
    axes = perm + [n + k for k in perm]
    mat = t.transpose(axes).reshape(op.matrix.shape)
    return HermitianOperator(new_layout, mat)


def split_factor(op: HermitianOperator, label: str, new_factors: Sequence[tuple[str, int]]) -> HermitianOperator:
    """Reinterpret one factor as a product of sub-factors (row-major, most
    significant first).  Pure relabeling: the matrix is unchanged."""
    old_dim = op.layout.dim(label)
    if prod(d for _, d in new_factors) != old_dim:
        raise ValueError(f"sub-factor dimensions do not multiply to {old_dim}")
    factors: list[tuple[str, int]] = []
    for lab, dim in op.layout.factors:
        if lab == label:
            factors.extend((str(l), int(d)) for l, d in new_factors)
        else:
            factors.append((lab, dim))
    return HermitianOperator(SystemLayout(tuple(factors)), op.matrix)


def relabel(op: HermitianOperator, mapping: dict) -> HermitianOperator:
    """Rename factors without moving them."""
    factors = tuple((mapping.get(lab, lab), dim) for lab, dim in op.layout.factors)
    return HermitianOperator(SystemLayout(factors), op.matrix)


def double_ket(m: np.ndarray, labels: tuple[str, str] = ("in", "out")) -> Ket:
    r"""Vectorize a square matrix as |M>> = sum_ij <i|M|j> |j>|i>."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"double_ket expects a square matrix, got shape {m.shape}")
    n = m.shape[0]
    layout = SystemLayout(((labels[0], n), (labels[1], n)))
    return Ket(layout, m.T.reshape(-1))


def hs_inner(a: HermitianOperator | np.ndarray, b: HermitianOperator | np.ndarray) -> float:
    """Real Hilbert-Schmidt inner product Tr(A^dag B) of Hermitian operands."""
    ma = a.matrix if isinstance(a, HermitianOperator) else a
    mb = b.matrix if isinstance(b, HermitianOperator) else b
    return float(np.vdot(ma, mb).real)


def min_eigenvalue(op: HermitianOperator | np.ndarray) -> float:
    m = op.matrix if isinstance(op, HermitianOperator) else op
    return float(np.linalg.eigvalsh(m)[0])


# -- operator file format ------------------------------------------------------


def operator_to_dict(op: HermitianOperator) -> dict:
    return {
        "labels": list(op.layout.labels),
        "dims": list(op.layout.dims),
        "re": op.matrix.real.tolist(),
        "im": op.matrix.imag.tolist(),
    }


def operator_from_dict(obj: dict) -> HermitianOperator:
    try:
        labels = obj["labels"]
        dims = obj["dims"]
        parts = {part: np.array(obj[part], dtype=float) for part in ("re", "im")}
        for part, values in parts.items():
            bad = np.argwhere(~np.isfinite(values))
            if bad.size:
                where = bad[0].tolist()
                raise ValueError(f"non-finite '{part}' entry {values[tuple(where)]} at {where}")
        matrix = parts["re"] + 1j * parts["im"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed operator record: {exc}") from exc
    if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
        raise ValueError(f"'labels' is not a list of strings: {labels!r}")
    if not isinstance(dims, list):
        raise ValueError(f"'dims' is not a list: {dims!r}")
    if len(labels) != len(dims):
        raise ValueError("labels and dims have different lengths")
    layout = SystemLayout(tuple(zip(labels, dims)))
    # the HermitianOperator constructor performs the required Hermiticity check
    return HermitianOperator(layout, matrix)


def atomic_write_text(path: str, text: str) -> None:
    """Write a file via a temporary sibling and an atomic rename.  The file
    gets the mode `open(path, "w")` would leave: the existing file's, else
    0o666 less the umask (the temporary file itself is owner-only)."""
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_operator(path: str, op: HermitianOperator) -> None:
    atomic_write_text(path, json.dumps(operator_to_dict(op)))


def load_operator(path: str) -> HermitianOperator:
    with open(path) as handle:
        return operator_from_dict(json.load(handle))
