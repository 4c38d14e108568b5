"""Complex tensor algebra over labeled multi-qubit layouts.

Products, partial traces, trace-and-replace maps, partial transposes, the
double-ket vectorization and the operator file format.  Everything here is a
pure function over immutable values; a single basis convention (row-major
composite indices, first layout factor most significant) is used throughout.
Operators are `HermitianOperator`s over a layout; pure states are plain numpy
vectors in the same convention, and `double_ket` is the one vectorization of a
matrix, input wire first.
"""

from __future__ import annotations

import json
import math
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


def reject_non_finite(values: np.ndarray, what: str) -> None:
    """Raise a ValueError naming the first NaN or infinite entry of `values`."""
    # the largest |entry| is finite when every entry is; np.isfinite waits for
    # the failure path, since its first call adds 128 kB to a process's RSS
    if math.isfinite(np.abs(values).max(initial=0.0)):
        return
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:  # else |entry| overflowed on finite parts
        where = bad[0].tolist()
        raise ValueError(f"non-finite {what} entry {values[tuple(where)]} at {where}")


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
        # a NaN asymmetry would compare false against the tolerances below
        reject_non_finite(m, "matrix")
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


def tensor_product(ops: Sequence[HermitianOperator]) -> HermitianOperator:
    """Kronecker product in factor order; layouts are concatenated."""
    ops = list(ops)
    if not ops:
        raise ValueError("tensor_product needs at least one operand")
    layout = SystemLayout(tuple(f for op in ops for f in op.layout.factors))
    return HermitianOperator(layout, reduce(np.kron, [op.matrix for op in ops]))


def identity(layout: SystemLayout) -> HermitianOperator:
    return HermitianOperator(layout, np.eye(layout.total_dim))


# -- raw-matrix kernels behind `trace_and_replace` and `link_product` ----------


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


# -- labeled operations -------------------------------------------------------


def trace_and_replace(op: HermitianOperator, replaced: Iterable[str]) -> HermitianOperator:
    r"""The map S -> Tr_X(S) \otimes I_X/d_X with X re-inserted in place."""
    positions = op.layout.positions(replaced)
    return HermitianOperator(op.layout, trace_and_replace_matrix(op.matrix, op.layout.dims, positions))


def partial_transpose(op: HermitianOperator, labels: Iterable[str]) -> HermitianOperator:
    """Transpose the factors with the given labels."""
    dims = op.layout.dims
    n = len(dims)
    axes = list(range(2 * n))
    for k in op.layout.positions(labels):
        axes[k], axes[n + k] = axes[n + k], axes[k]
    mat = op.matrix.reshape(*dims, *dims).transpose(axes).reshape(op.matrix.shape)
    return HermitianOperator(op.layout, mat)


def permute_factors(op: HermitianOperator, order: Sequence[str]) -> HermitianOperator:
    """Reorder the tensor factors of an operator to the given label order."""
    layout = op.layout
    if sorted(order) != sorted(layout.labels):
        raise ValueError(f"order {order} is not a permutation of {layout.labels}")
    perm = [layout.position(lab) for lab in order]
    new_layout = SystemLayout(tuple(layout.factors[k] for k in perm))
    n = len(layout.dims)
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


def double_ket(m: np.ndarray) -> np.ndarray:
    r"""Vectorize a matrix as |M>> = sum_ij <i|M|j> |j>|i>: input wire first,
    amplitude M[i, j] at composite index (j, i).  For a Kraus operator of
    shape (out, in) this is a vector over (in, out)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"double_ket expects a matrix, got shape {m.shape}")
    return m.T.reshape(-1)


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
            reject_non_finite(values, f"'{part}'")
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
