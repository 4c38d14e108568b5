"""Quantum channels in Kraus and Choi form, bistochasticity tests, and the
transpose-based input-output inversion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import HermitianOperator, SystemLayout

TP_TOL = 1e-9


class KrausChannel:
    """A completely positive map given by a finite family of Kraus operators.

    Trace preservation (sum K^dag K = I) is enforced at construction unless
    `require_trace_preserving=False`, which admits subnormalized instrument
    branches.
    """

    def __init__(self, kraus, require_trace_preserving: bool = True):
        kraus = [np.array(k, dtype=complex) for k in kraus]
        if not kraus:
            raise ValueError("a channel needs at least one Kraus operator")
        out_dim, in_dim = kraus[0].shape
        for k in kraus:
            if k.shape != (out_dim, in_dim):
                raise ValueError(f"inconsistent Kraus shapes: {k.shape} vs {(out_dim, in_dim)}")
            k.flags.writeable = False
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.kraus = tuple(kraus)
        if require_trace_preserving:
            gram = sum(k.conj().T @ k for k in kraus)
            deviation = float(np.max(np.abs(gram - np.eye(in_dim))))
            if deviation > TP_TOL:
                raise ValueError(f"channel is not trace-preserving (deviation {deviation:.3e})")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        return sum(k @ rho @ k.conj().T for k in self.kraus)

    def __len__(self) -> int:
        return len(self.kraus)


def kraus_to_choi(ch: KrausChannel, labels: tuple[str, str] = ("in", "out")) -> HermitianOperator:
    """Choi matrix sum_i |K_i>><<K_i| on the (input, output) layout."""
    layout = SystemLayout(((labels[0], ch.in_dim), (labels[1], ch.out_dim)))
    choi = np.zeros((ch.in_dim * ch.out_dim,) * 2, dtype=complex)
    for k in ch.kraus:
        vec = k.T.reshape(-1)  # amplitude K[i, j] at composite index (j, i)
        choi += np.outer(vec, vec.conj())
    return HermitianOperator(layout, choi)


def choi_to_kraus(c: HermitianOperator, atol: float = 1e-9,
                  require_trace_preserving: bool = True) -> KrausChannel:
    """Kraus operators from scaled eigenvectors of a (two-factor) Choi matrix."""
    if len(c.layout.factors) != 2:
        raise ValueError("choi_to_kraus expects a two-factor (input, output) layout")
    in_dim, out_dim = c.layout.dims
    vals, vecs = np.linalg.eigh(c.matrix)
    if vals[0] < -atol:
        raise ValueError(f"Choi matrix has a negative eigenvalue {vals[0]:.3e}")
    cutoff = max(atol, 1e-12 * max(1.0, float(vals[-1])))
    kraus = [
        np.sqrt(val) * vecs[:, idx].reshape(in_dim, out_dim).T
        for idx, val in enumerate(vals)
        if val > cutoff
    ]
    return KrausChannel(kraus, require_trace_preserving=require_trace_preserving)


def is_bistochastic(ch: KrausChannel, tol: float = TP_TOL) -> bool:
    """True iff the channel is both trace-preserving and unital within tol."""
    if ch.in_dim != ch.out_dim:
        raise ValueError(f"bistochasticity needs in_dim == out_dim, got {ch.in_dim} != {ch.out_dim}")
    eye = np.eye(ch.in_dim)
    tp = max(float(np.max(np.abs(sum(k.conj().T @ k for k in ch.kraus) - eye))), 0.0)
    unital = max(float(np.max(np.abs(sum(k @ k.conj().T for k in ch.kraus) - eye))), 0.0)
    return tp <= tol and unital <= tol


def input_output_inversion(ch: KrausChannel) -> KrausChannel:
    """The bidirectional-device inversion: entrywise transpose of each Kraus
    operator in the computational basis.  At the Choi level this swaps the
    input and output tensor factors."""
    if not is_bistochastic(ch):
        raise ValueError("input-output inversion is defined for bistochastic channels only")
    return KrausChannel([k.T for k in ch.kraus])


@dataclass(frozen=True)
class BistochasticInstrument:
    """Outcome branches whose sum is a bistochastic channel."""

    outcomes: tuple[KrausChannel, ...]

    def __post_init__(self):
        total = self.sum_channel()
        if not is_bistochastic(total):
            raise ValueError("instrument branches do not sum to a bistochastic channel")

    def sum_channel(self) -> KrausChannel:
        kraus = [k for branch in self.outcomes for k in branch.kraus]
        return KrausChannel(kraus)


def measure_and_reprepare(v_basis, w_basis) -> BistochasticInstrument:
    """Measure in the basis {|v_i>} and reprepare the matching |w_i>."""
    v_basis = [np.asarray(v, dtype=complex).reshape(-1) for v in v_basis]
    w_basis = [np.asarray(w, dtype=complex).reshape(-1) for w in w_basis]
    for name, basis in (("v", v_basis), ("w", w_basis)):
        gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        if np.max(np.abs(gram - np.eye(len(basis)))) > 1e-10:
            raise ValueError(f"{name}_basis is not orthonormal")
    if len(v_basis) != len(w_basis):
        raise ValueError("bases must have the same number of elements")
    branches = tuple(
        KrausChannel([np.outer(w, v.conj())], require_trace_preserving=False)
        for v, w in zip(v_basis, w_basis)
    )
    return BistochasticInstrument(branches)


# -- channel file format -------------------------------------------------------


def channel_to_dict(ch: KrausChannel) -> dict:
    return {
        "in_dim": ch.in_dim,
        "out_dim": ch.out_dim,
        "kraus": [{"re": k.real.tolist(), "im": k.imag.tolist()} for k in ch.kraus],
    }


def channel_from_dict(obj: dict) -> KrausChannel:
    try:
        kraus = [np.array(k["re"], dtype=float) + 1j * np.array(k["im"], dtype=float)
                 for k in obj["kraus"]]
        in_dim, out_dim = int(obj["in_dim"]), int(obj["out_dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed channel record: {exc}") from exc
    ch = KrausChannel(kraus)
    if (ch.in_dim, ch.out_dim) != (in_dim, out_dim):
        raise ValueError("declared channel dimensions do not match the Kraus matrices")
    return ch
