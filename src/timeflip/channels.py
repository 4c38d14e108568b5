"""Quantum channels in Kraus and Choi form, bistochasticity tests, and the
transpose-based input-output inversion."""

from __future__ import annotations

import numpy as np

from .tensor_core import HermitianOperator, SystemLayout, double_ket, reject_non_finite

TP_TOL = 1e-9


class KrausChannel:
    """A quantum channel given by a finite family of Kraus operators.

    Trace preservation (sum K^dag K = I) is checked at construction.
    """

    def __init__(self, kraus):
        kraus = [np.array(k, dtype=complex) for k in kraus]
        if not kraus:
            raise ValueError("a channel needs at least one Kraus operator")
        out_dim, in_dim = kraus[0].shape
        for n, k in enumerate(kraus):
            if k.shape != (out_dim, in_dim):
                raise ValueError(f"inconsistent Kraus shapes: {k.shape} vs {(out_dim, in_dim)}")
            reject_non_finite(k, f"Kraus operator {n}")
            k.flags.writeable = False
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.kraus = tuple(kraus)
        gram = sum(k.conj().T @ k for k in kraus)
        deviation = float(np.max(np.abs(gram - np.eye(in_dim))))
        if deviation > TP_TOL:
            raise ValueError(f"channel is not trace-preserving (deviation {deviation:.3e})")


def kraus_to_choi(ch: KrausChannel, labels: tuple[str, str] = ("in", "out")) -> HermitianOperator:
    """Choi matrix sum_i |K_i>><<K_i| on the (input, output) layout."""
    layout = SystemLayout(((labels[0], ch.in_dim), (labels[1], ch.out_dim)))
    choi = np.zeros((ch.in_dim * ch.out_dim,) * 2, dtype=complex)
    for k in ch.kraus:
        vec = double_ket(k)
        choi += np.outer(vec, vec.conj())
    return HermitianOperator(layout, choi)


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
