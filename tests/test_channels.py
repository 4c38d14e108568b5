"""Channel conversion, bistochasticity and inversion tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    input_output_inversion,
    is_bistochastic,
    projector,
    random_bistochastic_channel,
    random_channel,
    random_unitary,
)
from timeflip.channels import KrausChannel, kraus_to_choi
from timeflip.tensor_core import double_ket, permute_factors


def test_kraus_channel_validates_trace_preservation():
    with pytest.raises(ValueError, match="not trace-preserving"):
        KrausChannel([np.array([[1.0, 0.0], [0.0, 0.5]])])


def test_kraus_channel_rejects_non_finite_entries():
    with pytest.raises(ValueError, match=r"non-finite Kraus operator 1 entry \(nan\+0j\) at \[1, 0\]"):
        KrausChannel([PAULI_I / np.sqrt(2), np.array([[0, 0], [np.nan, 1]]) / np.sqrt(2)])


def test_kraus_to_choi_is_the_sum_of_double_ket_projectors():
    # a rectangular channel from a qubit into a ququart: each (4, 2) Kraus
    # operator's double ket lives on (in, out) = (2, 4)
    ch = random_channel(np.random.default_rng(4), 2, 4)
    choi = kraus_to_choi(ch)
    assert choi.layout.dims == (2, 4)
    assert np.allclose(choi.matrix, sum(projector(double_ket(k)) for k in ch.kraus), atol=1e-14)


def test_kraus_to_choi_identity_and_z():
    identity_choi = kraus_to_choi(KrausChannel([PAULI_I]))
    assert np.allclose(identity_choi.matrix, projector(double_ket(np.eye(2))))
    z_choi = kraus_to_choi(KrausChannel([PAULI_Z]))
    assert np.allclose(z_choi.matrix, projector(double_ket(PAULI_Z)))
    assert identity_choi.trace == pytest.approx(2.0)


def test_kraus_to_choi_depolarizing():
    ch = KrausChannel([p / 2 for p in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)])
    choi = kraus_to_choi(ch)
    assert np.allclose(choi.matrix, np.eye(4) / 2)


def test_is_bistochastic_examples():
    assert is_bistochastic(KrausChannel([PAULI_X]))
    # measure in the Z basis and reprepare |+> or |->
    readout = KrausChannel(
        [np.array([[1, 0], [1, 0]]) / np.sqrt(2), np.array([[0, 1], [0, -1]]) / np.sqrt(2)]
    )
    assert is_bistochastic(readout)
    damping = KrausChannel(
        [np.array([[1, 0], [0, 0]], dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex)]
    )
    assert not is_bistochastic(damping)
    with pytest.raises(ValueError):
        is_bistochastic(KrausChannel([np.array([[1.0], [0.0]])]))


def test_inversion_examples():
    z_inv = input_output_inversion(KrausChannel([PAULI_Z]))
    assert np.allclose(z_inv.kraus[0], PAULI_Z)
    y_inv = input_output_inversion(KrausChannel([PAULI_Y]))
    assert np.allclose(y_inv.kraus[0], -PAULI_Y)
    assert np.allclose(kraus_to_choi(y_inv).matrix, kraus_to_choi(KrausChannel([PAULI_Y])).matrix)
    with pytest.raises(ValueError):
        input_output_inversion(
            KrausChannel([np.array([[1, 0], [0, 0]], dtype=complex),
                          np.array([[0, 1], [0, 0]], dtype=complex)])
        )


def test_inversion_is_factor_swap_at_choi_level():
    rng = np.random.default_rng(21)
    for _ in range(5):
        ch = random_bistochastic_channel(rng)
        swapped = permute_factors(kraus_to_choi(ch, labels=("in", "out")), ("out", "in"))
        inverted = kraus_to_choi(input_output_inversion(ch), labels=("in", "out"))
        assert np.allclose(inverted.matrix, swapped.matrix, atol=1e-12)


class TestChannelProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_inversion_involution_at_choi_level(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_bistochastic_channel(rng)
        twice = input_output_inversion(input_output_inversion(ch))
        assert np.allclose(
            kraus_to_choi(twice).matrix, kraus_to_choi(ch).matrix, atol=1e-10
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_inversion_independent_of_kraus_representation(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_bistochastic_channel(rng, terms=2)
        # remix the Kraus family by a random unitary: same channel, new operators
        u = random_unitary(rng, 2)
        remixed = KrausChannel(
            [sum(u[i, j] * ch.kraus[j] for j in range(2)) for i in range(2)]
        )
        assert np.allclose(
            kraus_to_choi(remixed).matrix, kraus_to_choi(ch).matrix, atol=1e-10
        )
        inv_a = kraus_to_choi(input_output_inversion(ch))
        inv_b = kraus_to_choi(input_output_inversion(remixed))
        assert np.allclose(inv_a.matrix, inv_b.matrix, atol=1e-10)
