"""Seeded setup instances for the noisy-setups workload.

Each instance is a valid single-slot setup on the qtf wires (A_I, A_O, B_it,
B_ot, B_oc), written as a setup JSON file that the CLI reads with --setup:

1. qtf,
2. a forward/backward mixture of random fixed-direction setups,
3. 0.5 * qtf + 0.5 * another such mixture,

each conjugated by Haar unitaries on the global wires drawn from the
workload seed.  The two mixtures come from a fixed stream (BASE_STREAM), not
from the seed: the solver's iteration count depends strongly on the mixture
(1,739 and 4,457 iterations for the definite mixtures of two seeds), but not
on a unitary on the global wires, which maps every setup cone onto itself.
So the seed changes every input matrix while the work per run stays the
same, and runs at different seeds can be compared.  The same seed always
gives byte-identical files.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from timeflip.channels import KrausChannel
from timeflip.supermaps import (
    ConeId,
    SetupOperator,
    qtf_plus_control,
    save_setup,
    sequential_setup,
)
from timeflip.tensor_core import HermitianOperator, SystemLayout, tensor_product

# Wires a global unitary may act on without leaving the setup cones.
GLOBAL_WIRES = ("B_it", "B_ot", "B_oc")
QTF_WEIGHT = 0.5
BASE_STREAM = 0

# The random constructions below follow tests/helpers.py and the definite
# mixtures of tests/test_acceptance.py; they are repeated here so that the
# benchmark does not import the test suite.


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(rng: np.random.Generator, din: int, dout: int, kraus_rank: int = 2) -> KrausChannel:
    """A channel from a Haar-style isometry, sliced into Kraus operators."""
    g = rng.normal(size=(dout * kraus_rank, din)) + 1j * rng.normal(size=(dout * kraus_rank, din))
    q, r = np.linalg.qr(g)
    iso = q[:, :din] * (np.diag(r)[:din] / np.abs(np.diag(r)[:din]))
    return KrausChannel([iso[k * dout:(k + 1) * dout, :] for k in range(kraus_rank)])


def _fixed_direction(rng: np.random.Generator, direction: ConeId, template: SetupOperator) -> np.ndarray:
    """A random fixed-direction setup: a two-stage comb times a random state
    on the control output wire."""
    layout = template.op.layout
    comb = sequential_setup(random_channel(rng, 2, 4), random_channel(rng, 4, 2), 2, direction,
                            labels=layout.labels[:4])
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    state = HermitianOperator(SystemLayout((layout.factors[4],)), rho)
    return tensor_product([comb.op, state]).matrix


def definite_mixture(rng: np.random.Generator, template: SetupOperator) -> np.ndarray:
    """lam * forward + (1 - lam) * backward, lam uniform in [0.15, 0.85]."""
    fwd = _fixed_direction(rng, ConeId.FORWARD, template)
    bwd = _fixed_direction(rng, ConeId.BACKWARD, template)
    lam = rng.uniform(0.15, 0.85)
    return lam * fwd + (1 - lam) * bwd


def rotate_globals(rng: np.random.Generator, mat: np.ndarray, labels) -> np.ndarray:
    """Conjugate by independent Haar unitaries on the global wires."""
    u = reduce(np.kron, [haar_unitary(rng, 2) if lab in GLOBAL_WIRES else np.eye(2)
                         for lab in labels])
    rotated = u @ mat @ u.conj().T
    return (rotated + rotated.conj().T) / 2


def build(seed: int) -> list[tuple[str, SetupOperator]]:
    """The three noisy-setups instances for a seed."""
    qtf = qtf_plus_control()
    base = [np.random.default_rng([BASE_STREAM, k]) for k in range(3)]
    mats = [
        ("rotated-qtf", qtf.op.matrix),
        ("definite-mixture", definite_mixture(base[1], qtf)),
        ("qtf-definite-half", QTF_WEIGHT * qtf.op.matrix
         + (1 - QTF_WEIGHT) * definite_mixture(base[2], qtf)),
    ]
    labels = qtf.op.layout.labels
    out = []
    for k, (name, mat) in enumerate(mats):
        rotated = rotate_globals(np.random.default_rng([seed, k]), mat, labels)
        out.append((name, SetupOperator(HermitianOperator(qtf.op.layout, rotated), qtf.roles)))
    return out


def write(seed: int, directory: str) -> list[tuple[str, str]]:
    """Write the instances as setup JSON files; returns (name, path) pairs."""
    paths = []
    for name, setup in build(seed):
        path = f"{directory}/{name}.json"
        save_setup(path, setup)
        paths.append((name, path))
    return paths
