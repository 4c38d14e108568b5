"""Witness certificates, measurement decompositions, and the Born-rule pipeline.

A witness is a Hermitian operator on the five-qubit experiment layout whose
pairing with every definite-direction setup is nonnegative.  This module
validates witnesses (by a certified minimum over the definite cone, whose
dual point is the witness's certificate), expands them over the product
basis of preparation and measurement projectors actually realized in the
experiment, models the resulting event probabilities, and turns (possibly
noisy) probabilities back into robustness estimates.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .supermaps import ConeId, SetupOperator, SlotSpec, SpanMask
from .tensor_core import (
    HermitianOperator,
    SystemLayout,
    atomic_write_text,
    min_eigenvalue,
    qubits,
)

WIRE_LABELS = ("A_I", "A_O", "B_it", "B_ot", "B_oc")

CERTIFICATE_TOL = 1e-8
ZERO_COEFF_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8
PROBABILITY_TOL = 1e-12

# Preparation/measurement states: the computational basis, the balanced
# superposition, and the circle state (|0> + i|1>)/sqrt(2).
STATE_KETS = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
)

_PROJECTORS = np.stack([np.outer(k, k.conj()) for k in STATE_KETS])


@lru_cache(maxsize=1)
def experiment_layout() -> SystemLayout:
    """The canonical five-qubit layout (A_I, A_O, B_it, B_ot, B_oc)."""
    return qubits(*WIRE_LABELS)


@lru_cache(maxsize=1)
def _span_masks() -> dict[str, SpanMask]:
    """Masks of the spans of the forward and backward cones."""
    layout = experiment_layout()
    slots = [SlotSpec(("A_I",), ("A_O",))]
    return {
        name: SpanMask(layout, slots, ("B_it",), ("B_ot", "B_oc"), which)
        for name, which in (("forward", ConeId.FORWARD), ("backward", ConeId.BACKWARD))
    }


def require_experiment_layout(layout: SystemLayout, what: str) -> None:
    """Raise ValueError, naming `what`, unless the layout is `experiment_layout()`."""
    if tuple(layout.labels) != WIRE_LABELS or tuple(layout.dims) != (2,) * 5:
        raise ValueError(
            f"{what} must live on the five-qubit layout {WIRE_LABELS}, "
            f"got {tuple(layout.labels)} with dims {tuple(layout.dims)}"
        )


# -- domain types ----------------------------------------------------------------


def _state_indices(indices) -> tuple[int, ...]:
    """The indices of a full (5) or restricted (3) event as ints in 0..3; an
    index with a fractional part, or not finite, is an error, as for counts."""
    indices = tuple(indices)
    if len(indices) not in (5, 3):
        raise ValueError(f"expected 5 (full) or 3 (restricted) indices, got {len(indices)}")
    if not all(0 <= i <= 3 and float(i).is_integer() for i in indices):
        raise ValueError(f"state indices must be whole numbers in 0..3, got {indices}")
    return tuple(int(i) for i in indices)


@dataclass(frozen=True)
class DecompositionTerm:
    """One product-projector term of a witness expansion.

    Five indices (a, b, c, d, e) name states from STATE_KETS for the wires
    (B_it, A_I, A_O, B_ot, B_oc); three indices (b, c, e) name the restricted
    family with B_it pinned to |0> and B_ot traced out.
    """

    indices: tuple[int, ...]
    coeff: float

    def __post_init__(self):
        idx = _state_indices(self.indices)
        coeff = float(self.coeff)
        if not np.isfinite(coeff):
            raise ValueError(f"non-finite coeff {coeff!r} for term {idx}")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "coeff", coeff)


@dataclass(frozen=True)
class ProbabilityRecord:
    """An event probability, optionally backed by raw counts: whole numbers,
    with 0 <= counts <= shots, and the probability within half a count of
    counts / shots."""

    indices: tuple[int, ...]
    probability: float
    counts: int | None = None
    shots: int | None = None

    def __post_init__(self):
        idx = _state_indices(self.indices)
        p = float(self.probability)
        if not np.isfinite(p):
            raise ValueError(f"non-finite probability {p!r} for event {idx}")
        if p < -PROBABILITY_TOL or p > 1.0 + PROBABILITY_TOL:
            raise ValueError(f"probability {p!r} outside [0, 1]")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "probability", min(max(p, 0.0), 1.0))
        if self.shots is not None:
            shots = _whole_number(self.shots, "shots")
            if shots <= 0:
                raise ValueError(f"shots must be positive, got {self.shots}")
            object.__setattr__(self, "shots", shots)
        if self.counts is not None:
            if self.shots is None:
                raise ValueError("counts need an accompanying shot number")
            counts = _whole_number(self.counts, "counts")
            if not 0 <= counts <= self.shots:
                raise ValueError(f"counts must lie between 0 and the {self.shots} shots, got {self.counts}")
            if abs(self.probability - counts / self.shots) > 0.5 / self.shots + PROBABILITY_TOL:
                raise ValueError(
                    f"probability {p!r} is more than half a count from {counts} counts "
                    f"of {self.shots} shots"
                )
            object.__setattr__(self, "counts", counts)


def _whole_number(value, name: str) -> int:
    """A count as an int; a value with a fractional part, not finite or beyond
    float range is an error."""
    try:
        whole = float(value).is_integer()
    except OverflowError:  # an int too large for a float
        raise ValueError(f"{name} is beyond float range") from None
    if not whole:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def certificate_residuals(
    op: HermitianOperator, certificate: Sequence[HermitianOperator]
) -> dict[str, float]:
    """Residuals of the defining identities of a witness certificate.

    A certificate (Z_forward, Z_backward) puts the witness in the dual of
    the definite cone, one direction at a time: Z_forward is orthogonal to
    the span of the forward cone and W - Z_forward is PSD, and likewise for
    the backward direction.  Then <W, S> = <W - Z_d, S> >= 0 for every
    setup S of direction d.
    """
    z_fwd, z_bwd = certificate
    masks = _span_masks()
    return {
        "forward-membership": float(np.linalg.norm(masks["forward"].project(z_fwd.matrix))),
        "backward-membership": float(np.linalg.norm(masks["backward"].project(z_bwd.matrix))),
        "forward-psd": max(0.0, -min_eigenvalue(op.matrix - z_fwd.matrix)),
        "backward-psd": max(0.0, -min_eigenvalue(op.matrix - z_bwd.matrix)),
    }


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of witness validation."""

    valid: bool
    min_definite_value: float
    attained_definite_value: float
    certificate_ok: bool
    certificate: tuple[HermitianOperator, HermitianOperator] | None
    residuals: Mapping[str, float]
    tol: float

    def as_dict(self) -> dict:
        return {
            "valid": bool(self.valid),
            "min_definite_value": float(self.min_definite_value),
            "attained_definite_value": float(self.attained_definite_value),
            "certificate_ok": bool(self.certificate_ok),
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "tol": float(self.tol),
        }


# -- validation ------------------------------------------------------------------


def validate_witness(op: HermitianOperator, tol: float | None = None) -> WitnessReport:
    """Check witness validity against the definite-direction cone.

    Certifies a lower bound on min Tr(W S') over definite setups S' of
    trace dd (the spans' `trace_target`, 4 here), that is over mixtures of
    setups in the exact forward and backward cones (uniform global input and
    normalization included); validity means the bound is >= -tol, with tol
    sdp.GAP_TOL by default.
    The floor pair's one stop rule is that it has decided the certificate
    question: the certified minimum is at least -dd * CERTIFICATE_TOL (a
    certificate exists), a definite setup attains less than -tol (the
    witness is invalid), or the gap is at most dd * CERTIFICATE_TOL (no
    certificate exists to that tolerance).
    The bound side's polished point of that pair, N = nu*I and Q_d =
    nu*I + W - Z_d PSD with Z_d in the complement of each direction's span
    (the polish reports the Z_d in extras["complements"]), is the dual point
    that certifies the witness: when nu <= 0, W - Z_d = Q_d - nu*I is PSD
    and (Z_forward, Z_backward) is a splitting certificate.  A valid
    witness gets that certificate when it meets every identity of
    `certificate_residuals` within CERTIFICATE_TOL.
    """
    from .sdp import GAP_TOL, solve_cone_value

    require_experiment_layout(op.layout, "a witness")
    if tol is None:
        tol = GAP_TOL
    spans = _span_masks()
    margin = spans["forward"].trace_target * CERTIFICATE_TOL

    def decided(upper: float, lower: float) -> bool:
        return upper <= margin or lower > tol or upper - lower <= margin

    # a witness is the one operator the solver takes unnormalized: entries
    # near the float range overflow its squared norms into inf and NaN
    try:
        with np.errstate(over="raise"):
            floor = solve_cone_value(-op.matrix, spans, done=decided)
    except FloatingPointError as exc:
        raise ValueError(f"the witness's entries are too large for the solver: {exc}") from None
    # not -(...): a zero bound would give -0.0
    min_value = 0.0 - floor.upper
    attained = 0.0 - floor.lower
    valid = bool(min_value >= -tol)
    residuals: dict[str, float] = {"definite-floor-gap": float(floor.gap)}

    certificate = None
    if valid:
        parts = floor.extras["complements"]
        candidate = tuple(HermitianOperator(op.layout, parts[d]) for d in ("forward", "backward"))
        cert_res = certificate_residuals(op, candidate)
        residuals.update(cert_res)
        if all(res <= CERTIFICATE_TOL for res in cert_res.values()):
            certificate = candidate
    return WitnessReport(
        valid=valid,
        min_definite_value=float(min_value),
        attained_definite_value=float(attained),
        certificate_ok=certificate is not None,
        certificate=certificate,
        residuals=residuals,
        tol=float(tol),
    )


# -- decomposition ---------------------------------------------------------------


# The product design, one wire at a time.  A term's operator is the tensor
# product of one-wire factors, in layout order (A_I, A_O, B_it, B_ot, B_oc):
# P_b, conj(P_c), conj(P_a), P_d, P_e for a full term (a, b, c, d, e); the
# conjugations are what remains of the global transpose once it is
# distributed over the factors.  Restricted terms (b, c, e) pin B_it to
# |0><0| and put the identity on B_ot, as one-element stacks.  Each design
# also names the permutation from its wire axes to its index order.
_P = _PROJECTORS
_DESIGNS = {
    5: ((_P, _P.conj(), _P.conj(), _P, _P), (2, 0, 1, 3, 4)),
    3: ((_P, _P.conj(), _P[:1], np.eye(2, dtype=complex)[None], _P), (0, 1, 2, 3, 4)),
}


def _pairings(mat: np.ndarray, arity: int) -> np.ndarray:
    """Tr(F_t mat) for every term t of one arity, as an array indexed by the
    term's indices: one contraction of each wire with its factor stack."""
    stacks, order = _DESIGNS[arity]
    out = mat.reshape((2,) * 10)
    for wires_left in range(5, 0, -1):
        # Tr(F M) pairs the factor's (row, col) with M's (col, row)
        out = np.tensordot(out, stacks[5 - wires_left], axes=([0, wires_left], [2, 1]))
    return np.real(out.transpose(order).reshape((4,) * arity))


def _combine(coeffs: np.ndarray, arity: int) -> np.ndarray:
    """sum_t coeffs[t] F_t, the adjoint of `_pairings`."""
    stacks, order = _DESIGNS[arity]
    out = coeffs.reshape([len(stacks[wire]) for wire in order]).transpose(np.argsort(order))
    for stack in stacks:
        out = np.tensordot(out, stack, axes=([0], [0]))
    # axes are now (row, col) per wire, in layout order
    return out.transpose(tuple(range(0, 10, 2)) + tuple(range(1, 10, 2))).reshape(32, 32)


def _solve_gram(pairings: np.ndarray, arity: int) -> np.ndarray:
    """Solve the design's Gram system, the Kronecker product over the wires
    of each factor stack's Gram Tr(F_i F_j), one wire axis at a time."""
    stacks, order = _DESIGNS[arity]
    coeffs = pairings.reshape([len(stacks[wire]) for wire in order])
    for axis, wire in enumerate(order):
        gram = np.array([[np.real(np.trace(fi @ fj)) for fj in stacks[wire]] for fi in stacks[wire]])
        coeffs = np.moveaxis(np.tensordot(np.linalg.inv(gram), coeffs, axes=(1, axis)), 0, axis)
    return coeffs.reshape(-1)


def decompose_witness(op: HermitianOperator, restricted: bool = False) -> list[DecompositionTerm]:
    """Expand a witness over the product basis of experiment settings.

    Solves the Gram system of the (informationally complete) projector
    products; coefficients smaller than ZERO_COEFF_TOL are reported as exact
    zeros.  In restricted mode the basis only spans operators of the pinned
    B_it / traced B_ot form, and an operator outside that span is rejected.
    """
    require_experiment_layout(op.layout, "a witness")
    mat = op.matrix
    arity = 3 if restricted else 5
    coeffs = _solve_gram(_pairings(mat, arity), arity)
    coeffs[np.abs(coeffs) < ZERO_COEFF_TOL] = 0.0
    residual = float(np.linalg.norm(mat - _combine(coeffs, arity)))
    if residual > RECONSTRUCTION_TOL:
        if restricted:
            raise ValueError(
                "witness does not match the restricted product structure "
                f"(|0><0| on B_it, identity on B_ot): residual {residual:.3e}"
            )
        raise ValueError(f"decomposition failed to reconstruct the witness: residual {residual:.3e}")
    return [DecompositionTerm(idx, c) for idx, c in zip(product(range(4), repeat=arity), coeffs)]


# -- Born probabilities and estimation --------------------------------------------


def born_probabilities(
    s: SetupOperator, terms: Sequence[DecompositionTerm]
) -> list[ProbabilityRecord]:
    """Event probabilities of the decomposition settings on a setup.

    Each probability is the pairing of the setup operator with the term's
    product operator (the transposed preparation-and-measurement projector),
    looked up in the pairings of every term of its arity.
    """
    require_experiment_layout(s.op.layout, "the setup")
    tables = {n: _pairings(s.op.matrix, n) for n in {len(term.indices) for term in terms}}
    return [
        ProbabilityRecord(term.indices, float(tables[len(term.indices)][term.indices]))
        for term in terms
    ]


def _aligned_contributions(
    terms: Sequence[DecompositionTerm], probs: Sequence[ProbabilityRecord]
) -> tuple[np.ndarray, np.ndarray]:
    table = _by_indices(probs, "event")
    coeffs = []
    values = []
    for term in terms:
        if term.coeff == 0.0:
            continue
        if term.indices not in table:
            raise ValueError(f"missing probability for contributing term {term.indices}")
        coeffs.append(term.coeff)
        values.append(table[term.indices].probability)
    return np.asarray(coeffs, dtype=float), np.asarray(values, dtype=float)


def estimate_robustness(
    terms: Sequence[DecompositionTerm], probs: Sequence[ProbabilityRecord]
) -> float:
    """Robustness estimate -sum(p * coeff) over the contributing terms."""
    coeffs, values = _aligned_contributions(terms, probs)
    return float(0.0 - values @ coeffs)  # not -(...): that negates an empty sum to -0.0


def poisson_resample(
    terms: Sequence[DecompositionTerm],
    probs: Sequence[ProbabilityRecord],
    shots: int,
    repetitions: int = 100,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo spread of the robustness estimate under Poisson counts.

    Each repetition draws counts with mean shots*p for every contributing
    term, recomputes the estimate from the resampled frequencies, and the
    sample mean and standard deviation over repetitions are returned.
    Deterministic per seed; repetitions use independently spawned generators.
    """
    if _whole_number(shots, "shots") < 1:
        raise ValueError(f"shots must be a positive whole number, got {shots}")
    repetitions = _whole_number(repetitions, "repetitions")
    if repetitions < 2:
        raise ValueError(f"need at least two repetitions for a spread, got {repetitions}")
    coeffs, values = _aligned_contributions(terms, probs)
    expected = values * float(shots)
    estimates = np.empty(repetitions)
    for rep in range(repetitions):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))
        frequencies = rng.poisson(expected) / float(shots)
        estimates[rep] = -(frequencies @ coeffs)
    return float(np.mean(estimates)), float(np.std(estimates, ddof=1))


def z_score(value: float, sigma: float) -> float:
    """Significance of a value against its standard deviation, in exact
    decimal arithmetic so published figures reproduce without float drift."""
    from fractions import Fraction

    spread = Fraction(str(sigma))
    if spread <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return float(Fraction(str(value)) / spread)


# -- CSV interfaces ----------------------------------------------------------------


_FULL_COLUMNS = ("a", "b", "c", "d", "e")
_RESTRICTED_COLUMNS = ("b", "c", "e")


def _index_columns(arity: int) -> tuple[str, ...]:
    return _FULL_COLUMNS if arity == 5 else _RESTRICTED_COLUMNS


def _uniform_arity(items, what: str) -> int:
    arities = {len(item.indices) for item in items}
    if len(arities) > 1:
        raise ValueError(f"{what} mix full and restricted index tuples")
    return arities.pop() if arities else 5


def _by_indices(items, what: str) -> dict:
    """The items keyed by their index tuples; a repeated tuple is an error."""
    table = {}
    for item in items:
        if item.indices in table:
            raise ValueError(f"repeated {what} {item.indices}")
        table[item.indices] = item
    return table


def save_decomposition(path: str, terms: Sequence[DecompositionTerm]) -> None:
    """Write contributing terms as CSV; exact-zero coefficients are omitted."""
    terms = list(terms)
    arity = _uniform_arity(terms, "decomposition terms")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_index_columns(arity) + ("coeff",))
    for term in terms:
        if term.coeff != 0.0:
            writer.writerow(term.indices + (repr(term.coeff),))
    atomic_write_text(path, buf.getvalue())


def _read_csv(path: str, what: str):
    """The header, index arity and numbered non-empty rows of a CSV file
    whose header starts with the full or the restricted index columns; each
    row holds one field per column, as a dict keyed by column."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ValueError(f"empty {what} file {path}")
    header = tuple(rows[0])
    for columns in (_FULL_COLUMNS, _RESTRICTED_COLUMNS):
        if header[: len(columns)] == columns:
            break
    else:
        raise ValueError(f"unrecognized {what} header {header} in {path}")
    numbered = []
    for number, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(
                f"row {number} of {path} has {len(row)} fields, expected {len(header)}: {row}"
            )
        numbered.append((number, dict(zip(header, row))))
    return header, len(columns), numbered


def _field(path: str, number: int, row: dict, column: str, kind: type):
    """One field of a CSV row read as an int or a float; a field that is not
    one, or an int beyond float range, names the file, the row and the column."""
    try:
        value = kind(row[column])
        float(value)  # an int beyond float range raises OverflowError
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(
            f"row {number} of {path}: column {column!r} is not {what}: {row[column]!r}"
        ) from None
    except OverflowError:
        raise ValueError(f"row {number} of {path}: column {column!r} is beyond float range") from None
    return value


def _indexed(path: str, columns: Sequence[str], rows, what: str):
    """Each numbered row with its index tuple, read from the index columns;
    two rows with one index tuple are an error naming the file and both."""
    first = {}
    for number, row in rows:
        indices = tuple(_field(path, number, row, column, int) for column in columns)
        if indices in first:
            raise ValueError(f"rows {first[indices]} and {number} of {path}: repeated {what} {indices}")
        first[indices] = number
        yield number, indices, row


def load_decomposition(path: str) -> list[DecompositionTerm]:
    header, arity, rows = _read_csv(path, "decomposition")
    if header[arity:] != ("coeff",):
        raise ValueError(f"unrecognized decomposition header {header} in {path}")
    terms = []
    for number, indices, row in _indexed(path, header[:arity], rows, "term"):
        coeff = _field(path, number, row, "coeff", float)
        try:
            terms.append(DecompositionTerm(indices, coeff))
        except ValueError as exc:
            raise ValueError(f"row {number} of {path}: {exc}") from None
    return terms


def save_probabilities(path: str, records: Sequence[ProbabilityRecord]) -> None:
    """Write probability records as CSV, with counts columns when present."""
    records = list(records)
    arity = _uniform_arity(records, "probability records")
    with_counts = any(record.counts is not None for record in records)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = _index_columns(arity) + ("probability",)
    if with_counts:
        header += ("counts", "shots")
    writer.writerow(header)
    for record in records:
        row = record.indices + (repr(record.probability),)
        if with_counts:
            row += (
                "" if record.counts is None else record.counts,
                "" if record.shots is None else record.shots,
            )
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def load_probabilities(path: str) -> list[ProbabilityRecord]:
    """Read probability records; raw-count rows (counts, shots and no
    probability column) are converted to frequencies."""
    header, arity, rows = _read_csv(path, "probability")
    columns = set(header[arity:])
    if (len(columns) < len(header) - arity or not columns <= {"probability", "counts", "shots"}
            or "probability" not in columns and not {"counts", "shots"} <= columns):
        raise ValueError(
            f"unrecognized probability header {header} in {path}: after the index columns come "
            "probability, counts and shots, each at most once, with probability or both others"
        )
    records = []
    for number, indices, row in _indexed(path, header[:arity], rows, "event"):
        counts = _field(path, number, row, "counts", int) if row.get("counts") else None
        shots = _field(path, number, row, "shots", int) if row.get("shots") else None
        if "probability" in row:
            probability = _field(path, number, row, "probability", float)
        elif counts is not None and shots is not None:
            probability = counts / shots
        else:
            raise ValueError(f"row {number} of {path} has neither a probability nor counts with shots")
        try:
            records.append(ProbabilityRecord(indices, probability, counts=counts, shots=shots))
        except ValueError as exc:
            raise ValueError(f"row {number} of {path}: {exc}") from None
    return records
