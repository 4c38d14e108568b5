"""Direction-discrimination game: gate pairs, strategies, and payoff bounds.

Two single-qubit unitaries U and V are promised to satisfy either
U V^T = U^T V (the "plus" class) or U V^T = -U^T V ("minus"); a referee hands
both gates to a strategy that may query each of them once, in either direction,
and expects the class label on a one-qubit answer wire.  A strategy that
superposes the two directions answers perfectly on the built-in gate sets,
while any strategy locked to a single fixed direction is capped by a
semidefinite bound strictly below one.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .tensor_core import HermitianOperator, SystemLayout, atomic_write_text, double_ket, qubits, reject_non_finite

if TYPE_CHECKING:
    from .supermaps import SlotSpec

TAG_PLUS = "plus"
TAG_MINUS = "minus"
GATE_TAGS = (TAG_PLUS, TAG_MINUS)

UNITARY_TOL = 1e-10
TAG_TOL = 1e-10
STATE_NORM_TOL = 1e-10
WEIGHT_TOL = 1e-9
CERTAINTY_TOL = 1e-9

GAME_WIRE_LABELS = ("A_I", "A_O", "B_I", "B_O", "C_O")

PMAX_DIRECTIONS = ("forward-only", "backward-only", "convex-hull")
GAME_STRATEGIES = ("qtf", "switch")

_ID = np.eye(2, dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_RT2 = math.sqrt(2.0)
# the ten gates of the built-in sets, by name
_BUILTIN_GATES = {
    "I": _ID,
    "X": _X,
    "Y": _Y,
    "Z": _Z,
    "U1": (_X - _Y) / _RT2,
    "V1": (_X + _Y) / _RT2,
    "U2": (_Z - _Y) / _RT2,
    "V2": (_Z + _Y) / _RT2,
    "U3": (_ID - 1.0j * _Y) / _RT2,
    "V3": (_ID + 1.0j * _Y) / _RT2,
}

_PLUS_KET = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
_MINUS_KET = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
_PORT_PROJECTORS = (np.outer(_PLUS_KET, _PLUS_KET.conj()),
                    np.outer(_MINUS_KET, _MINUS_KET.conj()))


@lru_cache(maxsize=1)
def game_layout() -> SystemLayout:
    """Five qubit wires: one in/out pair per gate slot plus the answer wire."""
    return qubits(*GAME_WIRE_LABELS)


@lru_cache(maxsize=1)
def game_slots() -> tuple[SlotSpec, SlotSpec]:
    """The two gate slots, A_I -> A_O and B_I -> B_O."""
    from .supermaps import SlotSpec

    return SlotSpec(("A_I",), ("A_O",)), SlotSpec(("B_I",), ("B_O",))


def _as_gate(matrix, what: str) -> np.ndarray:
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError(f"{what} must be a 2x2 matrix, got shape {mat.shape}")
    reject_non_finite(mat, what)
    # no entry of a unitary exceeds 1 in modulus; a larger one could overflow
    # the product to inf and NaN, which compare false against the tolerance
    if (np.abs(mat).max() > 1 + UNITARY_TOL
            or np.linalg.norm(mat.conj().T @ mat - _ID, 2) > UNITARY_TOL):
        raise ValueError(f"{what} is not unitary within {UNITARY_TOL:g}")
    return mat


@dataclass(frozen=True)
class GatePair:
    """A promised pair (U, V) with its class tag.

    The tag asserts U V^T = +U^T V ("plus") or U V^T = -U^T V ("minus");
    construction fails if the matrices do not actually satisfy the tagged
    relation, or if either matrix is not unitary.
    """

    u: np.ndarray
    v: np.ndarray
    tag: str
    name: str = ""

    def __post_init__(self):
        label = self.name or "(u, v)"
        object.__setattr__(self, "u", _as_gate(self.u, f"u of pair {label}"))
        object.__setattr__(self, "v", _as_gate(self.v, f"v of pair {label}"))
        if self.tag not in GATE_TAGS:
            raise ValueError(f"tag must be one of {GATE_TAGS}, got {self.tag!r}")
        sign = 1.0 if self.tag == TAG_PLUS else -1.0
        defect = np.linalg.norm(self.u @ self.v.T - sign * self.u.T @ self.v, 2)
        if defect > TAG_TOL:
            raise ValueError(
                f"pair {label} does not satisfy the "
                f"{self.tag!r} relation: defect {defect:.3e}")


def _named_pairs(entries, tag: str) -> tuple[GatePair, ...]:
    return tuple(
        GatePair(u, v, tag, name=f"({nu}, {nv})") for (nu, u), (nv, v) in entries
    )


@lru_cache(maxsize=1)
def builtin_gate_sets() -> tuple[tuple[GatePair, ...], tuple[GatePair, ...]]:
    """The built-in (plus, minus) gate sets: 13 plus pairs and 8 minus pairs.

    Beyond the Pauli combinations, the sets include the rotated gates
    U1 = (X - Y)/sqrt(2), V1 = (X + Y)/sqrt(2), U2 = (Z - Y)/sqrt(2),
    V2 = (Z + Y)/sqrt(2), U3 = (I - iY)/sqrt(2), V3 = (I + iY)/sqrt(2),
    each appearing in both slot orders.
    """
    def pick(*keys):
        return [((a, _BUILTIN_GATES[a]), (b, _BUILTIN_GATES[b])) for a, b in keys]

    plus = _named_pairs(pick(
        ("I", "I"), ("I", "X"), ("I", "Z"),
        ("X", "I"), ("X", "X"), ("X", "Z"),
        ("Z", "I"), ("Z", "X"), ("Z", "Z"),
        ("U1", "V1"), ("V1", "U1"), ("U2", "V2"), ("V2", "U2"),
    ), TAG_PLUS)
    minus = _named_pairs(pick(
        ("Y", "I"), ("Y", "X"), ("Y", "Z"),
        ("I", "Y"), ("X", "Y"), ("Z", "Y"),
        ("U3", "V3"), ("V3", "U3"),
    ), TAG_MINUS)
    return plus, minus


# ---------------------------------------------------------------------------
# Strategies, simulated directly on states.
# ---------------------------------------------------------------------------

def _as_state(vec, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=complex).reshape(-1)
    if arr.shape != (dim,):
        raise ValueError(f"{what} must be a {dim}-component vector")
    reject_non_finite(arr, what)
    if abs(np.linalg.norm(arr) - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"{what} is not normalized")
    return arr


def qtf_strategy(pair: GatePair, target_state) -> tuple[float, float]:
    """Port probabilities of the coherent two-direction strategy.

    The target state rides through the controlled composite
    U V^T (x) |0><0| + U^T V (x) |1><1| with the control prepared in |+> and
    measured in the |+>/|-> basis; returns (p_port0, p_port1).  For a valid
    pair one port fires with certainty ("plus" -> port 0, "minus" -> port 1),
    independently of the target state.
    """
    psi = _as_state(target_state, 2, "target_state")
    fwd = pair.u @ pair.v.T @ psi
    bwd = pair.u.T @ pair.v @ psi
    p0 = float(np.linalg.norm(fwd + bwd) ** 2) / 4.0
    p1 = float(np.linalg.norm(fwd - bwd) ** 2) / 4.0
    return p0, p1


@lru_cache(maxsize=1)
def _symmetric_projector() -> np.ndarray:
    """Projector onto {|A>> : A = A^T} inside the two-qubit double-ket space."""
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[2 * j + i, 2 * i + j] = 1.0
    return (np.eye(4) + swap) / 2.0


def _switch_branches(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sym = u @ v.T + v.T @ u
    anti = u @ v.T - v.T @ u
    scale = 2.0 * math.sqrt(2.0)
    return double_ket(sym) / scale, double_ket(anti) / scale


def switch_strategy(pair: GatePair) -> float:
    """Success probability of the opposite-direction superposition strategy.

    U is queried forward and V backward, with the order of the two calls
    controlled coherently by a |+> qubit.  The output state
    |U V^T + V^T U>>/(2 sqrt(2)) (x) |+>  +  |U V^T - V^T U>>/(2 sqrt(2)) (x) |->
    is measured with the two-outcome observable built from the projector P
    onto symmetric double-kets: "plus" is the outcome
    P (x) |+><+| + (1 - P) (x) |-><-|, and "minus" its complement.  Raises
    if the output state fails to normalize (the pair relation is broken).
    """
    sym_vec, anti_vec = _switch_branches(pair.u, pair.v)
    total = float(np.vdot(sym_vec, sym_vec).real + np.vdot(anti_vec, anti_vec).real)
    if abs(total - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"switch output state is not normalized (norm^2 = {total:.6f})")
    proj = _symmetric_projector()
    in_sym = float(np.vdot(sym_vec, proj @ sym_vec).real)
    in_anti = float(np.vdot(anti_vec, proj @ anti_vec).real)
    p_plus = in_sym + (np.vdot(anti_vec, anti_vec).real - in_anti)
    if pair.tag == TAG_PLUS:
        return float(p_plus)
    return float(total - p_plus)


# ---------------------------------------------------------------------------
# Payoff operators and the fixed-direction bound.
# ---------------------------------------------------------------------------

def _normalized_weights(pairs: Sequence[GatePair], weights) -> np.ndarray:
    if weights is None:
        if not pairs:
            raise ValueError("at least one gate pair is required")
        return np.full(len(pairs), 1.0 / len(pairs))
    arr = np.asarray(weights, dtype=float)
    if arr.shape != (len(pairs),):
        raise ValueError("weights must match the number of gate pairs")
    if np.any(arr < 0.0) or abs(arr.sum() - 1.0) > WEIGHT_TOL:
        raise ValueError("weights must form a probability distribution")
    return arr


def success_effects(pairs: Sequence[GatePair],
                    weights=None) -> tuple[HermitianOperator, HermitianOperator]:
    """Weighted payoff operators (M_plus, M_minus) on the game wires.

    M_t = sum over pairs tagged t of  w * (Choi(U) (x) Choi(V) (x) P_t)^T,
    where Choi(U) = |U>><<U| is built from `double_ket(U)` and P_t projects
    the answer wire onto |+> (plus) or |-> (minus).
    Contracting a strategy operator S as Tr[(M_plus + M_minus) S] gives its
    average success probability on the weighted pair ensemble.
    """
    w = _normalized_weights(pairs, weights)
    layout = game_layout()
    sums = {TAG_PLUS: np.zeros((32, 32), dtype=complex),
            TAG_MINUS: np.zeros((32, 32), dtype=complex)}
    for weight, pair in zip(w, pairs):
        port = _PORT_PROJECTORS[0] if pair.tag == TAG_PLUS else _PORT_PROJECTORS[1]
        u, v = double_ket(pair.u), double_ket(pair.v)
        term = np.kron(np.kron(np.outer(u, u.conj()), np.outer(v, v.conj())), port)
        sums[pair.tag] += weight * term.T
    return (HermitianOperator(layout, sums[TAG_PLUS]),
            HermitianOperator(layout, sums[TAG_MINUS]))


def compute_pmax_fixed_direction(pairs: Sequence[GatePair], direction: str,
                                 weights=None) -> float:
    """Certified cap on the success probability of fixed-direction strategies.

    ``direction`` selects the strategy class: "forward-only" and
    "backward-only" use both gates in the named direction; "convex-hull"
    additionally allows mixing the two.  The value is the semidefinite upper
    bound on  Tr[(M_plus + M_minus) S]  over that class, clipped at 1.
    """
    from .sdp import solve_cone_value
    from .supermaps import ConeId, SpanMask

    if direction not in PMAX_DIRECTIONS:
        raise ValueError(f"direction must be one of {PMAX_DIRECTIONS}, got {direction!r}")
    m_plus, m_minus = success_effects(pairs, weights)
    target = m_plus.matrix + m_minus.matrix
    layout = game_layout()
    spans: dict[str, SpanMask] = {}
    if direction in ("forward-only", "convex-hull"):
        spans["forward"] = SpanMask(layout, game_slots(), (), ("C_O",), ConeId.FORWARD)
    if direction in ("backward-only", "convex-hull"):
        spans["backward"] = SpanMask(layout, game_slots(), (), ("C_O",), ConeId.BACKWARD)
    report = solve_cone_value(target, spans)
    if not report.converged:
        raise ValueError(f"fixed-direction bound did not certify: gap {report.gap:.3e}")
    return min(1.0, float(report.upper))


# ---------------------------------------------------------------------------
# File formats.
# ---------------------------------------------------------------------------

def _gate_from_dict(obj: dict, key: str, label: str) -> np.ndarray:
    # each part is checked on its own: re + 1j * im would broadcast a
    # misshapen part and turn an infinite one into nan with a warning
    gate = obj[key]
    parts = []
    for part in ("re", "im"):
        try:
            arr = np.array(gate[part], dtype=float)
        except KeyError:
            raise ValueError(f"{key}.{part} of pair {label} is missing") from None
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"{key}.{part} of pair {label} is not a matrix of numbers: {exc}") from None
        if arr.shape != (2, 2):
            raise ValueError(f"{key}.{part} of pair {label} must be a 2x2 matrix, "
                             f"got shape {arr.shape}")
        reject_non_finite(arr, f"{key}.{part} of pair {label}")
        parts.append(arr)
    return parts[0] + 1j * parts[1]


def gate_pair_from_dict(obj: dict) -> GatePair:
    try:
        name = str(obj.get("name", ""))
        u, v = (_gate_from_dict(obj, key, name or "(u, v)") for key in ("u", "v"))
        return GatePair(u, v, obj["tag"], name=name)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed gate-pair record: {exc}") from exc


def load_gate_pairs(path: str) -> list[GatePair]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("gate-pair file must hold a JSON list")
    if not data:
        raise ValueError(f"gate-pair file {path} holds no pairs")
    return [gate_pair_from_dict(obj) for obj in data]


@dataclass(frozen=True)
class GameRecord:
    """One played pair: port probabilities and whether the answer was right."""

    pair: str
    tag: str
    p_port0: float
    p_port1: float
    correct: bool


def play_game(pairs: Sequence[GatePair], strategy: str = "qtf") -> list[GameRecord]:
    """Run a superposition strategy over a pair list: the coherent
    two-direction strategy ("qtf", on the target state |0>) or the
    opposite-direction one ("switch")."""
    if strategy not in GAME_STRATEGIES:
        raise ValueError(f"strategy must be one of {GAME_STRATEGIES}, got {strategy!r}")
    records = []
    for index, pair in enumerate(pairs):
        if strategy == "qtf":
            p0, p1 = qtf_strategy(pair, (1.0, 0.0))
        else:
            p_correct = switch_strategy(pair)
            p0 = p_correct if pair.tag == TAG_PLUS else 1.0 - p_correct
            p1 = 1.0 - p0
        winner = p0 if pair.tag == TAG_PLUS else p1
        records.append(GameRecord(
            pair=pair.name or f"pair-{index}",
            tag=pair.tag,
            p_port0=p0,
            p_port1=p1,
            correct=bool(winner >= 1.0 - CERTAINTY_TOL),
        ))
    return records


_GAME_HEADER = ("pair", "tag", "p_port0", "p_port1", "correct")


def save_game_report(path: str, records: Sequence[GameRecord]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_GAME_HEADER)
    for rec in records:
        writer.writerow([rec.pair, rec.tag, repr(rec.p_port0), repr(rec.p_port1),
                         "1" if rec.correct else "0"])
    atomic_write_text(path, buffer.getvalue())

