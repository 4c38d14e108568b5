"""Waveplate decompositions of the built-in game gates.

Each of the ten gates of the built-in sets is realized in the experiment as a
quarter-wave, half-wave, quarter-wave plate stack.  The table below gives the
three plate angles per gate; `verify_gate_table` composes the stack under one
of four sign conventions and compares it with the gate matrix the game uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .game import _BUILTIN_GATES, _as_gate

TABLE_TOL = 1e-8

# (QWP1, HWP, QWP2) waveplate angles in degrees of each built-in gate
_ANGLES = {
    "I": (0.0, 0.0, 0.0),
    "X": (0.0, 45.0, 0.0),
    "Y": (90.0, 45.0, 0.0),
    "Z": (90.0, 0.0, 0.0),
    "U1": (45.0, 67.5, 135.0),
    "V1": (135.0, 67.5, 45.0),
    "U2": (0.0, 22.5, 90.0),
    "V2": (90.0, 22.5, 0.0),
    "U3": (22.5, 135.0, 67.5),
    "V3": (67.5, 135.0, 22.5),
}


@dataclass(frozen=True)
class GateTableRow:
    """A named gate with its (QWP1, HWP, QWP2) waveplate angles in degrees."""

    name: str
    matrix: np.ndarray
    angles: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_gate(self.matrix, f"gate {self.name!r}"))
        if len(self.angles) != 3:
            raise ValueError("angles must be a (qwp1, hwp, qwp2) triple")
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))


@lru_cache(maxsize=1)
def builtin_gate_table() -> tuple[GateTableRow, ...]:
    """Waveplate angle assignments for the ten gates of the built-in sets."""
    return tuple(GateTableRow(name, _BUILTIN_GATES[name], angles)
                 for name, angles in _ANGLES.items())


WAVEPLATE_CONVENTIONS = ("retarder+/angle+", "retarder+/angle-",
                         "retarder-/angle+", "retarder-/angle-")


def _waveplate(theta_deg: float, retardance: complex, convention: str) -> np.ndarray:
    """Jones matrix of a waveplate whose fast axis sits at the given angle."""
    retard_sign, angle_sign = convention.split("/")
    phase = retardance if retard_sign == "retarder+" else np.conj(retardance)
    theta = math.radians(theta_deg) * (1.0 if angle_sign == "angle+" else -1.0)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    return rot @ np.diag([1.0, phase]).astype(complex) @ rot.T


def _phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phases of ||e^{i phi} a - b|| in Frobenius norm."""
    overlap = np.trace(a.conj().T @ b)
    phase = overlap / abs(overlap) if abs(overlap) > 0.0 else 1.0
    return float(np.linalg.norm(phase * a - b))


@dataclass(frozen=True)
class GateTableReport:
    """Per-gate distances between table angles and target matrices."""

    convention: str
    distances: Mapping[str, float]
    passed_rows: Mapping[str, bool]
    all_passed: bool
    tol: float

    def as_dict(self) -> dict:
        return {
            "convention": self.convention,
            "distances": dict(self.distances),
            "passed_rows": dict(self.passed_rows),
            "all_passed": self.all_passed,
            "tol": self.tol,
        }


def verify_gate_table(convention: str) -> GateTableReport:
    """Check the built-in waveplate table under one sign convention.

    Each row's QWP-HWP-QWP stack is composed in beam order (QWP1 acts first)
    and compared to the named gate up to a global phase.  The four selectable
    conventions flip the retarder phase sign and/or the rotation sense of the
    axis angle; the report is informative, recording which rows reproduce
    their gates under the chosen reading, a row within TABLE_TOL of its gate.
    """
    if convention not in WAVEPLATE_CONVENTIONS:
        raise ValueError(
            f"convention must be one of {WAVEPLATE_CONVENTIONS}, got {convention!r}")
    distances: dict[str, float] = {}
    passed: dict[str, bool] = {}
    for row in builtin_gate_table():
        q1, h, q2 = row.angles
        composed = (_waveplate(q2, 1.0j, convention)
                    @ _waveplate(h, -1.0, convention)
                    @ _waveplate(q1, 1.0j, convention))
        dist = _phase_distance(composed, row.matrix)
        distances[row.name] = dist
        passed[row.name] = dist <= TABLE_TOL
    return GateTableReport(convention, distances, passed, all(passed.values()), TABLE_TOL)


def gate_table_survey() -> dict[str, GateTableReport]:
    """Run `verify_gate_table` under all four conventions."""
    return {conv: verify_gate_table(conv) for conv in WAVEPLATE_CONVENTIONS}
