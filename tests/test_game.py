"""Direction-discrimination game: gate sets, strategies, bounds, file formats."""

import csv
import json
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import game_witness, gate_pair_to_dict, qtf_strategy_operator, switch_strategy_operator
from timeflip import sdp
from timeflip.game import (
    TAG_MINUS,
    TAG_PLUS,
    GameRecord,
    GatePair,
    builtin_gate_sets,
    compute_pmax_fixed_direction,
    game_slots,
    gate_pair_from_dict,
    load_gate_pairs,
    play_game,
    qtf_strategy,
    save_game_report,
    success_effects,
    switch_strategy,
)
from timeflip.supermaps import check_multipartite
from timeflip.tensor_core import double_ket, hs_inner
from timeflip.waveplates import (
    WAVEPLATE_CONVENTIONS,
    GateTableRow,
    builtin_gate_table,
    gate_table_survey,
    verify_gate_table,
)

_TOL = 1e-10
_ROUTE_TOL = 1e-9

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)


def _all_pairs():
    plus, minus = builtin_gate_sets()
    return plus + minus


def _random_state(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    return raw / np.linalg.norm(raw)


@pytest.fixture(scope="module")
def pairs():
    return _all_pairs()


@pytest.fixture(scope="module")
def qtf_op():
    return qtf_strategy_operator()


@pytest.fixture(scope="module")
def switch_op():
    return switch_strategy_operator()


class TestGatePair:
    def test_builtin_set_sizes(self, pairs):
        plus, minus = builtin_gate_sets()
        assert len(plus) == 13
        assert len(minus) == 8
        assert len({p.name for p in pairs}) == 21

    def test_tag_relation_holds_for_every_builtin_pair(self, pairs):
        for pair in pairs:
            sign = 1.0 if pair.tag == TAG_PLUS else -1.0
            defect = np.linalg.norm(pair.u @ pair.v.T - sign * pair.u.T @ pair.v, 2)
            assert defect <= _TOL

    def test_non_unitary_matrix_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            GatePair(0.5 * _I, _I, TAG_PLUS)

    @pytest.mark.parametrize("big", [1e200, 1e308, -1e308j])
    def test_huge_finite_entry_is_not_unitary(self, big):
        # U^dag U overflows to inf and NaN here, and NaN > tol is false
        spoiled = _I.copy()
        spoiled[0, 0] = big
        with pytest.raises(ValueError, match="unitary"):
            GatePair(spoiled, _I, TAG_PLUS)

    def test_wrong_tag_rejected(self):
        with pytest.raises(ValueError, match="relation"):
            GatePair(_I, _Y, TAG_PLUS)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="tag"):
            GatePair(_I, _I, "sideways")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_entry_names_the_matrix_and_the_pair(self, bad):
        spoiled = _I.copy()
        spoiled[0, 0] = bad
        with pytest.raises(ValueError, match=r"^non-finite u of pair \(I, X\) entry .* at \[0, 0\]$"):
            GatePair(spoiled, _X, TAG_PLUS, name="(I, X)")
        with pytest.raises(ValueError, match=r"^non-finite v of pair \(u, v\) entry .* at \[0, 0\]$"):
            GatePair(_I, spoiled, TAG_PLUS)


class TestQtfStrategy:
    def test_every_builtin_pair_answered_with_certainty(self, pairs):
        for pair in pairs:
            p0, p1 = qtf_strategy(pair, (1.0, 0.0))
            winner = p0 if pair.tag == TAG_PLUS else p1
            assert winner == pytest.approx(1.0, abs=1e-12)
            assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 20))
    @settings(max_examples=20, deadline=None)
    def test_certainty_is_target_independent(self, seed, which):
        pair = _all_pairs()[which]
        p0, p1 = qtf_strategy(pair, _random_state(seed))
        winner = p0 if pair.tag == TAG_PLUS else p1
        assert abs(winner - 1.0) <= _TOL

    def test_unnormalized_target_rejected(self, pairs):
        with pytest.raises(ValueError, match="normalized"):
            qtf_strategy(pairs[0], (1.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_target_rejected(self, pairs, bad):
        # abs(nan - 1) > tol is false, so the norm check alone lets nan through
        for strategy in (lambda psi: qtf_strategy(pairs[0], psi), qtf_strategy_operator):
            with pytest.raises(ValueError, match=r"non-finite target_state entry .* at \[0\]"):
                strategy((bad, 0.0))


class TestSwitchStrategy:
    def test_every_builtin_pair_answered_with_certainty(self, pairs):
        for pair in pairs:
            assert switch_strategy(pair) == pytest.approx(1.0, abs=1e-12)

    def test_branch_double_kets_are_orthogonal(self, pairs):
        for pair in pairs:
            sym = double_ket(pair.u @ pair.v.T + pair.v.T @ pair.u)
            anti = double_ket(pair.u @ pair.v.T - pair.v.T @ pair.u)
            assert abs(np.vdot(sym, anti)) <= _TOL

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_projector_symmetrizes_double_kets(self, seed):
        from timeflip.game import _symmetric_projector

        proj = _symmetric_projector()
        assert np.allclose(proj @ proj, proj, atol=1e-14)
        assert np.allclose(proj.conj().T, proj, atol=1e-14)
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        symmetrized = double_ket((a + a.T) / 2.0)
        assert np.allclose(proj @ double_ket(a), symmetrized, atol=1e-12)

    def test_broken_pair_fails_normalization(self):
        fake = types.SimpleNamespace(u=_I, v=0.5 * _I, tag=TAG_PLUS)
        with pytest.raises(ValueError, match="normalized"):
            switch_strategy(fake)


class TestStrategyOperators:
    def test_traces_are_four(self, qtf_op, switch_op):
        assert np.trace(qtf_op.matrix).real == pytest.approx(4.0, abs=1e-10)
        assert np.trace(switch_op.matrix).real == pytest.approx(4.0, abs=1e-10)

    def test_valid_in_general_but_in_neither_fixed_direction(self, qtf_op, switch_op):
        for op in (qtf_op, switch_op):
            report = check_multipartite(op, game_slots(), (), ("C_O",))
            assert report.passed["general"]
            assert not report.passed["forward"]
            assert not report.passed["backward"]
            assert report.min_eigenvalue >= -1e-10

    def test_operator_route_matches_simulation(self, pairs, qtf_op, switch_op):
        for pair in pairs:
            single = (pair,)
            m_plus, m_minus = success_effects(single)
            port0 = m_plus if pair.tag == TAG_PLUS else m_minus
            p0_sim, p1_sim = qtf_strategy(pair, (1.0, 0.0))
            p_sim = p0_sim if pair.tag == TAG_PLUS else p1_sim
            assert abs(hs_inner(port0.matrix, qtf_op.matrix) - p_sim) <= _ROUTE_TOL
            assert abs(hs_inner(port0.matrix, switch_op.matrix) - switch_strategy(pair)) <= _ROUTE_TOL

    @given(st.integers(0, 2**32 - 1), st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_operator_route_for_random_targets(self, seed, which):
        pair = _all_pairs()[which]
        psi = _random_state(seed)
        op = qtf_strategy_operator(psi)
        m_plus, m_minus = success_effects((pair,))
        p0, p1 = qtf_strategy(pair, psi)
        winner_effect = m_plus if pair.tag == TAG_PLUS else m_minus
        p_sim = p0 if pair.tag == TAG_PLUS else p1
        assert abs(hs_inner(winner_effect.matrix, op.matrix) - p_sim) <= _ROUTE_TOL

    def test_perfect_success_on_builtin_ensemble(self, pairs, qtf_op, switch_op):
        m_plus, m_minus = success_effects(pairs)
        assert hs_inner(m_plus.matrix + m_minus.matrix, qtf_op.matrix) == pytest.approx(1.0, abs=1e-10)
        assert hs_inner(m_plus.matrix + m_minus.matrix, switch_op.matrix) == pytest.approx(1.0, abs=1e-10)


class TestGameWitness:
    def test_flags_both_superposition_strategies(self, pairs, qtf_op, switch_op):
        w = game_witness(pairs)
        expected = 1.0 - 1.0 / 0.89
        assert hs_inner(w.matrix, qtf_op.matrix) == pytest.approx(expected, abs=1e-10)
        assert hs_inner(w.matrix, switch_op.matrix) == pytest.approx(expected, abs=1e-10)

    def test_does_not_flag_a_constant_guess(self, pairs):
        # Prepare |+> on the answer wire regardless of the gates: right on the
        # 13 plus pairs, so the pairing sits at 1 - (13/21)/0.89 > 0.
        w = game_witness(pairs)
        plus_proj = np.array([[0.5, 0.5], [0.5, 0.5]])
        const = np.kron(np.eye(16) / 4.0, plus_proj.T)
        value = float(np.trace(w.matrix @ const).real)
        assert value == pytest.approx(1.0 - (13.0 / 21.0) / 0.89, abs=1e-10)
        assert value > 0.0

    def test_pmax_range_validation(self, pairs):
        for bad in (0.0, 1.0, 1.2, -0.3):
            with pytest.raises(ValueError, match="p_max"):
                game_witness(pairs, p_max=bad)

    def test_single_class_ensemble_is_degenerate_but_fine(self):
        plus, _ = builtin_gate_sets()
        w = game_witness(plus[:3])
        m_plus, m_minus = success_effects(plus[:3])
        assert np.linalg.norm(m_minus.matrix) == 0.0
        assert np.trace(w.matrix).real == pytest.approx(8.0 - 4.0 / 0.89, abs=1e-9)


class TestFixedDirectionBound:
    def test_single_pair_is_always_answerable(self, pairs):
        assert compute_pmax_fixed_direction(pairs[:1], "forward-only") == pytest.approx(
            1.0, abs=1e-9)

    def test_uniform_ensemble_bound_sits_between_guessing_and_one(self, pairs):
        value = compute_pmax_fixed_direction(pairs, "convex-hull")
        assert value < 1.0
        assert value >= 13.0 / 21.0 - 1e-9

    def test_builtin_ensemble_caps(self, pairs):
        # uniform over the 21 pairs, and class-balanced: half the weight on
        # the 13 plus pairs and half on the 8 minus pairs, each plus pair
        # listed 8 times and each minus pair 13 times
        plus, minus = builtin_gate_sets()
        balanced = [*plus] * len(minus) + [*minus] * len(plus)
        # each cap with the bracket it certifies at a gap of 1e-10
        cases = (
            (pairs, 0.91975, (0.9197453055245, 0.9197453055360)),
            (balanced, 0.93245, (0.9324483929665, 0.9324483929698)),
        )
        for ensemble, cap, (low, high) in cases:
            value = compute_pmax_fixed_direction(ensemble, "convex-hull")
            assert value == pytest.approx(cap, abs=1e-4)
            # the reported cap is a certified upper bound: at least the lower
            # end of the bracket, and within the default gap above its upper end
            assert value >= low
            assert value <= high + sdp.GAP_TOL

    def test_unknown_direction_rejected(self, pairs):
        with pytest.raises(ValueError, match="direction"):
            compute_pmax_fixed_direction(pairs, "sideways")


class TestGateTable:
    def test_builtin_table_has_ten_unitary_rows(self):
        table = builtin_gate_table()
        assert len(table) == 10
        for row in table:
            assert np.allclose(row.matrix.conj().T @ row.matrix, _I, atol=1e-12)
            assert len(row.angles) == 3

    def test_table_rows_are_the_game_gates(self):
        # the angles live in waveplates and the matrices in game: the table
        # covers exactly the gates of the built-in sets, each one the game's
        plus, minus = builtin_gate_sets()
        gates = {}
        for pair in plus + minus:
            u_name, v_name = pair.name.strip("()").split(", ")
            gates[u_name], gates[v_name] = pair.u, pair.v
        table = builtin_gate_table()
        assert len(gates) == 10
        assert sorted(row.name for row in table) == sorted(gates)
        for row in table:
            assert np.array_equal(row.matrix, gates[row.name]), row.name

    def test_one_convention_reproduces_the_whole_table(self):
        report = verify_gate_table("retarder+/angle+")
        assert report.all_passed
        assert max(report.distances.values()) <= 1e-12

    def test_pauli_rows_pass_under_every_convention(self):
        for convention in WAVEPLATE_CONVENTIONS:
            report = verify_gate_table(convention)
            for name in ("I", "X", "Y", "Z"):
                assert report.passed_rows[name], (convention, name)

    def test_survey_covers_all_conventions(self):
        survey = gate_table_survey()
        assert set(survey) == set(WAVEPLATE_CONVENTIONS)
        assert sum(rep.all_passed for rep in survey.values()) == 1

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError, match="convention"):
            verify_gate_table("retarder*/angle*")

    def test_report_as_dict_is_json_safe(self):
        report = verify_gate_table("retarder-/angle-")
        rebuilt = json.loads(json.dumps(report.as_dict()))
        assert rebuilt["convention"] == "retarder-/angle-"
        assert not rebuilt["all_passed"]


class TestFileFormats:
    def test_gate_pair_json_roundtrip(self, tmp_path, pairs):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps([gate_pair_to_dict(p) for p in pairs]))
        loaded = load_gate_pairs(str(path))
        assert len(loaded) == len(pairs)
        for orig, back in zip(pairs, loaded):
            assert back.name == orig.name
            assert back.tag == orig.tag
            assert np.allclose(back.u, orig.u, atol=0)
            assert np.allclose(back.v, orig.v, atol=0)

    def test_gate_pair_dict_roundtrip_validates(self, pairs):
        obj = gate_pair_to_dict(pairs[0])
        assert gate_pair_from_dict(obj).name == pairs[0].name
        with pytest.raises(ValueError, match="malformed"):
            gate_pair_from_dict({"tag": TAG_PLUS})

    def test_gate_pair_file_must_be_a_list(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="JSON list"):
            load_gate_pairs(str(path))

    def test_empty_gate_pair_file_rejected(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match=re.escape(f"gate-pair file {path} holds no pairs")):
            load_gate_pairs(str(path))

    def test_game_report_roundtrip(self, tmp_path, pairs):
        records = play_game(pairs)
        assert all(rec.correct for rec in records)
        assert len(records) == 21
        path = str(tmp_path / "report.csv")
        save_game_report(path, records)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["pair", "tag", "p_port0", "p_port1", "correct"]
        loaded = [GameRecord(row[0], row[1], float(row[2]), float(row[3]), row[4] == "1")
                  for row in rows[1:]]
        assert loaded == records

    def test_switch_records_follow_switch_strategy(self, pairs):
        records = play_game(pairs, strategy="switch")
        assert all(rec.correct for rec in records)
        for rec, pair in zip(records, pairs):
            winner = rec.p_port0 if pair.tag == TAG_PLUS else rec.p_port1
            assert winner == pytest.approx(switch_strategy(pair), abs=1e-15)
            assert rec.p_port0 + rec.p_port1 == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError, match="strategy"):
            play_game(pairs, strategy="sideways")

    def test_rerun_is_byte_identical(self, tmp_path, pairs):
        records = play_game(pairs)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        save_game_report(str(p1), records)
        save_game_report(str(p2), records)
        assert p1.read_bytes() == p2.read_bytes()


class TestGateTableRowValidation:
    def test_bad_matrix_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            GateTableRow("bogus", np.ones((2, 2)), (0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match=r"non-finite gate 'bogus' entry \(nan\+0j\) at \[0, 0\]"):
            GateTableRow("bogus", np.full((2, 2), np.nan), (0.0, 0.0, 0.0))

    def test_bad_angle_arity_rejected(self):
        with pytest.raises(ValueError, match="triple"):
            GateTableRow("I", _I, (0.0, 0.0))
