"""Command-line interface: subcommands, exit codes, file outputs, determinism."""

import json

import numpy as np
import pytest

from timeflip.cli import EXIT_FAIL, EXIT_IO, EXIT_OK, main
from timeflip.game import builtin_gate_sets, save_gate_pairs
from timeflip.supermaps import qtf_plus_control, setup_to_dict
from timeflip.tensor_core import HermitianOperator, operator_to_dict, qubits, save_operator
from timeflip.witness import load_decomposition, load_probabilities

_VALUE_TOL = 5e-3


def _run(*argv):
    return main(list(argv))


def _stdout_values(capsys):
    """Parse 'key value' stdout lines into a dict of floats where possible."""
    out = {}
    captured = capsys.readouterr().out
    for line in captured.splitlines():
        parts = line.rsplit(" ", 1)
        if len(parts) == 2:
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                out[parts[0]] = parts[1]
    return out


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One full robustness run with every output file, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "report": str(root / "report.json"),
        "witness": str(root / "witness.json"),
        "decomposition": str(root / "decomposition.csv"),
    }
    status = _run("robustness", "--out", paths["report"],
                  "--witness-out", paths["witness"],
                  "--decomposition-out", paths["decomposition"])
    assert status == EXIT_OK
    with open(paths["report"], encoding="utf-8") as fh:
        paths["parsed"] = json.load(fh)
    return paths


class TestRobustness:
    def test_headline_value_and_gap(self, artifacts):
        report = artifacts["parsed"]
        assert report["command"] == "robustness"
        assert report["converged"] is True
        assert report["robustness"] == pytest.approx(0.4007, abs=_VALUE_TOL)
        assert report["gap"] <= 1e-4

    def test_stdout_reports_value(self, artifacts, capsys):
        assert _run("robustness") == EXIT_OK
        values = _stdout_values(capsys)
        assert values["robustness"] == pytest.approx(
            artifacts["parsed"]["robustness"], abs=1e-9)

    def test_decomposition_file_lists_contributing_terms(self, artifacts):
        terms = load_decomposition(artifacts["decomposition"])
        assert len(terms) == 794
        assert all(term.coeff != 0.0 for term in terms)

    def test_restricted_headline_value(self, capsys):
        assert _run("robustness", "--restricted") == EXIT_OK
        values = _stdout_values(capsys)
        assert values["robustness"] == pytest.approx(0.1716, abs=_VALUE_TOL)
        assert values["gap"] <= 1e-4

    def test_missing_setup_file_is_an_io_error(self, tmp_path):
        assert _run("robustness", "--setup", str(tmp_path / "nope.json")) == EXIT_IO


class TestProbabilities:
    def test_forward_identity_term_shows_one_half(self, artifacts, tmp_path):
        out = str(tmp_path / "probs.csv")
        status = _run("probabilities", "--decomposition-in",
                      artifacts["decomposition"], "--out", out)
        assert status == EXIT_OK
        records = {rec.indices: rec.probability for rec in load_probabilities(out)}
        assert records[(0, 0, 0, 0, 0)] == pytest.approx(0.5, abs=1e-12)
        assert len(records) == 794

    def test_estimate_matches_solver_value(self, artifacts, capsys):
        status = _run("probabilities", "--decomposition-in", artifacts["decomposition"])
        assert status == EXIT_OK
        values = _stdout_values(capsys)
        assert values["estimate"] == pytest.approx(
            artifacts["parsed"]["robustness"], abs=1e-6)

    def test_resampling_concentrates_near_the_estimate(self, artifacts, capsys):
        status = _run("probabilities", "--decomposition-in",
                      artifacts["decomposition"], "--shots", "1e7",
                      "--repetitions", "100", "--seed", "0")
        assert status == EXIT_OK
        values = _stdout_values(capsys)
        assert values["resampled-mean"] == pytest.approx(0.4007, abs=1e-3)
        assert values["resampled-stddev"] < 1e-3

    def test_resampling_is_seed_deterministic(self, artifacts, capsys):
        argv = ("probabilities", "--decomposition-in", artifacts["decomposition"],
                "--shots", "1e5", "--repetitions", "5")
        assert _run(*argv, "--seed", "3") == EXIT_OK
        first = _stdout_values(capsys)
        assert _run(*argv, "--seed", "3") == EXIT_OK
        second = _stdout_values(capsys)
        assert _run(*argv, "--seed", "4") == EXIT_OK
        third = _stdout_values(capsys)
        assert first["resampled-mean"] == second["resampled-mean"]
        assert first["resampled-mean"] != third["resampled-mean"]

    def test_counts_replay_reproduces_the_estimate(self, artifacts, tmp_path, capsys):
        ideal = str(tmp_path / "ideal.csv")
        assert _run("probabilities", "--decomposition-in",
                    artifacts["decomposition"], "--out", ideal) == EXIT_OK
        capsys.readouterr()

        from timeflip.witness import ProbabilityRecord, save_probabilities

        shots = 10**9
        counted = [
            ProbabilityRecord(rec.indices, round(rec.probability * shots) / shots,
                              counts=round(rec.probability * shots), shots=shots)
            for rec in load_probabilities(ideal)
        ]
        counts_path = str(tmp_path / "counts.csv")
        save_probabilities(counts_path, counted)

        status = _run("probabilities", "--decomposition-in",
                      artifacts["decomposition"], "--counts-in", counts_path)
        assert status == EXIT_OK
        values = _stdout_values(capsys)
        assert values["estimate"] == pytest.approx(
            artifacts["parsed"]["robustness"], abs=1e-6)

    def test_incomplete_counts_fail_validation(self, artifacts, tmp_path):
        counts_path = tmp_path / "short.csv"
        counts_path.write_text("a,b,c,d,e,probability\n0,0,0,0,0,0.5\n")
        status = _run("probabilities", "--decomposition-in",
                      artifacts["decomposition"], "--counts-in", str(counts_path))
        assert status == EXIT_FAIL


class TestGame:
    def test_builtin_pairs_all_correct(self, tmp_path, capsys):
        out = str(tmp_path / "game.csv")
        assert _run("game", "--out", out) == EXIT_OK
        assert "correct 21/21" in capsys.readouterr().out
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "pair,tag,p_port0,p_port1,correct"
        assert len(lines) == 22
        assert all(line.endswith(",1") for line in lines[1:])

    def test_switch_strategy_all_correct(self, capsys):
        assert _run("game", "--strategy", "switch") == EXIT_OK
        assert "correct 21/21" in capsys.readouterr().out

    def test_pair_file_roundtrip(self, tmp_path, capsys):
        plus, minus = builtin_gate_sets()
        path = str(tmp_path / "pairs.json")
        save_gate_pairs(path, plus[:2] + minus[:2])
        assert _run("game", "--pairs", path) == EXIT_OK
        assert "correct 4/4" in capsys.readouterr().out

    def test_fixed_direction_bound_appended(self, capsys):
        assert _run("game", "--pmax-sdp") == EXIT_OK
        values = _stdout_values(capsys)
        bound = values["pmax-convex-hull"]
        assert 13.0 / 21.0 <= bound < 1.0

    def test_malformed_pair_file_is_an_io_error(self, tmp_path):
        path = tmp_path / "pairs.json"
        path.write_text("not json")
        assert _run("game", "--pairs", str(path)) == EXIT_IO


class TestValidate:
    def test_qtf_setup_memberships(self, capsys):
        assert _run("validate", "--setup", "qtf") == EXIT_OK
        out = capsys.readouterr().out
        assert "general pass" in out
        assert "forward fail" in out
        assert "backward fail" in out

    def test_witness_file_certificate(self, artifacts, capsys):
        assert _run("validate", "--witness", artifacts["witness"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "witness valid" in out
        assert "certificate ok" in out

    def test_invalid_witness_fails(self, tmp_path, capsys):
        from timeflip.witness import WIRE_LABELS

        path = str(tmp_path / "bad.json")
        layout = qubits(*WIRE_LABELS)
        save_operator(path, HermitianOperator(layout, -np.eye(32) / 4.0))
        assert _run("validate", "--witness", path) == EXIT_FAIL
        assert "witness invalid" in capsys.readouterr().out

    def test_gate_table_survey(self, tmp_path, capsys):
        out = str(tmp_path / "table.json")
        assert _run("validate", "--gate-table", "--out", out) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "retarder+/angle+ pass" in stdout
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert len(payload) == 4
        assert payload["retarder+/angle+"]["all_passed"] is True

    def test_failing_convention_sets_exit_status(self, capsys):
        status = _run("validate", "--gate-table", "--convention", "retarder-/angle-")
        assert status == EXIT_FAIL
        assert "fail" in capsys.readouterr().out

    def test_mode_is_required(self, capsys):
        assert _run("validate") == EXIT_IO

    def test_setup_report_json(self, tmp_path):
        out = str(tmp_path / "setup.json")
        assert _run("validate", "--setup", "qtf", "--out", out) == EXIT_OK
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["general"]["passed"] is True
        assert payload["forward"]["passed"] is False
        assert payload["general"]["trace"] == pytest.approx(4.0, abs=1e-12)


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ("robustness",),
        ("validate",),
        ("probabilities",),
    ])
    def test_nan_setup_is_an_io_error(self, tmp_path, capsys, argv):
        record = setup_to_dict(qtf_plus_control())
        record["re"][3][5] = float("nan")
        path = tmp_path / "setup.json"
        path.write_text(json.dumps(record))
        assert _run(*argv, "--setup", str(path)) == EXIT_IO
        assert "non-finite 're' entry nan at [3, 5]" in capsys.readouterr().err

    def test_inf_witness_is_an_io_error(self, tmp_path, capsys):
        from timeflip.witness import WIRE_LABELS

        record = operator_to_dict(HermitianOperator(qubits(*WIRE_LABELS), np.eye(32)))
        record["im"][0][1] = float("inf")
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(record))
        assert _run("validate", "--witness", str(path)) == EXIT_IO
        assert "non-finite 'im' entry inf at [0, 1]" in capsys.readouterr().err


class TestConfig:
    def test_bogus_tolerance_env_is_a_parse_error(self, monkeypatch, capsys):
        for raw in ("not-a-number", "nan", "inf", "-1", "0"):
            monkeypatch.setenv("TIMEFLIP_TOL", raw)
            assert _run("validate", "--setup", "qtf") == EXIT_IO
            assert "TIMEFLIP_TOL" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (("robustness", "--tol", "nan"), "--tol"),
        (("robustness", "--tol", "-1"), "--tol"),
        (("validate", "--setup", "qtf", "--tol", "inf"), "--tol"),
        (("robustness", "--max-iter", "0"), "--max-iter"),
        (("probabilities", "--shots", "0.5"), "--shots"),
        (("probabilities", "--shots", "nan"), "--shots"),
        (("probabilities", "--repetitions", "1"), "--repetitions"),
    ])
    def test_out_of_range_number_is_a_parse_error(self, capsys, argv, flag):
        assert _run(*argv) == EXIT_IO
        assert f"error: {flag} must be" in capsys.readouterr().err

    def test_tolerance_env_is_honored(self, monkeypatch, capsys):
        monkeypatch.setenv("TIMEFLIP_TOL", "1e-6")
        assert _run("validate", "--setup", "qtf") == EXIT_OK
        assert "general pass" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, artifacts, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for path in (first, second):
            assert _run("probabilities", "--decomposition-in",
                        artifacts["decomposition"], "--out", str(path)) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_report_reruns_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            assert _run("validate", "--setup", "qtf", "--out", str(path)) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
