"""Command-line interface: subcommands, exit codes, file outputs, determinism."""

import functools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import timeflip
from helpers import half_definite, shifted_robustness_primal
from timeflip import cli, sdp
from timeflip.cli import EXIT_FAIL, EXIT_IO, EXIT_OK, main
from timeflip.game import builtin_gate_sets, gate_pair_to_dict, save_gate_pairs
from timeflip.supermaps import SetupOperator, qtf_plus_control, save_setup, setup_to_dict
from timeflip.tensor_core import (
    HermitianOperator,
    SystemLayout,
    operator_to_dict,
    qubits,
    relabel,
    save_operator,
)
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
        assert set(report) == {
            "command", "restricted", "robustness", "upper", "lower", "gap",
            "iterations", "residuals", "converged",
        }
        assert report["command"] == "robustness"
        assert report["robustness"] == report["lower"]
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

    def test_iteration_cap_fails_naming_the_worst_residual(self, capsys):
        assert _run("robustness", "--setup", "qtf", "--max-iter", "10") == EXIT_FAIL
        captured = capsys.readouterr()
        gap = float(re.search(r"^gap (\S+)$", captured.out, re.M).group(1))
        assert gap > 1e-4
        assert re.search(r"worst residual (primal|dual):[\w:-]+ = \d", captured.err)

    def test_flat_gap_exits_early(self, tmp_path, capsys, monkeypatch):
        # the min side's polish adds 0.05 to its bound: the gap cannot close
        monkeypatch.setattr(sdp, "_robustness_primal", shifted_robustness_primal(0.05))
        out = tmp_path / "report.json"
        assert _run("robustness", "--out", str(out)) == EXIT_FAIL
        assert "solver did not certify" in capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report["converged"] is False and report["gap"] > 1e-4
        assert report["iterations"] <= 2000

    def test_missing_setup_file_is_an_io_error(self, tmp_path):
        assert _run("robustness", "--setup", str(tmp_path / "nope.json")) == EXIT_IO


class TestProbabilities:
    def test_uncertified_solve_fails(self, monkeypatch, capsys):
        capped = functools.partial(cli.solve_max_robustness, max_iter=10)
        monkeypatch.setattr(cli, "solve_max_robustness", capped)
        assert _run("probabilities", "--setup", "qtf") == EXIT_FAIL
        captured = capsys.readouterr()
        assert "estimate" not in captured.out
        assert re.search(r"solver did not certify: gap \S+, worst residual", captured.err)

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

    @pytest.mark.parametrize("flag", [("--restricted",), ("--tol", "0.3")])
    def test_stored_decomposition_takes_no_solve_flags(self, artifacts, tmp_path, capsys, flag):
        out = tmp_path / "probs.csv"
        argv = ("probabilities", "--decomposition-in", artifacts["decomposition"], "--out", str(out))
        assert _run(*argv, *flag) == EXIT_IO
        captured = capsys.readouterr()
        assert f"{flag[0]} does not apply to --decomposition-in" in captured.err
        assert captured.out == "" and not out.exists()

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

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_pair_entry_is_an_io_error(self, tmp_path, capsys, part, bad):
        plus, _ = builtin_gate_sets()
        record = gate_pair_to_dict(plus[0])
        record["u"][part][0][0] = bad
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps([record]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _run("game", "--pairs", str(path)) == EXIT_IO
        assert not caught
        message = f"cannot load gate pairs: u of pair {plus[0].name} has non-finite entries"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("bad", [0, [0, 0], [[0, 0]]])
    def test_misshapen_pair_part_is_an_io_error(self, tmp_path, capsys, part, bad):
        plus, _ = builtin_gate_sets()
        record = gate_pair_to_dict(plus[0])
        record["v"][part] = bad
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps([record]))
        assert _run("game", "--pairs", str(path)) == EXIT_IO
        captured = capsys.readouterr()
        assert "correct" not in captured.out
        shape = np.shape(bad)
        assert f"v.{part} of pair {plus[0].name} must be a 2x2 matrix, got shape {shape}" in captured.err

    @pytest.mark.parametrize("extra", [(), ("--pmax-sdp",)])
    def test_empty_pair_file_is_an_io_error(self, tmp_path, capsys, extra):
        path = tmp_path / "pairs.json"
        path.write_text("[]")
        assert _run("game", "--pairs", str(path), *extra) == EXIT_IO
        captured = capsys.readouterr()
        assert "correct" not in captured.out
        assert f"gate-pair file {path} holds no pairs" in captured.err


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

    def test_witness_with_distinct_direction_parts(self, tmp_path, capsys):
        # its witness is nonnegative on the definite cone only through a
        # different complement part per direction
        setup = tmp_path / "half.json"
        witness = tmp_path / "witness.json"
        save_setup(str(setup), half_definite(np.random.default_rng(2), qtf_plus_control()))
        assert _run("robustness", "--setup", str(setup), "--witness-out", str(witness)) == EXIT_OK
        assert _run("validate", "--witness", str(witness)) == EXIT_OK
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

    def test_gate_table_takes_no_tol(self, tmp_path, capsys, monkeypatch):
        args = ("validate", "--gate-table", "--convention", "retarder+/angle-")
        assert _run(*args) == EXIT_FAIL
        assert "retarder+/angle- fail worst 2.000000000e+00" in capsys.readouterr().out
        out = tmp_path / "table.json"
        assert _run(*args, "--tol", "10", "--out", str(out)) == EXIT_IO
        captured = capsys.readouterr()
        assert "--tol does not apply to --gate-table" in captured.err
        assert captured.out == "" and not out.exists()
        # the tolerance variable leaves the fixed row distance alone
        monkeypatch.setenv("TIMEFLIP_TOL", "10")
        assert _run(*args, "--out", str(out)) == EXIT_FAIL
        assert json.loads(out.read_text())["retarder+/angle-"]["tol"] == 1e-8

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


# corruptions of one setup entry, re[3][5]: (id prefix, new value, message)
_SETUP_CORRUPTIONS = (
    ("", lambda v: float("nan"), "non-finite 're' entry nan at [3, 5]"),
    ("asymmetric-", lambda v: v + 0.3, "matrix is not Hermitian (max asymmetry 3.000e-01)"),
)


class TestBadInput:
    @pytest.mark.parametrize("argv, corrupt, message", [
        pytest.param(argv, corrupt, message, id=f"{prefix}argv{k}")
        for prefix, corrupt, message in _SETUP_CORRUPTIONS
        for k, argv in enumerate([("robustness",), ("validate",), ("probabilities",)])
    ])
    def test_nan_setup_is_an_io_error(self, tmp_path, capsys, argv, corrupt, message):
        record = setup_to_dict(qtf_plus_control())
        record["re"][3][5] = corrupt(record["re"][3][5])
        path = tmp_path / "setup.json"
        path.write_text(json.dumps(record))
        assert _run(*argv, "--setup", str(path)) == EXIT_IO
        assert message in capsys.readouterr().err

    def test_restricted_needs_a_qubit_global_input(self, tmp_path, capsys):
        layout = SystemLayout((("G", 3), ("A_I", 2), ("A_O", 2), ("Go", 2)))
        roles = {"G": "global-input", "A_I": "slot-input", "A_O": "slot-output",
                 "Go": "global-output"}
        n = layout.total_dim
        path = tmp_path / "qutrit.json"
        save_setup(str(path), SetupOperator(HermitianOperator(layout, 6.0 / n * np.eye(n)), roles))
        for command in ("robustness", "probabilities"):
            assert _run(command, "--restricted", "--setup", str(path)) == EXIT_IO, command
            err = capsys.readouterr().err
            assert f"--restricted does not apply to setup {str(path)!r}" in err, command
            assert "one qubit global input" in err, command

    @pytest.mark.parametrize("renamed", ["B_it", "B_ot"])
    def test_restricted_needs_the_target_wires(self, tmp_path, capsys, renamed):
        # the restricted form finds B_it and B_ot by label, not by position
        qtf = qtf_plus_control()
        roles = {("X" if lab == renamed else lab): role for lab, role in qtf.roles.items()}
        path = tmp_path / "renamed.json"
        save_setup(str(path), SetupOperator(relabel(qtf.op, {renamed: "X"}), roles))
        for command in ("robustness", "probabilities"):
            assert _run(command, "--restricted", "--setup", str(path)) == EXIT_IO, command
            err = capsys.readouterr().err
            assert f"--restricted does not apply to setup {str(path)!r}" in err, command
            assert "B_it" in err and "B_ot" in err, command

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--shots", "1e30")])
    def test_resampling_number_out_of_range_exits_before_any_work(
        self, artifacts, capsys, flag, value
    ):
        numbers = {"--shots": "1000", "--seed": "0", flag: value}
        argv = [arg for pair in numbers.items() for arg in pair]
        assert _run("probabilities", "--decomposition-in", artifacts["decomposition"], *argv) == EXIT_IO
        captured = capsys.readouterr()
        assert f"error: {flag} must be" in captured.err
        assert "estimate" not in captured.out

    @pytest.mark.parametrize("argv, flag, reason", [
        (("probabilities", "--repetitions", "5"), "--repetitions", "without --shots"),
        (("probabilities", "--seed", "3"), "--seed", "without --shots"),
        (("probabilities", "--setup", "missing.json"), "--setup", "to --decomposition-in with --counts-in"),
        (("game", "--pmax-direction", "forward-only"), "--pmax-direction", "without --pmax-sdp"),
        (("validate", "--setup", "qtf", "--convention", "retarder+/angle+"), "--convention",
         "without --gate-table"),
    ], ids=["repetitions", "seed", "setup", "pmax-direction", "convention"])
    def test_flag_that_does_not_apply_is_an_io_error(self, artifacts, tmp_path, capsys, argv, flag, reason):
        # without the check, each run succeeds and ignores the flag
        if argv[0] == "probabilities":
            argv += ("--decomposition-in", artifacts["decomposition"])
        if flag == "--setup":
            counts = tmp_path / "counts.csv"
            stored = ("probabilities", "--decomposition-in", artifacts["decomposition"])
            assert _run(*stored, "--out", str(counts)) == EXIT_OK
            argv += ("--counts-in", str(counts))
            capsys.readouterr()
        out = tmp_path / "out"
        assert _run(*argv, "--out", str(out)) == EXIT_IO
        captured = capsys.readouterr()
        assert f"error: {flag} does not apply {reason}" in captured.err
        assert captured.out == "" and not out.exists()

    def test_inf_witness_is_an_io_error(self, tmp_path, capsys):
        from timeflip.witness import WIRE_LABELS

        record = operator_to_dict(HermitianOperator(qubits(*WIRE_LABELS), np.eye(32)))
        record["im"][0][1] = float("inf")
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(record))
        assert _run("validate", "--witness", str(path)) == EXIT_IO
        assert "non-finite 'im' entry inf at [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("shots", [(), ("--shots", "1e5")])
    def test_nan_coefficient_is_an_io_error(self, artifacts, tmp_path, capsys, shots):
        lines = Path(artifacts["decomposition"]).read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:-1] + ["nan"])
        path = tmp_path / "decomposition.csv"
        path.write_text("\n".join(lines) + "\n")
        assert _run("probabilities", "--decomposition-in", str(path), *shots) == EXIT_IO
        assert "non-finite coeff nan" in capsys.readouterr().err

    @pytest.mark.parametrize("shots", [(), ("--shots", "1e5")])
    def test_nan_probability_is_an_io_error(self, artifacts, tmp_path, capsys, shots):
        probs = tmp_path / "probs.csv"
        assert _run("probabilities", "--decomposition-in", artifacts["decomposition"],
                    "--out", str(probs)) == EXIT_OK
        lines = probs.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-1] + ["nan"])
        probs.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert _run("probabilities", "--decomposition-in", artifacts["decomposition"],
                    "--counts-in", str(probs), *shots) == EXIT_IO
        assert "non-finite probability nan" in capsys.readouterr().err

    @pytest.mark.parametrize("decomposition, counts, message", [
        ("0,0,0,0,0,0.5\n0,0,0,0,0,0.5\n", None, "repeated term (0, 0, 0, 0, 0)"),
        ("0,0,0,0,0\n", None, "row 2 of "),
        ("0,0,0,0,0,1.0\n", "0,0,0,0,0,0.1\n0,0,0,0,0,0.9\n", "repeated event (0, 0, 0, 0, 0)"),
        ("0,0,0,0,0,1.0\n", "0,0,0,0,0,0.5,7\n", "counts.csv has 7 fields, expected 6"),
        ("0,0,x,0,0,0.5\n", None, "decomposition.csv: column 'c' is not an integer: 'x'"),
        ("0,0,0,0,0,1.0\n", "0,0,x,0,0,0.5\n", "counts.csv: column 'c' is not an integer: 'x'"),
        ("0,0,0,0,0,1.0\n", "0,0,0,0,0,abc\n", "counts.csv: column 'probability' is not a number: 'abc'"),
    ], ids=["repeated-term", "short-row", "repeated-event", "long-event-row", "non-integer-index",
            "non-integer-event-index", "non-numeric-probability"])
    def test_malformed_csv_row_is_an_io_error(
        self, tmp_path, capsys, decomposition, counts, message
    ):
        path = tmp_path / "decomposition.csv"
        path.write_text("a,b,c,d,e,coeff\n" + decomposition)
        argv = ["probabilities", "--decomposition-in", str(path)]
        if counts is not None:
            (tmp_path / "counts.csv").write_text("a,b,c,d,e,probability\n" + counts)
            argv += ["--counts-in", str(tmp_path / "counts.csv")]
        assert _run(*argv) == EXIT_IO
        captured = capsys.readouterr()
        assert message in captured.err
        assert "estimate" not in captured.out


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

    def test_import_does_not_load_scipy(self):
        src = str(Path(timeflip.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", "import timeflip.cli, sys; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == "False"

    def test_benchmark_tracer_finds_every_name_it_wraps(self):
        # perfbench/spans.py wraps package functions by name; a renamed or
        # deleted one breaks its traced runs
        src = Path(timeflip.__file__).resolve().parents[1]
        tracer_dir = src.parent / "perfbench"
        path = os.pathsep.join(filter(None, [str(src), str(tracer_dir), os.environ.get("PYTHONPATH")]))
        script = "import timeflip.cli, spans; spans.install(spans.Tracer('x'))"
        out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr

    @pytest.mark.parametrize("user_value", [None, "2"])
    def test_blas_threads_default_to_one(self, user_value):
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        src = str(Path(timeflip.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k not in names}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if user_value is not None:
            env["OPENBLAS_NUM_THREADS"] = user_value
        script = (
            "import os, timeflip\n"
            f"print(*(os.environ[name] for name in {names!r}))\n"
            "tasks = '/proc/self/task'\n"
            "print(len(os.listdir(tasks)) if os.path.isdir(tasks) else 0)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        values, threads = out.stdout.splitlines()
        assert values == f"{user_value or 1} 1 1"
        if user_value is None:
            # numpy was loaded after the default: no BLAS worker thread exists
            assert int(threads) <= 1

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
