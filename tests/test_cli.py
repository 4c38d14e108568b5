"""Command-line interface: subcommands, exit codes, file outputs, determinism."""

import ast
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
from helpers import (
    QTF_ROBUSTNESS,
    QTF_ROBUSTNESS_RESTRICTED,
    gate_pair_to_dict,
    half_definite,
    qutrit_target_output,
    random_channel,
    shifted_robustness_primal,
)
from timeflip import cli, sdp
from timeflip.cli import EXIT_FAIL, EXIT_IO, EXIT_OK, main
from timeflip.game import builtin_gate_sets
from timeflip.supermaps import (
    SetupOperator,
    qtf_plus_control,
    save_setup,
    sequential_setup,
    setup_to_dict,
)
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


def _python(script: str, *argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter with the package's source first
    on its path, and return the finished process."""
    src = str(Path(timeflip.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


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
        assert report["lower"] <= QTF_ROBUSTNESS <= report["upper"]
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

    def test_restricted_headline_value(self, tmp_path):
        decomposition = str(tmp_path / "restricted.csv")
        out = tmp_path / "report.json"
        assert _run("robustness", "--restricted", "--decomposition-out", decomposition,
                    "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["lower"] <= QTF_ROBUSTNESS_RESTRICTED <= report["upper"]
        assert report["gap"] <= 1e-4
        # the restricted witness costs at most 59 experiment settings
        terms = load_decomposition(decomposition)
        assert len(terms) <= 59
        assert all(len(term.indices) == 3 and term.coeff != 0.0 for term in terms)

    def test_restricted_value_with_a_qutrit_target_output(self, tmp_path):
        # summing a qutrit B_ot over normalizes by 3, not 2; the restricted
        # witness cannot tell qtf from this embedding of it
        path = str(tmp_path / "setup.json")
        save_setup(path, qutrit_target_output(qtf_plus_control()))
        out = tmp_path / "report.json"
        assert _run("robustness", "--setup", path, "--restricted", "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["lower"] <= QTF_ROBUSTNESS_RESTRICTED <= report["upper"]
        assert report["gap"] <= 1e-4

    def test_iteration_cap_fails_naming_the_worst_residual(self, capsys):
        assert _run("robustness", "--setup", "qtf", "--max-iter", "10") == EXIT_FAIL
        captured = capsys.readouterr()
        gap = float(re.search(r"^gap (\S+)$", captured.out, re.M).group(1))
        assert gap > 1e-4
        assert re.search(r"worst residual (primal|dual):[\w:-]+ = \d", captured.err)

    @pytest.mark.parametrize("argv", [
        ("robustness", "--setup", "qtf", "--max-iter", "1"),
        ("validate", "--witness", "zero"),
    ], ids=["robustness-one-iteration", "validate-zero-witness"])
    def test_no_certified_value_is_negative_zero(self, tmp_path, capsys, argv):
        # after one iteration the polished witness is W = 0, and the zero
        # witness's definite floor is 0: each value is a negated zero
        if argv[-1] == "zero":
            from timeflip.witness import WIRE_LABELS

            path = str(tmp_path / "zero.json")
            save_operator(path, HermitianOperator(qubits(*WIRE_LABELS), np.zeros((32, 32))))
            argv = argv[:-1] + (path,)
        out = tmp_path / "out.json"
        _run(*argv, "--out", str(out))
        printed = [v for v in _stdout_values(capsys).values() if isinstance(v, float)]
        written = []

        def collect(node):
            if isinstance(node, dict):
                for value in node.values():
                    collect(value)
            elif isinstance(node, float):
                written.append(node)

        collect(json.loads(out.read_text()))
        assert 0.0 in printed and 0.0 in written
        assert all(np.copysign(1.0, v) > 0 for v in printed + written if v == 0.0)

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
        capped = functools.partial(sdp.solve_max_robustness, max_iter=10)
        monkeypatch.setattr(sdp, "solve_max_robustness", capped)
        assert _run("probabilities", "--setup", "qtf") == EXIT_FAIL
        captured = capsys.readouterr()
        assert "estimate" not in captured.out
        assert re.search(r"solver did not certify: gap \S+, worst residual", captured.err)

    def test_empty_decomposition_prints_positive_zero(self, tmp_path, capsys):
        # what robustness --decomposition-out writes for a definite setup
        path = tmp_path / "decomposition.csv"
        path.write_text("a,b,c,d,e,coeff\n")
        assert _run("probabilities", "--decomposition-in", str(path)) == EXIT_OK
        assert capsys.readouterr().out == "estimate 0.000000000e+00\n"

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

    @pytest.mark.parametrize("flag", [("--restricted",)])
    def test_stored_decomposition_takes_no_solve_flags(self, artifacts, tmp_path, capsys, flag):
        out = tmp_path / "probs.csv"
        argv = ("probabilities", "--decomposition-in", artifacts["decomposition"], "--out", str(out))
        assert _run(*argv, *flag) == EXIT_IO
        captured = capsys.readouterr()
        assert f"{flag[0]} does not apply to --decomposition-in" in captured.err
        assert captured.out == "" and not out.exists()

    def test_probability_off_its_counts_is_an_io_error(self, tmp_path, capsys):
        # a counts row is replayed as counted: a probability column more than
        # half a count from counts / shots names the file and the row
        decomposition = tmp_path / "decomposition.csv"
        decomposition.write_text("a,b,c,d,e,coeff\n0,0,0,0,0,1.0\n")
        counts = tmp_path / "counts.csv"
        counts.write_text("a,b,c,d,e,probability,counts,shots\n0,0,0,0,0,0.9,1,100\n")
        assert _run("probabilities", "--decomposition-in", str(decomposition),
                    "--counts-in", str(counts)) == EXIT_IO
        captured = capsys.readouterr()
        assert f"row 2 of {counts}: probability 0.9 is more than half a count" in captured.err
        assert captured.out == ""

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
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps([gate_pair_to_dict(p) for p in plus[:2] + minus[:2]]))
        assert _run("game", "--pairs", str(path)) == EXIT_OK
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

    def test_gate_table_takes_no_tol(self, tmp_path, capsys):
        args = ("validate", "--gate-table", "--convention", "retarder+/angle-")
        assert _run(*args) == EXIT_FAIL
        assert "retarder+/angle- fail worst 2.000000000e+00" in capsys.readouterr().out
        out = tmp_path / "table.json"
        assert _run(*args, "--tol", "10", "--out", str(out)) == EXIT_IO
        captured = capsys.readouterr()
        assert "--tol does not apply to --gate-table" in captured.err
        assert captured.out == "" and not out.exists()
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


# (id, corruption of an operator record, the message naming the field)
_LAYOUT_CORRUPTIONS = (
    ("fractional-dim", lambda r: r["dims"].__setitem__(0, 2.7),
     "'dims' entry 2.7 of factor 'A_I' is not a positive whole number"),
    ("bool-dim", lambda r: r["dims"].__setitem__(0, True),
     "'dims' entry True of factor 'A_I' is not a positive whole number"),
    ("string-labels", lambda r: r.__setitem__("labels", "ABCDE"),
     "'labels' is not a list of strings: 'ABCDE'"),
)


class TestBadInput:
    @pytest.mark.parametrize("kind", ["setup", "witness"])
    @pytest.mark.parametrize("corrupt, message", [
        pytest.param(corrupt, message, id=name) for name, corrupt, message in _LAYOUT_CORRUPTIONS
    ])
    def test_malformed_layout_is_an_io_error(self, tmp_path, capsys, kind, corrupt, message):
        # int() would truncate 2.7 and read true as 1, and zip() would split
        # a label string into characters: each would load as five wires
        if kind == "setup":
            record, argvs = setup_to_dict(qtf_plus_control()), [("robustness",), ("validate",)]
        else:
            from timeflip.witness import WIRE_LABELS

            record = operator_to_dict(HermitianOperator(qubits(*WIRE_LABELS), np.eye(32) / 32))
            argvs = [("validate",)]
        corrupt(record)
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(record))
        for argv in argvs:
            assert _run(*argv, f"--{kind}", str(path)) == EXIT_IO, argv
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: cannot load {kind} {str(path)!r}: "), argv
            assert message in captured.err, argv
            assert captured.out == "", argv

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

    @pytest.mark.parametrize("flag", ["--setup", "--witness"])
    @pytest.mark.parametrize("content", [None, "{not json", "{}", "3"],
                             ids=["missing", "not-json", "no-fields", "not-an-object"])
    def test_validate_names_the_input_it_cannot_load(self, tmp_path, capsys, flag, content):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content)
        out = tmp_path / "report.json"
        assert _run("validate", flag, str(path), "--out", str(out)) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot load {flag[2:]} {str(path)!r}: ")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("roles", [5, None, "B_it", [["A_I", "slot-input"]]],
                             ids=["number", "null", "string", "pair-list"])
    def test_setup_roles_must_be_an_object(self, tmp_path, capsys, roles):
        # dict() would raise TypeError on a number and quietly accept a list
        # of pairs
        record = setup_to_dict(qtf_plus_control())
        record["roles"] = roles
        path = tmp_path / "setup.json"
        path.write_text(json.dumps(record))
        for command in ("validate", "robustness"):
            assert _run(command, "--setup", str(path)) == EXIT_IO, command
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: cannot load setup {str(path)!r}: "), command
            assert "'roles' is not an object" in captured.err, command
            assert captured.out == "", command

    @pytest.mark.parametrize("header, row", [
        ("b,c,e,probability,shots_typo", "0,0,0,0.5,7"),
        ("b,c,e,probability,probability", "0,0,0,0.5,0.5"),
        ("b,c,e,counts", "0,0,0,7"),
        ("b,c,e", "0,0,0"),
    ], ids=["unknown-column", "repeated-column", "counts-without-shots", "no-value-column"])
    def test_probability_header_is_checked_once(self, tmp_path, capsys, header, row):
        decomposition = tmp_path / "decomposition.csv"
        decomposition.write_text("b,c,e,coeff\n0,0,0,1.0\n")
        counts = tmp_path / "typo.csv"
        counts.write_text(f"{header}\n{row}\n")
        assert _run("probabilities", "--decomposition-in", str(decomposition),
                    "--counts-in", str(counts)) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot obtain probabilities: unrecognized probability header")
        assert f"{tuple(header.split(','))} in {counts}" in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("command, flag, outs", [
        ("robustness", "--decomposition-out", ("--out", "--witness-out", "--decomposition-out")),
        ("probabilities", "--setup", ("--out",)),
    ], ids=["robustness", "probabilities"])
    def test_experiment_flag_off_the_layout_exits_before_solving(
        self, tmp_path, capsys, monkeypatch, command, flag, outs
    ):
        # before the check, robustness solved, wrote --out and --witness-out
        # and exited 1 on the decomposition; probabilities solved, then exited 2
        def solver_must_not_run(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(sdp, "solve_max_robustness", solver_must_not_run)
        # a valid setup on four wires (A_I, A_O, B_I, B_O), not the five of the experiment
        rng = np.random.default_rng(7)
        setup = str(tmp_path / "sequential.json")
        save_setup(setup, sequential_setup(random_channel(rng, 2, 4), random_channel(rng, 4, 2), 2))
        paths = [tmp_path / f"out{k}" for k in range(len(outs))]
        argv = [arg for option, path in zip(outs, paths) for arg in (option, str(path))]
        assert _run(command, "--setup", setup, *argv) == EXIT_IO
        captured = capsys.readouterr()
        assert f"error: {flag} does not apply to setup {setup!r}" in captured.err
        assert "five-qubit layout" in captured.err
        assert captured.out == "" and not any(path.exists() for path in paths)

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
    @pytest.mark.parametrize("argv, flag", [
        (("validate", "--witness", "w.json", "--tol", "nan"), "--tol"),
        (("validate", "--setup", "qtf", "--tol", "-1"), "--tol"),
        (("validate", "--setup", "qtf", "--tol", "inf"), "--tol"),
        (("robustness", "--max-iter", "0"), "--max-iter"),
        (("probabilities", "--shots", "0.5"), "--shots"),
        (("probabilities", "--shots", "nan"), "--shots"),
        (("probabilities", "--repetitions", "1"), "--repetitions"),
        (("probabilities", "--shots", "2.5"), "--shots"),
    ])
    def test_out_of_range_number_is_a_parse_error(self, capsys, argv, flag):
        assert _run(*argv) == EXIT_IO
        assert f"error: {flag} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (("game", "--strategy", "superposed", "--out", "{out}"), "--strategy"),
        (("game", "--pmax-sdp", "--pmax-direction", "sideways", "--out", "{out}"),
         "--pmax-direction"),
        (("validate", "--gate-table", "--convention", "retarder0/angle+", "--out", "{out}"),
         "--convention"),
    ], ids=["strategy", "pmax-direction", "convention"])
    def test_unknown_choice_is_a_parse_error(self, tmp_path, capsys, argv, flag):
        # the command checks the value against its module's choices before any work
        out = tmp_path / "out"
        assert _run(*(arg.format(out=out) for arg in argv)) == EXIT_IO
        captured = capsys.readouterr()
        assert f"error: {flag} must be one of " in captured.err
        assert captured.out == "" and not out.exists()

    def test_solve_commands_take_no_tolerance(self, capsys):
        # a certified pair stops on its gap, so no tolerance shapes the solve
        for command in ("robustness", "probabilities"):
            with pytest.raises(SystemExit) as exc:
                _run(command, "--tol", "1e-6")
            assert exc.value.code == EXIT_IO
            assert "unrecognized arguments: --tol 1e-6" in capsys.readouterr().err

    def test_validate_reads_its_tolerance_from_the_flag_alone(self, tmp_path, monkeypatch, capsys):
        # no environment variable sets a tolerance, not even a malformed one
        monkeypatch.setenv("TIMEFLIP_TOL", "not-a-number")
        out = tmp_path / "setup.json"
        for flag, tol in (((), 1e-9), (("--tol", "1e-6"), 1e-6)):
            assert _run("validate", "--setup", "qtf", *flag, "--out", str(out)) == EXIT_OK
            assert capsys.readouterr().out == "general pass\nforward fail\nbackward fail\n"
            assert {report["tol"] for report in json.loads(out.read_text()).values()} == {tol}

    def test_import_does_not_load_scipy(self):
        out = _python("import timeflip.cli, sys; print('scipy' in sys.modules)")
        assert out.stdout.strip() == "False", out.stderr

    def test_real_solves_do_not_load_numpy_random(self):
        # numpy loads numpy.random lazily, and with it secrets, hashlib and
        # libcrypto: about 5 MB of memory that only the resampling needs
        script = (
            "import sys\n"
            "from timeflip import game, sdp, supermaps\n"
            "sdp.solve_max_robustness(supermaps.qtf_plus_control())\n"
            "sdp.solve_max_robustness(supermaps.qtf_plus_control(), restricted=True)\n"
            "plus, minus = game.builtin_gate_sets()\n"
            "game.compute_pmax_fixed_direction(plus + minus, 'convex-hull')\n"
            "print('numpy.random' in sys.modules)\n"
        )
        out = _python(script)
        assert out.stdout.strip() == "False", out.stderr

    # Each command line of the benchmark (perfbench/run.py) with its inputs,
    # and the package modules it loads besides timeflip and timeflip.cli.
    # Every command that runs one loads numpy and the three modules below
    # the solver; the bare import loads nothing more.
    @pytest.mark.parametrize("argv, modules", [
        ((), ()),
        (("robustness", "--setup", "qtf", "--out", "{out}/rob.json",
          "--witness-out", "{out}/witness.json", "--decomposition-out", "{out}/dec.csv"),
         ("sdp", "witness")),
        (("robustness", "--setup", "qtf", "--restricted", "--out", "{out}/rrob.json",
          "--decomposition-out", "{out}/rdec.csv"), ("sdp", "witness")),
        (("probabilities", "--decomposition-in", "{decomposition}", "--shots", "1e7",
          "--repetitions", "100", "--seed", "1", "--out", "{out}/probs.csv"), ("witness",)),
        (("validate", "--witness", "{witness}", "--out", "{out}/val.json"), ("sdp", "witness")),
        (("game", "--strategy", "qtf", "--out", "{out}/game-qtf.csv"), ("game",)),
        (("game", "--strategy", "switch", "--out", "{out}/game-switch.csv"), ("game",)),
        (("game", "--pmax-sdp"), ("game", "sdp")),
        (("robustness", "--setup", "{setup}", "--max-iter", "4000", "--out", "{out}/noisy.json"),
         ("sdp",)),
    ], ids=["import", "robustness", "robustness-restricted", "probabilities", "validate",
            "game-qtf", "game-switch", "game-pmax", "robustness-setup-file"])
    def test_command_loads_only_the_modules_it_runs(self, artifacts, tmp_path, argv, modules):
        # a small setup file: a sequential setup on four wires
        rng = np.random.default_rng(7)
        setup = str(tmp_path / "sequential.json")
        save_setup(setup, sequential_setup(random_channel(rng, 2, 4), random_channel(rng, 4, 2), 2))
        paths = dict(artifacts, setup=setup, out=str(tmp_path))
        script = (
            "import json, sys\n"
            "from timeflip import cli\n"
            "status = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
            "names = [m for m in sys.modules if m == 'numpy' or m.split('.')[0] == 'timeflip']\n"
            "print(json.dumps([status, sorted(names)]))\n"
        )
        out = _python(script, *(arg.format(**paths) for arg in argv))
        status, loaded = json.loads(out.stdout.splitlines()[-1])
        assert status == EXIT_OK, out.stderr
        expected = {"timeflip", "timeflip.cli"}
        if argv:
            expected |= {"numpy", "timeflip.channels", "timeflip.supermaps", "timeflip.tensor_core"}
        assert set(loaded) == expected | {f"timeflip.{name}" for name in modules}

    def test_every_exported_name_resolves(self):
        assert len(set(timeflip.__all__)) == len(timeflip.__all__)
        for name in timeflip.__all__:
            assert getattr(timeflip, name).__name__ == name
        assert set(timeflip.__all__) <= set(dir(timeflip))
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            getattr(timeflip, "nonexistent")

    def test_benchmark_tracer_finds_every_name_it_wraps(self):
        # perfbench/spans.py wraps package functions by name; a renamed or
        # deleted one breaks its traced runs
        tracer_dir = Path(timeflip.__file__).resolve().parents[2] / "perfbench"
        path = os.pathsep.join(filter(None, [str(tracer_dir), os.environ.get("PYTHONPATH")]))
        out = _python("import timeflip.cli, spans; spans.install(spans.Tracer('x'))",
                      env=dict(os.environ, PYTHONPATH=path))
        assert out.returncode == 0, out.stderr

    @pytest.mark.parametrize("user_value", [None, "2"])
    def test_blas_threads_default_to_one(self, user_value):
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in names}
        if user_value is not None:
            env["OPENBLAS_NUM_THREADS"] = user_value
        # `import timeflip` loads no numpy; the solver module loads it after
        # the package has set the default
        script = (
            "import os, timeflip, timeflip.sdp\n"
            f"print(*(os.environ[name] for name in {names!r}))\n"
            "tasks = '/proc/self/task'\n"
            "print(len(os.listdir(tasks)) if os.path.isdir(tasks) else 0)\n"
        )
        out = _python(script, env=env)
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


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_examples() -> dict[str, list[str]]:
    """README's command-line examples: the arguments of each `$ timeflip`
    line of a fenced block, mapped to the output lines under it."""
    blocks = re.findall(r"^\$ timeflip (.+)\n((?:(?!\$ |```).+\n)*)", _readme(), re.M)
    return {args: shown.splitlines() for args, shown in blocks}


class TestReadme:
    @pytest.mark.parametrize("command", [
        "robustness --setup qtf",
        "robustness --setup qtf --restricted",
        "probabilities --shots 1e7 --repetitions 100 --seed 0",
        "game --pmax-sdp",
        "validate --setup qtf",
    ])
    def test_example_prints_what_readme_shows(self, capsys, command):
        shown = _readme_examples()[command]
        assert _run(*command.split()) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == shown

    def test_validate_witness_example(self, artifacts, capsys):
        # the README's witness.json is what `robustness --witness-out` writes
        shown = _readme_examples()["validate --witness witness.json"]
        assert _run("validate", "--witness", artifacts["witness"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == shown

    def test_validate_gate_table_example(self, capsys):
        # the README shows the first lines of the survey, then "..."
        shown = _readme_examples()["validate --gate-table"]
        assert shown[-1] == "..."
        assert _run("validate", "--gate-table") == EXIT_OK
        assert capsys.readouterr().out.splitlines()[: len(shown) - 1] == shown[:-1]

    def test_python_quick_start_prints_what_readme_shows(self):
        # a fresh interpreter reads every name through the package's lazy exports
        code = re.search(r"^## Quick start\n\n```python\n(.*?)^```", _readme(), re.S | re.M).group(1)
        out = _python(code)
        assert out.returncode == 0, out.stderr
        # the comment after each print shows its value, rounded, or says what it equals
        shown = [line.split("#", 1)[1].strip().split("  ")[0]
                 for line in code.splitlines() if line.startswith("print(")]
        printed = out.stdout.splitlines()
        assert len(printed) == len(shown)
        for comment, line in zip(shown, printed):
            try:
                value = ast.literal_eval(comment)
            except (SyntaxError, ValueError):
                continue  # a description, such as "equals report.lower"
            assert ast.literal_eval(line) == pytest.approx(value, abs=_VALUE_TOL), comment
