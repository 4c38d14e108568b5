"""Property tests of the command line's input boundary, one per file format.

Each test mutates a valid input file, runs `cli.main` in process and checks
the exit-status contract: nothing raises (the suite turns warnings into
errors), the status is 0, 1 or 2, status 2 comes with an `error:` line on
stderr, and nothing prints NaN, apart from a status-2 message that echoes a
NaN the mutation wrote into the file.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import gate_pair_to_dict
from timeflip.cli import main
from timeflip.game import builtin_gate_sets
from timeflip.supermaps import qtf_plus_control, setup_to_dict
from timeflip.tensor_core import operator_to_dict

# what a mutation writes in place of a JSON node: null, a bool, a string, an
# empty object and list, an integer no float holds, inf, NaN, a float near
# the top of the range and negative zero; then the same as CSV field text
_JSON_VALUES = (None, True, "x", {}, [], 10**400, float("inf"), float("nan"), 1e308, -0.0)
_CSV_VALUES = ("", "True", "x", "{}", "[]", str(10**400), "inf", "nan", "1e308", "-0")

_COMMANDS = {"setup": ("validate", "--setup"), "witness": ("validate", "--witness"),
             "pairs": ("game", "--pairs")}
_CSV = {
    "decomposition": "a,b,c,d,e,coeff\n0,0,0,0,0,0.5\n0,1,2,3,0,-0.25\n1,0,3,0,2,0.125\n",
    "counts": "a,b,c,d,e,probability,counts,shots\n"
              "0,0,0,0,0,0.5,50,100\n0,1,2,3,0,0.25,25,100\n1,0,3,0,2,0.75,75,100\n",
}

_NAN = re.compile(r"\bnan\b", re.I)
_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@lru_cache(maxsize=None)
def _document(kind: str):
    """A valid document of the kind."""
    if kind == "setup":
        return setup_to_dict(qtf_plus_control())
    if kind == "witness":
        return operator_to_dict(qtf_plus_control().op)
    return [gate_pair_to_dict(pair) for pair in builtin_gate_sets()[0][:2]]


def _draw_path(data, node) -> tuple:
    """A path from the root into the document, drawn one level at a time,
    so that a short path, to a key such as `dims`, comes up as often as a
    path into a matrix."""
    path = ()
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3), label="stop") > 0:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))),
                        label="key")
        path += (key,)
        node = node[key]
    return path


def _render(node, path, op, value) -> str:
    """JSON text of `node` with the node at `path` replaced by `value`,
    deleted, or repeated: a list item twice, or an object key twice with
    one value, which JSON reads as the key once."""
    if not path:
        return json.dumps(value)
    parts = []
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        text = json.dumps(child)
        if key == path[0]:
            if len(path) > 1:
                text = _render(child, path[1:], op, value)
            elif op == "replace":
                text = json.dumps(value)
            elif op == "delete":
                continue
            else:
                parts.append((key, text))
        parts.append((key, text))
    if isinstance(node, dict):
        return "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in parts) + "}"
    return "[" + ", ".join(text for _, text in parts) + "]"


def _mutate_csv(text: str, row: int, field: int, op: str, value: str) -> str:
    """CSV text with one field replaced by `value`, or one row deleted,
    repeated, shortened by its last field or lengthened by `value`; `row`
    and `field` wrap around."""
    rows = [line.split(",") for line in text.splitlines()]
    row %= len(rows)
    if op == "replace":
        rows[row][field % len(rows[row])] = value
    elif op == "delete":
        del rows[row]
    elif op == "repeat":
        rows.insert(row, list(rows[row]))
    elif op == "shorten":
        del rows[row][-1]
    else:
        rows[row].append(value)
    return "".join(",".join(fields) + "\n" for fields in rows)


def _check(capsys, argv, wrote_nan: bool) -> None:
    status = main(argv)
    captured = capsys.readouterr()
    assert status in (0, 1, 2), (status, captured)
    if status == 2:
        assert captured.err.startswith("error: "), captured
    if not (status == 2 and wrote_nan):
        assert not _NAN.search(captured.out + captured.err), captured


def _check_json(kind, tmp_path, capsys, data) -> None:
    document = _document(kind)
    path = _draw_path(data, document)
    op = data.draw(st.sampled_from(("replace", "delete", "repeat") if path else ("replace",)), label="op")
    value = data.draw(st.sampled_from(_JSON_VALUES), label="value")
    file = tmp_path / "input.json"
    file.write_text(_render(document, path, op, value))
    # numpy reads a null among numbers as NaN, and the error names that entry
    wrote_nan = op == "replace" and (value is None or value != value)
    _check(capsys, [*_COMMANDS[kind], str(file)], wrote_nan)


@settings(_SETTINGS, max_examples=100)
@given(data=st.data())
def test_mutated_setup_file(tmp_path, capsys, data):
    _check_json("setup", tmp_path, capsys, data)


@settings(_SETTINGS, max_examples=25)
@given(data=st.data())
def test_mutated_witness_file(tmp_path, capsys, data):
    # few examples: a witness that loads costs a solve
    _check_json("witness", tmp_path, capsys, data)


@settings(_SETTINGS, max_examples=100)
@given(data=st.data())
def test_mutated_gate_pair_file(tmp_path, capsys, data):
    _check_json("pairs", tmp_path, capsys, data)


@pytest.mark.parametrize("mutated", sorted(_CSV))
@settings(_SETTINGS, max_examples=100)
@given(row=st.integers(0, 3), field=st.integers(0, 7),
       op=st.sampled_from(("replace", "delete", "repeat", "shorten", "lengthen")),
       value=st.sampled_from(_CSV_VALUES))
def test_mutated_csv_file(tmp_path, capsys, mutated, row, field, op, value):
    argv = ["probabilities"]
    for name, text in _CSV.items():
        if name == mutated:
            text = _mutate_csv(text, row, field, op, value)
        (tmp_path / f"{name}.csv").write_text(text)
        argv += [f"--{name}-in", str(tmp_path / f"{name}.csv")]
    _check(capsys, argv, op in ("replace", "lengthen") and value == "nan")


@pytest.mark.parametrize("kind", sorted(_COMMANDS))
def test_unmutated_json_files_are_valid(tmp_path, kind):
    file = tmp_path / "input.json"
    file.write_text(json.dumps(_document(kind)))
    assert main([*_COMMANDS[kind], str(file)]) == 0


def test_unmutated_csv_files_are_valid(tmp_path, capsys):
    for name, text in _CSV.items():
        (tmp_path / f"{name}.csv").write_text(text)
    assert main(["probabilities", "--decomposition-in", str(tmp_path / "decomposition.csv"),
                 "--counts-in", str(tmp_path / "counts.csv")]) == 0
    assert capsys.readouterr().out == "estimate -2.812500000e-01\n"
