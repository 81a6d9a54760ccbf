import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nilbound.bounds as bounds
from conftest import conjugated_dense_representation
from nilbound.cli import build_parser, main
from nilbound.families import make_family, make_heisenberg
from nilbound.liealg import (
    algebra_from_json,
    algebra_from_matrix_basis,
    algebra_to_json,
    default_filtration,
    representation_to_json,
)


@pytest.fixture
def heis_files(tmp_path):
    alg, rep = make_heisenberg(1)
    alg_path = tmp_path / "heis.algebra.json"
    rep_path = tmp_path / "heis.representation.json"
    alg_path.write_text(json.dumps(algebra_to_json(alg)))
    rep_path.write_text(json.dumps(representation_to_json(rep)))
    return alg_path, rep_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFamily:
    def test_emits_round_trippable_files(self, tmp_path, capsys):
        code, out, _ = run(capsys, "family", "nap", "--a", "2", "--p", "2", "-o", str(tmp_path))
        assert code == 0
        info = json.loads(out)
        assert (info["dim"], info["dimV"]) == (12, 6)
        reparsed = algebra_from_json(json.loads((tmp_path / "n_2_2.algebra.json").read_text()))
        from nilbound.families import make_nap

        assert reparsed == make_nap(2, 2)[0]

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "family", "nabc", "--a", "1")
        assert code == 1
        assert "needs" in err

    def test_abelian_has_empty_brackets(self, tmp_path, capsys):
        code, _, _ = run(capsys, "family", "abelian", "--n", "4", "-o", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "abelian_4.algebra.json").read_text())
        assert data["brackets"] == []


class TestSolve:
    def test_heisenberg_dims(self, capsys):
        code, out, _ = run(capsys, "solve", "--p", "2", "--p0", "2", "--dims", "3,1")
        assert code == 0
        report = json.loads(out)
        assert report["r0_min"] == 3
        assert report["witness"] == [1, 1, 1]

    def test_9_4(self, capsys):
        code, out, _ = run(capsys, "solve", "--p", "2", "--p0", "2", "--dims", "9,4")
        assert json.loads(out)["r0_min"] == 6 and code == 0

    def test_malformed_dims(self, capsys):
        code, _, err = run(capsys, "solve", "--p", "2", "--p0", "2", "--dims", "3;1")
        assert code == 1
        assert "dims" in err

    def test_increasing_dims_rejected(self, capsys):
        code, _, _ = run(capsys, "solve", "--p", "2", "--p0", "2", "--dims", "1,3")
        assert code == 1

    @pytest.mark.parametrize("dims, entry", [("1_6,2", "1_6"), (" 16 , 2", " 16 "), ("\u0661\u0666,2", "\u0661\u0666"),
                                             ("a,2", "a"), ("16,,2", ""), ("16.0,2", "16.0")])
    def test_dims_entries_are_ascii_integers(self, capsys, dims, entry):
        # int() alone would read "1_6", " 16 " and Arabic-Indic digits as 16
        assert run(capsys, "solve", "--p", "2", "--p0", "2", "--dims", dims) == (
            1, "", f"error: malformed --dims: {entry!r} is not an integer\n")

    def test_signed_ascii_integers_are_read(self, capsys):
        code, out, _ = run(capsys, "solve", "--p", "+2", "--p0", "2", "--dims", "+16,2")
        assert code == 0 and json.loads(out)["dims"] == [16, 2]


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["solve", "--p", "1_0", "--p0", "2", "--dims", "3,1"], "1_0"),
        (["solve", "--p", "2", "--p0", " 2", "--dims", "3,1"], " 2"),
        (["solve", "--p", "\u0662", "--p0", "2", "--dims", "3,1"], "\u0662"),
        (["decompose", "rep.json", "--seed", "1_0"], "1_0"),
        (["family", "nap", "--a", "1", "--p", "2.0"], "2.0"),
        (["family", "heisenberg", "--m", "\uff11"], "\uff11"),
    ],
    ids=["underscore", "space", "arabic-indic", "seed", "float", "fullwidth"],
)
def test_option_integers_are_ascii(capsys, argv, bad):
    """A non-ASCII or non-plain integer option value is argparse's usage error, exit 2, as "--p x" is."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: nilbound ") and err.endswith(f": {bad!r} is not an integer\n")


# [x, y] = y: solvable, not nilpotent
SOLVABLE_ALGEBRA = {
    "name": "solvable",
    "dim": 2,
    "basis": ["x", "y"],
    "brackets": [{"i": 1, "j": 2, "terms": [[2, "1"]]}],
}


class TestBound:
    def test_heisenberg_file(self, heis_files, capsys):
        alg_path, _ = heis_files
        code, out, _ = run(capsys, "bound", str(alg_path))
        assert code == 0
        assert json.loads(out)["mu_nil_lower_bound"] == 3

    def test_non_nilpotent_rejected(self, tmp_path, capsys):
        path = tmp_path / "solvable.algebra.json"
        path.write_text(json.dumps(SOLVABLE_ALGEBRA))
        code, _, err = run(capsys, "bound", str(path))
        assert code == 1
        assert "not nilpotent" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "bound", "no/such/file.json")
        assert code == 1
        assert "cannot read" in err

    def test_deterministic_output(self, heis_files, capsys):
        alg_path, _ = heis_files
        _, out1, _ = run(capsys, "bound", str(alg_path))
        _, out2, _ = run(capsys, "bound", str(alg_path))
        assert out1 == out2

    def test_filtration_file_reports_every_central_term(self, tmp_path, capsys):
        # the report takes every central term as p0, so a "p0" key changes nothing
        alg, _ = make_family("nap", a=1, p=3)
        alg_path = tmp_path / "nap13.algebra.json"
        alg_path.write_text(json.dumps(algebra_to_json(alg)))
        code, expected, _ = run(capsys, "bound", str(alg_path))
        assert code == 0
        chain = [[list(row) for row in sub.rows] for sub in default_filtration(alg).chain]
        for doc in ({"chain": chain}, {"chain": chain, "p0": 2}, {"chain": chain, "p0": 7}, chain):
            path = tmp_path / "filtration.json"
            path.write_text(json.dumps(doc))
            assert run(capsys, "bound", str(alg_path), "--filtration", str(path)) == (0, expected, "")


HEIS_ALGEBRA = {"name": "h", "dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [[3, "1"]]}]}
HEIS_REPRESENTATION = representation_to_json(make_heisenberg(1)[1])
# the same matrices with each entry 1 written as a JSON true
HEIS_MATRICES_WITH_TRUE = [[[True if x == "1" else x for x in row] for row in m] for m in HEIS_REPRESENTATION["matrices"]]
# x -> E_12 / 2, y -> E_23, z -> E_13 / 2 is a representation, with two entries written as decimals
HEIS_MATRICES_WITH_DECIMALS = [
    [["0", "0.5", "0"], ["0", "0", "0"], ["0", "0", "0"]],
    [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]],
    [["0", "0", "0.5"], ["0", "0", "0"], ["0", "0", "0"]],
]


def assert_one_error_line(code, out, err):
    assert code == 1
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, data",
    [
        ("bound", {"name": "h", "brackets": HEIS_ALGEBRA["brackets"]}),
        ("bound", [HEIS_ALGEBRA]),
        ("bound", {**HEIS_ALGEBRA, "brackets": [{"i": 1, "j": 2, "terms": [[3, "1/0"]]}]}),
        ("bound", {**HEIS_ALGEBRA, "brackets": [{"i": 1, "j": 4, "terms": [[3, "1"]]}]}),
        ("decompose", HEIS_ALGEBRA),
        ("bound", {"dim": 0}),
        ("analyze", {"dim": -2}),
        ("decompose", {"algebra": {"dim": 0}, "dimV": 1, "matrices": []}),
        ("analyze", {**HEIS_ALGEBRA, "dim": 3.9}),
        ("analyze", {**HEIS_ALGEBRA, "brackets": [{"i": 1.7, "j": 2, "terms": [[3, "1"]]}]}),
        ("analyze", {**HEIS_ALGEBRA, "brackets": [{"i": 1, "j": 2, "terms": [[3.2, "1"]]}]}),
        ("analyze", {"dim": True}),
        ("bound", {**HEIS_ALGEBRA, "dim": 1e400}),
        ("analyze", {**HEIS_ALGEBRA, "dim": 1e400}),
        ("decompose", {**HEIS_REPRESENTATION, "algebra": {**HEIS_ALGEBRA, "dim": 1e400}}),
        ("decompose", {**HEIS_REPRESENTATION, "dimV": 3.5}),
        ("decompose", {**HEIS_REPRESENTATION, "dimV": 1e400}),
        ("analyze", {**HEIS_ALGEBRA, "basis": ["x", "y"]}),
        ("analyze", {**HEIS_ALGEBRA, "brackets": HEIS_ALGEBRA["brackets"] * 2}),
        ("analyze", {**HEIS_ALGEBRA, "brackets": [{"i": 1, "j": 2, "terms": [[3, "1"], [3, "1"]]}]}),
        ("analyze", {**HEIS_ALGEBRA, "brackets": [{"i": 1, "j": 2, "terms": [[3, True]]}]}),
        ("decompose", {**HEIS_REPRESENTATION, "matrices": HEIS_MATRICES_WITH_TRUE}),
        ("analyze", {**HEIS_ALGEBRA, "brackets": [{"i": 1, "j": 2, "terms": [[3, "1"], [99, "0"]]}]}),
        ("analyze", {**HEIS_ALGEBRA, "brackets": [{"i": 1, "j": 2, "terms": [[3, "1"], [3, "0"]]}]}),
        ("analyze", {**HEIS_ALGEBRA, "brackets": [{"i": 1, "j": 2, "terms": [[3, "1e3"]]}]}),
        ("decompose", {**HEIS_REPRESENTATION, "matrices": HEIS_MATRICES_WITH_DECIMALS}),
    ],
    ids=[
        "missing-dim",
        "top-level-list",
        "zero-denominator",
        "index-out-of-range",
        "algebra-to-decompose",
        "dim-0",
        "negative-dim",
        "dim-0-representation",
        "float-dim",
        "float-index",
        "float-term-index",
        "bool-dim",
        "huge-dim-bound",
        "huge-dim-analyze",
        "huge-dim-decompose",
        "float-dimV",
        "huge-dimV",
        "basis-shorter-than-dim",
        "bracket-pair-twice",
        "term-target-twice",
        "bool-coefficient",
        "bool-matrix-entry",
        "zero-term-target-out-of-range",
        "zero-term-target-twice",
        "exponent-coefficient",
        "decimal-matrix-entry",
    ],
)
def test_malformed_input_file_is_one_error_line(tmp_path, capsys, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert_one_error_line(*run(capsys, command, str(path)))


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"i": 1, "j": 4, "terms": [[3, "1"]]}, "bracket (1, 4) is out of range 1..3 or not i < j"),
        ({"i": 1, "j": 2, "terms": [[3, "1"], [3, "1"]]}, "bracket (1, 2) names one target index twice"),
        ({"i": 1, "j": 2, "terms": [[3, "1"], [99, "0"]]}, "bracket (1, 2) names target index 99, out of range 1..3"),
    ],
    ids=["index-out-of-range", "term-target-twice", "zero-term-target-out-of-range"],
)
def test_loader_messages_use_the_file_numbering(tmp_path, capsys, entry, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**HEIS_ALGEBRA, "brackets": [entry]}))
    code, _, err = run(capsys, "analyze", str(path))
    assert (code, err) == (1, f"error: malformed algebra file {path}: {message}\n")


HEIS_MATRIX_2X2 = [["0", "1"], ["0", "0"]]


@pytest.mark.parametrize(
    "matrices, message",
    [
        ([[["0", "1", "0"], ["0", "0"], ["0", "0", "0"]]] + HEIS_REPRESENTATION["matrices"][1:], "ragged rows"),
        ([HEIS_MATRIX_2X2] + HEIS_REPRESENTATION["matrices"][1:], "representation matrix is not dimV x dimV"),
        (
            [HEIS_MATRIX_2X2, [["0", "0", "0"], ["0", "0", "x"], ["0", "0", "0"]]] + HEIS_REPRESENTATION["matrices"][2:],
            "'x' is not an integer or a \"num/den\" string",
        ),
        ("abc", "matrices must be a list, not str"),
    ],
    ids=["ragged-row", "wrong-shape", "bad-entry-after-wrong-shape", "matrices-as-a-string"],
)
def test_representation_loader_messages(tmp_path, capsys, matrices, message):
    # every entry is read before any shape is checked, so a bad entry wins over an earlier wrong shape
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**HEIS_REPRESENTATION, "matrices": matrices}))
    code, _, err = run(capsys, "decompose", str(path))
    assert (code, err) == (1, f"error: malformed representation file {path}: {message}\n")


NABC_121 = algebra_to_json(make_family("nabc", a=1, b=2, c=1)[0])
HEIS_ROWS = HEIS_REPRESENTATION["matrices"]


@pytest.mark.parametrize(
    "command, data, message",
    [
        # nabc(1,2,1) has mu = 4; read as abelian, these two gave a "lower bound" of 5 with exit 0
        ("bound", {**NABC_121, "brackets": ""}, "brackets must be a list, not str"),
        (
            "bound",
            {**NABC_121, "brackets": [{**e, "terms": {}} for e in NABC_121["brackets"]]},
            "terms must be a list, not dict",
        ),
        (
            "analyze",
            {**HEIS_ALGEBRA, "brackets": [[1, 2, [[3, "1"]]]]},
            "a bracket entry must be a JSON object, not list",
        ),
        (
            "analyze",
            {**HEIS_ALGEBRA, "brackets": [{"i": 1, "j": 2, "terms": ["31"]}]},
            "a term must be a list, not str",
        ),
        ("analyze", {**HEIS_ALGEBRA, "basis": "xyz"}, "basis must be a list, not str"),
        (
            "decompose",
            {**HEIS_REPRESENTATION, "algebra": {**HEIS_ALGEBRA, "brackets": {}}},
            "brackets must be a list, not dict",
        ),
        ("decompose", {**HEIS_REPRESENTATION, "matrices": {"x": HEIS_ROWS[0]}}, "matrices must be a list, not dict"),
        ("decompose", {**HEIS_REPRESENTATION, "matrices": ["000"] * 3}, "a matrix must be a list, not str"),
        (
            "decompose",
            {**HEIS_REPRESENTATION, "matrices": [["".join(row) for row in m] for m in HEIS_ROWS]},
            "a row of a matrix must be a list, not str",
        ),
        (
            "decompose",
            {**HEIS_REPRESENTATION, "matrices": [[dict(enumerate(row)) for row in m] for m in HEIS_ROWS]},
            "a row of a matrix must be a list, not dict",
        ),
        ("bound --filtration", {"chain": "abc"}, "chain must be a list, not str"),
        (
            "bound --filtration",
            {"chain": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], {"0": [0, 0, 1]}]},
            "a subspace must be a list, not dict",
        ),
        (
            "bound --filtration",
            {"chain": [["100", "010", "001"], ["001"]]},
            "a row of a subspace must be a list, not str",
        ),
    ],
    ids=[
        "brackets-as-a-string",
        "terms-as-objects",
        "bracket-entry-as-a-list",
        "term-as-a-string",
        "basis-as-a-string",
        "representation-brackets-as-an-object",
        "matrices-as-an-object",
        "matrix-as-a-string",
        "matrix-rows-as-digit-strings",
        "matrix-rows-as-objects",
        "chain-as-a-string",
        "subspace-as-an-object",
        "subspace-rows-as-digit-strings",
    ],
)
def test_a_list_field_of_another_type_is_named(tmp_path, capsys, heis_files, command, data, message):
    # a string or an object where a list belongs was iterated: by its characters or by its keys
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    if " " in command:
        argv, what = ["bound", str(heis_files[0]), "--filtration", str(path)], "filtration"
    else:
        argv, what = [command, str(path)], "representation" if command == "decompose" else "algebra"
    assert run(capsys, *argv) == (1, "", f"error: malformed {what} file {path}: {message}\n")


@pytest.mark.parametrize(
    "command, data, message",
    [
        ("analyze", {**HEIS_ALGEBRA, "name": ["h"]}, "name must be a string, not list"),
        ("analyze", {**HEIS_ALGEBRA, "basis": [1, None, {"a": 2}]}, "a basis entry must be a string, not int"),
        ("bound", {**HEIS_ALGEBRA, "name": 7}, "name must be a string, not int"),
        ("bound", {**HEIS_ALGEBRA, "basis": ["x", None, "z"]}, "a basis entry must be a string, not NoneType"),
        (
            "decompose",
            {**HEIS_REPRESENTATION, "algebra": {**HEIS_ALGEBRA, "name": {"a": 2}}},
            "name must be a string, not dict",
        ),
        (
            "decompose",
            {**HEIS_REPRESENTATION, "algebra": {**HEIS_ALGEBRA, "basis": ["x", "y", ["z"]]}},
            "a basis entry must be a string, not list",
        ),
    ],
    ids=[
        "analyze-name-as-a-list",
        "analyze-basis-entries-of-other-types",
        "bound-name-as-a-number",
        "bound-basis-entry-null",
        "decompose-name-as-an-object",
        "decompose-basis-entry-as-a-list",
    ],
)
def test_a_name_of_another_type_is_named(tmp_path, capsys, command, data, message):
    # a name or basis entry that was not a string was echoed into the report
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    what = "representation" if command == "decompose" else "algebra"
    assert run(capsys, command, str(path)) == (1, "", f"error: malformed {what} file {path}: {message}\n")


def run_with_closed_stdout(argv, unbuffered):
    """(exit code, stderr) of a fresh process whose stdout is a pipe with no reader."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nilbound.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_without_a_traceback(heis_files, unbuffered):
    # unbuffered, the print itself fails; buffered, the data waits for a flush
    assert run_with_closed_stdout(["decompose", str(heis_files[1])], unbuffered) == (1, b"")


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]], ids=["help", "command-help"])
def test_help_with_closed_stdout_exits_1_without_a_traceback(argv):
    # buffered, argparse exits with the help text still waiting for a flush
    assert run_with_closed_stdout(argv, unbuffered=False) == (1, b"")
    # unbuffered, argparse swallows the failed write itself and exits 0
    assert run_with_closed_stdout(argv, unbuffered=True) == (0, b"")


@pytest.mark.parametrize(
    "raw",
    [b"\xff\xfe{}", b'{"dim": ' + b"1" * 4301 + b"}", b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf-8", "integer-past-the-digit-limit", "nesting-past-the-recursion-limit"],
)
@pytest.mark.parametrize("command", ["bound", "analyze", "decompose", "bound --filtration"])
def test_undecodable_input_file_is_one_error_line(tmp_path, capsys, heis_files, command, raw):
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    argv = ["bound", str(heis_files[0]), "--filtration", str(path)] if " " in command else [command, str(path)]
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize(
    "argv, data",
    [
        (["family", "nap", "--a", "0", "--p", "2", "-o", "{tmp}"], None),
        (["bound", "{algebra}", "--filtration", "{input}"], {"chain": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]] * 2}),
        (["family", "nap", "--a", "1", "--p", "2", "-o", "{input}"], None),
        (["bound", "{algebra}", "--filtration", "{input}"], {"chain": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, True]]]}),
        (["bound", "{algebra}", "--filtration", "{input}"], {"chain": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, "1_0"]]]}),
    ],
    ids=[
        "family-parameter-below-1",
        "filtration-not-multiplicative",
        "family-output-is-a-file",
        "filtration-bool-entry",
        "underscore-filtration-entry",
    ],
)
def test_malformed_argument_is_one_error_line(tmp_path, capsys, heis_files, argv, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    fields = {"tmp": tmp_path, "algebra": heis_files[0], "input": path}
    assert_one_error_line(*run(capsys, *(arg.format(**fields) for arg in argv)))


FUZZ_BASES = [
    representation_to_json(make_family(tag, **params)[1])
    for tag, params in (("heisenberg", {"m": 1}), ("nap", {"a": 1, "p": 2}), ("nabc", {"a": 1, "b": 1, "c": 1}))
]
OTHER_TYPES = [None, "x", 1.5, True, 7, "2/3", [], [[1]], {}, {"i": 1}]


def _paths(doc, prefix=()):
    """Every key/index path below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def malformed_representations(draw):
    """A family representation document with one or two malformations."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        kind = draw(st.sampled_from(["drop", "retype", "index", "div0", "ragged", "count"]))
        if kind == "drop":
            keyed = [p for p in paths if isinstance(_get(doc, p[:-1]), dict)]
            path = draw(st.sampled_from(keyed))
            del _get(doc, path[:-1])[path[-1]]
            continue
        if kind == "retype":
            path, value = draw(st.sampled_from(paths)), draw(st.sampled_from(OTHER_TYPES))
        elif kind == "index":
            # bracket indices i, j and the target index k of each term
            spots = [p for p in paths if p[-1] in ("i", "j") or (len(p) > 2 and p[-3] == "terms" and p[-1] == 0)]
            if not spots:
                continue
            path, value = draw(st.sampled_from(spots)), draw(st.sampled_from([0, -1, 4, 10, 1000]))
        elif kind == "div0":
            strings = [p for p in paths if isinstance(_get(doc, p), str)]
            if not strings:
                continue
            path, value = draw(st.sampled_from(strings)), "1/0"
        elif kind == "ragged":
            rows = [p for p in paths if len(p) == 3 and p[0] == "matrices" and isinstance(_get(doc, p), list)]
            if not rows:
                continue
            path = draw(st.sampled_from(rows))
            row = _get(doc, path)
            value = row[:-1] if draw(st.booleans()) else row + ["0"]
        else:
            mats = doc.get("matrices")
            if not isinstance(mats, list) or not mats:
                continue
            path = ("matrices",)
            value = mats[:-1] if draw(st.booleans()) else mats + [mats[-1]]
        # a copy, so no malformation can reach the shared OTHER_TYPES values or make the document contain itself
        _get(doc, path[:-1])[path[-1]] = copy.deepcopy(value)
    return doc


@given(malformed_representations())
@settings(max_examples=150, deadline=None)
def test_fuzzed_input_files_never_crash(tmp_path_factory, doc):
    tmp = tmp_path_factory.mktemp("fuzz")
    rep_path, alg_path = tmp / "rep.json", tmp / "alg.json"
    rep_path.write_text(json.dumps(doc))
    alg_path.write_text(json.dumps(doc.get("algebra", doc)))
    # main runs in-process, so an exception escaping it fails the test by itself
    for argv in (["bound", str(alg_path)], ["analyze", str(alg_path)], ["decompose", str(rep_path)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1), (argv[0], err.getvalue())
        assert "Traceback" not in err.getvalue()


class TestAnalyze:
    def test_heisenberg_summary(self, heis_files, capsys):
        alg_path, _ = heis_files
        code, out, _ = run(capsys, "analyze", str(alg_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["nilpotent"] is True
        assert summary["series_dims"] == [3, 1]
        assert summary["center_dim"] == 1
        assert summary["admissible_p0"] == [2]

    def test_bracket_free_algebra_is_fast(self, tmp_path, capsys):
        # every basis element is central, so no bracket or Jacobi triple needs work
        path = tmp_path / "free.algebra.json"
        path.write_text(json.dumps({"name": "free", "dim": 300}))
        start = time.perf_counter()
        code, out, _ = run(capsys, "analyze", str(path))
        assert time.perf_counter() - start < 5
        assert code == 0
        assert json.loads(out) == {
            "algebra": "free",
            "dim": 300,
            "nilpotent": True,
            "series_dims": [300],
            "center_dim": 300,
            "default_filtration_dims": [300],
            "admissible_p0": [1],
        }


# Representations with the first 16 hex digits of the sha256 of their
# `decompose --seed 0..3` stdout, recorded when subspaces still stored Fraction
# rows; the integer rows must reproduce them.
PINNED_DECOMPOSITIONS = {
    "nap(2,2)": (
        lambda: make_family("nap", a=2, p=2)[1],
        ["fe6d1db7d451189b", "8060bf535b50b8aa", "ac637c610720d055", "d64afa8682ccc264"],
    ),
    "nabc(1,2,2)": (
        lambda: make_family("nabc", a=1, b=2, c=2)[1],
        ["2e0d31f283f0d9a2", "f24c75d3b6166e33", "37160f1b2b1d25e9", "e8c1b8cd675790a4"],
    ),
    "heisenberg(2)": (
        lambda: make_family("heisenberg", m=2)[1],
        ["18da2ad0c6fac937", "3735bc613b8d2a66", "07490bb6353fc4bf", "a4eef3305b32c468"],
    ),
    "conjugated-dense(0)": (
        lambda: conjugated_dense_representation(0),
        ["43dc31cccf7e093f", "49f03f2716071d38", "5a575f673027ddfb", "91ea2c706a3c62e9"],
    ),
}


class TestDecompose:
    @pytest.mark.parametrize("label", list(PINNED_DECOMPOSITIONS))
    def test_pinned_stdout(self, tmp_path, capsys, label):
        build, expected = PINNED_DECOMPOSITIONS[label]
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(representation_to_json(build())))
        digests = []
        for seed in range(4):
            code, out, _ = run(capsys, "decompose", str(path), "--seed", str(seed))
            assert code == 0
            digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
        assert digests == expected

    def test_heisenberg_seed_42(self, heis_files, capsys):
        _, rep_path = heis_files
        code, out, _ = run(capsys, "decompose", str(rep_path), "--seed", "42")
        assert code == 0
        report = json.loads(out)
        assert report["partition"] == [2, 1]
        assert report["profile"] == [1, 1, 1]
        assert report["verified"] is True

    def test_seed_determinism(self, heis_files, capsys):
        _, rep_path = heis_files
        _, out1, _ = run(capsys, "decompose", str(rep_path), "--seed", "7")
        _, out2, _ = run(capsys, "decompose", str(rep_path), "--seed", "7")
        assert out1 == out2

    def test_non_nilpotent_matrix_rejected(self, tmp_path, capsys):
        alg, rep = make_heisenberg(1)
        data = representation_to_json(rep)
        data["matrices"][0] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        path = tmp_path / "bad.representation.json"
        path.write_text(json.dumps(data))
        code, _, _ = run(capsys, "decompose", str(path))
        assert code == 1

    def test_non_nilpotent_algebra_rejected(self, tmp_path, capsys):
        # x -> E_11, y -> E_12 is a representation of [x, y] = y
        data = {
            "algebra": SOLVABLE_ALGEBRA,
            "dimV": 2,
            "matrices": [[["1", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]]],
        }
        path = tmp_path / "solvable.representation.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "decompose", str(path))
        assert code == 1
        assert "is not nilpotent" in err

    @pytest.mark.parametrize(
        "matrices, message",
        [
            ([[["0", "0"], ["0", "0"]]] * 3, "representation is not faithful"),
            ([[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]], [["1", "1"], ["-1", "-1"]]], "homomorphism fails"),
        ],
        ids=["unfaithful", "not-a-homomorphism"],
    )
    def test_jacobi_failing_algebra_is_one_error_line(self, tmp_path, capsys, matrices, message):
        # [x1, x2] = x1, [x2, x3] = x1, [x1, x3] = x2 fails Jacobi on (1, 2, 3); no faithful
        # homomorphism exists, so the representation check is the one that reports it
        brackets = [{"i": 1, "j": 2, "terms": [[1, "1"]]}, {"i": 2, "j": 3, "terms": [[1, "1"]]},
                    {"i": 1, "j": 3, "terms": [[2, "1"]]}]
        data = {"algebra": {"name": "bad", "dim": 3, "brackets": brackets}, "dimV": 2, "matrices": matrices}
        path = tmp_path / "bad.representation.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "decompose", str(path))
        assert_one_error_line(code, out, err)
        assert message in err

    def test_sl2_in_a_nilpotent_basis_rejected(self, tmp_path, capsys):
        # a faithful representation whose generators are all nilpotent, of a non-nilpotent algebra
        _, rep = algebra_from_matrix_basis("sl2", [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [-1, -1]]])
        path = tmp_path / "sl2.representation.json"
        path.write_text(json.dumps(representation_to_json(rep)))
        assert run(capsys, "decompose", str(path)) == (1, "", "error: algebra 'sl2' is not nilpotent\n")


real_is_feasible = bounds.is_feasible


def is_feasible_off_by_one(prob, a):
    """is_feasible with the right-hand side of constraint (b) raised to n_k + 1."""
    if not real_is_feasible(prob, a):
        return False
    a = tuple(int(x) for x in a)
    r = [sum(a[k:]) for k in range(len(a) + 1)]
    return all(
        sum(a[i] * r[k + i] for i in range(prob.p0 - k + 1)) >= prob.n[k - 1] + 1
        for k in range(1, prob.p0 + 1)
    )


class TestVerifyPaper:
    def test_grid_passes(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 11

    def test_injected_fault_detected(self, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "is_feasible", is_feasible_off_by_one)
        code, out, _ = run(capsys, "verify-paper")
        assert code == 2
        assert "FAIL" in out

    def test_fault_run_leaves_later_commands_exact(self, capsys, monkeypatch):
        def solve_heisenberg():
            code, out, _ = run(capsys, "solve", "--p", "2", "--p0", "2", "--dims", "3,1")
            report = json.loads(out)
            return code, report["r0_min"], report["witness"]

        assert solve_heisenberg() == (0, 3, [1, 1, 1])
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "is_feasible", is_feasible_off_by_one)
            assert run(capsys, "verify-paper")[0] == 2
        assert solve_heisenberg() == (0, 3, [1, 1, 1])
        assert run(capsys, "verify-paper")[0] == 0


def test_a_reused_parser_leaks_nothing_between_calls(tmp_path, capsys, monkeypatch, heis_files):
    algebra, representation = map(str, heis_files)
    valid = [
        ["solve", "--p", "2", "--p0", "2", "--dims", "3,1"],
        ["bound", algebra],
        ["analyze", algebra],
        ["decompose", representation, "--seed", "0"],
        ["family", "nap", "--a", "1", "--p", "2", "-o", str(tmp_path / "family")],
    ]
    exits = [(["solve"], 2), (["--help"], 0), (["solve", "--p", "x"], 2)]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    got = {}
    for i, argv in enumerate(valid + valid[::-1]):
        got.setdefault(tuple(argv), []).append(run(capsys, *argv))
        if i == 0:
            built.clear()  # the first call may build the parser; no later call builds one
        exit_argv, exit_code = exits[i % len(exits)]
        with pytest.raises(SystemExit) as exc:
            main(exit_argv)
        capsys.readouterr()
        assert exc.value.code == exit_code
    assert built == []
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for argv in valid:
        fresh = subprocess.run(
            [sys.executable, "-m", "nilbound.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert got[tuple(argv)] == [(fresh.returncode, fresh.stdout, fresh.stderr)] * 2


# Every settable value of the command line: positionals by name, options by
# their option strings. A new option is a deliberate edit of this table.
CLI_SURFACE = {
    "family": ["tag", "--a", "--b", "--c", "--p", "--m", "--n", "-o/--output"],
    "solve": ["--p", "--p0", "--dims"],
    "bound": ["algebra", "--filtration"],
    "analyze": ["algebra"],
    "decompose": ["representation", "--seed"],
    "verify-paper": [],
}


def test_cli_option_surface_is_pinned():
    (subparsers,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    surface = {
        name: ["/".join(a.option_strings) or a.dest for a in sub._actions if a.dest != "help"]
        for name, sub in subparsers.choices.items()
    }
    assert surface == CLI_SURFACE
    assert sum(map(len, surface.values())) == 16
