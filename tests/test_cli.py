from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import infatom as ia
from infatom.cli import _decomposition_text, main

XOR_CSV = "p,O1,O2,O3\n0.25,0,0,0\n0.25,0,1,1\n0.25,1,0,1\n0.25,1,1,0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------


def test_gate_xor_golden_csv(capsys):
    code, out, err = run(capsys, "gate", "xor")
    assert code == 0 and err == ""
    assert out == XOR_CSV


def test_gate_emit_json_roundtrip(tmp_path, capsys):
    path = tmp_path / "parity.json"
    code, _, _ = run(capsys, "gate", "parity(3)", "--emit", "json", "-o", str(path))
    assert code == 0
    assert ia.load_table(path.read_text()) == ia.parity_gate(3)


def test_gate_rejects_unknown_spec(capsys):
    code, _, err = run(capsys, "gate", "nand")
    assert code == 2
    assert "nand" in err


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_xor_shows_synergy_and_ghost(tmp_path, capsys):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 0
    assert "Pi_s = 1.000000000" in out
    assert "Pi_g = 1.000000000" in out
    assert "feasible_interval = [0.000000000, 0.000000000]" in out


def test_decompose_roundtrip_matches_in_process(tmp_path, capsys):
    # Emitting a gate and decomposing the file must reproduce, byte for
    # byte, the in-process solve of the same generator.
    for spec in ("xor", "two-coins-copy", "random(7,[2,2,2])"):
        path = tmp_path / "gate.csv"
        code, out, _ = run(capsys, "gate", spec, "-o", str(path))
        assert code == 0
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 0
        table = ia.gen_gate(spec)
        expected = _decomposition_text(
            ia.solve_trivariate(table), ia.feasible_interval(table)
        )
        assert out == expected


def test_decompose_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(XOR_CSV))
    code, out, _ = run(capsys, "decompose", "-")
    assert code == 0
    assert "Pi_s = 1.000000000" in out


def test_decompose_set_theoretic_failure_exits_1(tmp_path, capsys):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    code, _, err = run(capsys, "decompose", str(path), "--set-theoretic")
    assert code == 1
    assert "{1}{2}{3}" in err


def test_decompose_infeasible_redundancy_exits_1(tmp_path, capsys):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    code, _, err = run(capsys, "decompose", str(path), "--redundancy", "0.5")
    assert code == 1
    assert "feasible" in err


def test_decompose_redundancy_just_past_the_interval_exits_0(tmp_path, capsys):
    # The copy gate's interval is [1, 1], and 1 + eps is read as 1.
    path = tmp_path / "copy.csv"
    run(capsys, "gate", "copy", "-o", str(path))
    code, out, err = run(capsys, "decompose", str(path), "--redundancy", "1.000000001")
    assert (code, err) == (0, "")
    assert "redundancy_param = 1.000000000" in out


def test_decompose_parity(capsys):
    code, out, _ = run(capsys, "decompose", "--parity", "5")
    assert code == 0
    assert "Pi_s = 1.000000000" in out
    assert "Pi_g_3 = 1.000000000" in out


def test_decompose_parity_conflicts_exit_2(tmp_path, capsys):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    code, _, _ = run(capsys, "decompose", str(path), "--parity", "3")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["info", "XOR", "--mi", "1;2;3"], "--mi expects 'A;B', got '1;2;3'"),
    (["info", "XOR", "--cmi", "1;2"], "--cmi expects 'A;B;C', got '1;2'"),
    (["decompose", "XOR", "--set-theoretic", "--redundancy", "0"],
     "--redundancy applies to the trivariate solver only"),
    (["decompose"], "decompose needs a distribution or --parity N"),
    (["info", "XOR", "--entropy", ""], "empty variable selection"),
    (["info", "XOR", "--entropy", ","], "empty variable selection"),
], ids=["mi-groups", "cmi-parts", "set-theoretic-redundancy", "no-input", "entropy-empty",
        "entropy-comma"])
def test_misused_flags_exit_2_with_one_line(tmp_path, capsys, argv, message):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    code, out, err = run(capsys, *[str(path) if arg == "XOR" else arg for arg in argv])
    assert (code, out, err) == (2, "", f"infatom: {message}\n")


# ---------------------------------------------------------------------------
# info / interval
# ---------------------------------------------------------------------------


def test_info_entropy_flag(tmp_path, capsys):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    code, out, _ = run(capsys, "info", str(path), "--entropy", "1,2,3")
    assert code == 0
    assert out == "2.000000000\n"


def test_info_multiple_quantities(tmp_path, capsys):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    code, out, _ = run(
        capsys,
        "info",
        str(path),
        "--mi",
        "1,2;3",
        "--cmi",
        "1;2;3",
        "--interaction",
        "1;2;3",
    )
    assert code == 0
    assert out.splitlines() == ["1.000000000", "1.000000000", "-1.000000000"]


def test_info_summary_without_flags(tmp_path, capsys):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0
    assert "variables: O1,O2,O3" in out
    assert "H(all) = 2.000000000" in out


def test_info_deterministic_variable_prints_unsigned_zero(tmp_path, capsys):
    path = tmp_path / "det.csv"
    path.write_text("p,a,b\n0.5,0,0\n0.5,0,1\n")
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0
    assert out.splitlines() == [
        "variables: a,b",
        "H(a) = 0.000000000",
        "H(b) = 1.000000000",
        "H(all) = 1.000000000",
    ]
    assert run(capsys, "info", str(path), "--entropy", "1")[1] == "0.000000000\n"


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--entropy", "1,4", "(1, 4)"),
        ("--mi", "0;2", "(0,)"),
        ("--cmi", "1;2;5", "(5,)"),
        ("--interaction", "1;2;7", "(7,)"),
    ],
)
def test_info_out_of_range_selection_names_one_based_indices(tmp_path, capsys, flag, value, named):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    code, out, err = run(capsys, "info", str(path), flag, value)
    assert code == 2 and out == ""
    assert err == f"infatom: selection {named} out of range 1..3\n"


def test_interval_output(tmp_path, capsys):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    code, out, _ = run(capsys, "interval", str(path))
    assert code == 0
    assert out == "0.000000000 0.000000000\n"


# ---------------------------------------------------------------------------
# validate / lift
# ---------------------------------------------------------------------------


def _decomp_json(tmp_path, capsys):
    dist = tmp_path / "xor.csv"
    dist.write_text(XOR_CSV)
    decomp = tmp_path / "xor.json"
    code, out, _ = run(capsys, "decompose", str(dist), "--json", "-o", str(decomp))
    assert code == 0
    return decomp, dist


def test_validate_passes_on_solver_output(tmp_path, capsys):
    decomp, dist = _decomp_json(tmp_path, capsys)
    code, out, _ = run(capsys, "validate", str(decomp), str(dist))
    assert code == 0
    report = json.loads(out)
    assert all(c["pass"] for c in report["checks"])


def test_validate_tampered_size_exits_1_and_names_check(tmp_path, capsys):
    decomp, dist = _decomp_json(tmp_path, capsys)
    obj = json.loads(decomp.read_text())
    for atom in obj["atoms"]:
        if atom["label"] == "Pi_g":
            atom["size"] = 0.5
    decomp.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "validate", str(decomp), str(dist))
    assert code == 1
    failed = {c["name"] for c in json.loads(out)["checks"] if not c["pass"]}
    assert "conservation_law" in failed


def test_lift_then_validate_against_extended_distribution(tmp_path, capsys):
    decomp, dist = _decomp_json(tmp_path, capsys)
    lifted = tmp_path / "lifted.json"
    code, _, _ = run(capsys, "lift", str(decomp), str(dist), "-o", str(lifted))
    assert code == 0
    extended = tmp_path / "extended.csv"
    extended.write_text(ia.dump_csv(ia.extend_with_joint(ia.xor_gate())))
    code, out, _ = run(capsys, "validate", str(lifted), str(extended))
    assert code == 0
    obj = json.loads(lifted.read_text())
    sizes = {a["label"]: (a["size"], a["covering"]) for a in obj["atoms"]}
    assert sizes["Pi_s"] == (1.0, 3)
    assert sizes["Pi_g"] == (1.0, 2)


def test_lift_rejects_nonvalidating_input(tmp_path, capsys):
    decomp, dist = _decomp_json(tmp_path, capsys)
    obj = json.loads(decomp.read_text())
    obj["atoms"][1]["size"] = 0.25  # Pi_s
    decomp.write_text(json.dumps(obj))
    code, _, err = run(capsys, "lift", str(decomp), str(dist))
    assert code == 1
    assert "failed checks" in err


@pytest.mark.parametrize("label", ["{4}", "{1000000000}"])
@pytest.mark.parametrize("command", ["validate", "lift"])
def test_set_atom_outside_the_variables_exits_2(tmp_path, capsys, command, label):
    decomp, dist = _decomp_json(tmp_path, capsys)
    obj = json.loads(decomp.read_text())
    for atom in obj["atoms"]:
        if atom["label"] == "{1}":
            atom["label"] = label
    obj["table"]["cols"] = [label if c == "{1}" else c for c in obj["table"]["cols"]]
    decomp.write_text(json.dumps(obj))
    code, out, err = run(capsys, command, str(decomp), str(dist))
    assert code == 2 and out == ""
    assert err == f"infatom: set atom {label} names a variable outside 1..3\n"


def test_set_atom_outside_the_variables_builds_no_mask(tmp_path, capsys):
    # A mask has a bit per index up to the largest, so a label such as
    # {40000000000} must be refused before its mask is built.
    label = ia.parse_label("{9}")
    assert "masks" not in vars(label.antichain)
    decomp, dist = _decomp_json(tmp_path, capsys)
    obj = json.loads(decomp.read_text())
    for atom in obj["atoms"]:
        if atom["label"] == "{1}":
            atom["label"] = "{9}"
    obj["table"]["cols"] = ["{9}" if c == "{1}" else c for c in obj["table"]["cols"]]
    decomp.write_text(json.dumps(obj))
    code, out, err = run(capsys, "validate", str(decomp), str(dist))
    assert (code, out, err) == (2, "", "infatom: set atom {9} names a variable outside 1..3\n")
    assert "masks" not in vars(label.antichain)


def test_lift_of_eight_variables_exits_2_before_validating(tmp_path, capsys):
    decomp, dist = tmp_path / "parity8.json", tmp_path / "parity8.csv"
    assert run(capsys, "decompose", "--parity", "8", "--json", "-o", str(decomp))[0] == 0
    assert run(capsys, "gate", "parity(8)", "-o", str(dist))[0] == 0
    code, out, err = run(capsys, "lift", str(decomp), str(dist))
    assert code == 2 and out == ""
    assert err == (
        "infatom: cannot lift a decomposition over 8 variables: lattices stop at 8 variables\n"
    )


def _relabel(decomp, renames: dict[str, str]) -> None:
    """Rename atoms the same way in ``atoms`` and ``table.cols``."""
    obj = json.loads(decomp.read_text())
    for atom in obj["atoms"]:
        atom["label"] = renames.get(atom["label"], atom["label"])
    obj["table"]["cols"] = [renames.get(c, c) for c in obj["table"]["cols"]]
    decomp.write_text(json.dumps(obj))


@pytest.mark.parametrize("command", ["validate", "lift"])
def test_atom_labels_without_a_parthood_rule_exit_2(tmp_path, capsys, command):
    decomp, dist = _decomp_json(tmp_path, capsys)
    _relabel(decomp, {"Pi_s": "synergy", "Pi_g": "ghost"})
    code, out, err = run(capsys, command, str(decomp), str(dist))
    assert code == 2 and out == ""
    assert "JSON" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["validate", "lift"])
def test_ghost_index_beyond_the_variables_exits_2(tmp_path, capsys, command):
    decomp, dist = _decomp_json(tmp_path, capsys)
    _relabel(decomp, {"Pi_g": "Pi_g_2"})
    code, out, err = run(capsys, command, str(decomp), str(dist))
    assert code == 2 and out == ""
    assert "Pi_g_2" in err
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


def test_lattice_listing(capsys):
    code, out, _ = run(capsys, "lattice", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 14
    assert lines[0].startswith("{1}{2}{3}")
    assert lines[-1].startswith("{1,2,3}")


def test_lattice_dot_has_unique_source_and_sink(capsys):
    code, out, _ = run(capsys, "lattice", "3", "--dot")
    assert code == 0
    edges = re.findall(r'"([^"]+)" -> "([^"]+)";', out)
    nodes = set(re.findall(r'"([^"]+)" \[label=', out))
    assert len(nodes) == 14
    sources = nodes - {b for _, b in edges}
    sinks = nodes - {a for a, _ in edges}
    assert sources == {"{1}{2}{3}"}
    assert sinks == {"{1,2,3}"}


def test_lattice_dot_annotates_term_sizes(tmp_path, capsys):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    code, out, _ = run(capsys, "lattice", "3", "--dot", "--dist", str(path))
    assert code == 0
    assert '"{1,2}{3}" [label="{1,2}{3} [2] = 1.000000000"];' in out
    assert '"{1,2,3}" [label="{1,2,3} [1] = 2.000000000"];' in out


def test_lattice_dist_arity_mismatch_exits_2(tmp_path, capsys):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    code, _, _ = run(capsys, "lattice", "4", "--dist", str(path))
    assert code == 2


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_deterministic_output(capsys):
    code, out1, _ = run(capsys, "scan", "--samples", "50", "--seed", "9", "--cards", "2,2,2")
    assert code == 0
    code, out2, _ = run(capsys, "scan", "--samples", "50", "--seed", "9", "--cards", "2,2,2")
    assert out1 == out2
    summary = json.loads(out1)
    assert summary["samples"] == 50
    assert summary["min_interval_width"] >= -1e-9


# ---------------------------------------------------------------------------
# dispatch and errors
# ---------------------------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_unknown_flag_exits_2(capsys):
    assert run(capsys, "gate", "xor", "--frobnicate")[0] == 2


LONG_ZEROS = "0," * 100000 + "0"
HUGE_VALUES = '{"variables": ["a"], "outcomes": [{"p": 1, "values": [' + LONG_ZEROS + "]}]}"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("p,A\n0.9,0\n", "mass"),
        ('{"variables": ["A"], "outcomes": 5}', "must be lists"),
        ('{"variables": ["A"], "outcomes": [{"p": null, "values": [0]}]}', "probability"),
        ("p,A\n1e400,0\n", "probability"),
        ('{"variables": ["A"], "outcomes": [{"p": 1, "values": [true]}]}', "bad outcome"),
        ('{"a":' * 100000, "invalid JSON"),
        ("[" * 200000, "header"),
        ("p" + ",a" * 100000 + "\n1" + ",0" * 100000, "unique"),
        ('{"variables": ["a"], "outcomes": [[' + LONG_ZEROS + "]]}", "bad outcome entry"),
        (HUGE_VALUES, "bad outcome"),
        ('{"variables": [1, null, true], "outcomes": []}', "variable names must be strings"),
        ('{"variables": [{"a": 1}], "outcomes": []}', "variable names must be strings"),
        ('{"variables": [["a"]], "outcomes": []}', "variable names must be strings"),
        ("p,a\n1e308,0\n1e308,1\n", "total mass inf"),
        ('{"variables": ["a"], "outcomes": [{"p": 1e308, "values": [0]}, '
         '{"p": 1e308, "values": [1]}]}', "total mass inf"),
    ],
    ids=[
        "mass",
        "outcomes-not-list",
        "null-p",
        "overflow-p",
        "bool-value",
        "deep-object",
        "huge-header",
        "huge-names",
        "huge-entry",
        "huge-values",
        "scalar-names",
        "object-name",
        "array-name",
        "mass-sum-overflow-csv",
        "mass-sum-overflow-json",
    ],
)
def test_malformed_table_exits_2(tmp_path, capsys, text, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, _, err = run(capsys, "decompose", str(path))
    assert code == 2
    assert fragment in err
    assert len(err.splitlines()) == 1
    assert len(err) < 200


XOR_DECOMP = ia.decomposition_to_json(ia.solve_trivariate(ia.xor_gate()))
N_OVERFLOW = XOR_DECOMP.replace('"n": 3', '"n": 1e400', 1)
COVERING_OVERFLOW = XOR_DECOMP.replace('"covering": 3', '"covering": 1e400', 1)
#: Well-formed fields whose sums, which validate forms, are no finite float.
SIZE_SUM_OVERFLOW = XOR_DECOMP.replace('"size": 1.0', '"size": 1e308', 2)
COVERING_PAST_FLOATS = XOR_DECOMP.replace('"covering": 1}', f'"covering": {10**400}}}', 1)
WEIGHTED_SUM_OVERFLOW = XOR_DECOMP.replace('"size": 0.0, "covering": 3',
                                           '"size": 1e308, "covering": 3', 1)


def _xor_decomp_with(old: str, new: str) -> str:
    assert old in XOR_DECOMP
    return XOR_DECOMP.replace(old, new, 1)


#: Fields that a coercing reader would turn into a valid xor decomposition.
MISTYPED_FIELDS = {
    "size-true": ('"size": 1.0', '"size": true'),
    "size-string": ('"size": 1.0', '"size": "1"'),
    "size-nan": ('"size": 1.0', '"size": NaN'),
    "size-infinity": ('"size": 1.0', '"size": Infinity'),
    "covering-2.5": ('"covering": 2', '"covering": 2.5'),
    "covering-1.9": ('"covering": 1', '"covering": 1.9'),
    "covering-true": ('"covering": 1', '"covering": true'),
    "n-3.5": ('"n": 3', '"n": 3.5'),
    "n-string": ('"n": 3', '"n": "3"'),
    "redundancy-string": ('"redundancy_param": 0.0', '"redundancy_param": "0"'),
    "entry-0.9": ('"entries": [[1', '"entries": [[0.9'),
    "entry-string": ('"entries": [[1', '"entries": [["1"'),
    "entry-true": ('"entries": [[1', '"entries": [[true'),
    "row-number": ('"rows": ["{1}{2}{3}"', '"rows": [123'),
}


@pytest.mark.parametrize(
    "command, decomp, stdin",
    [
        ("validate", N_OVERFLOW, ""),
        ("validate", COVERING_OVERFLOW, ""),
        ("lift", N_OVERFLOW, ""),
        ("lift", COVERING_OVERFLOW, ""),
        ("validate", SIZE_SUM_OVERFLOW, ""),
        ("validate", COVERING_PAST_FLOATS, ""),
        ("validate", WEIGHTED_SUM_OVERFLOW, ""),
        ("lift", SIZE_SUM_OVERFLOW, ""),
        ("lift", COVERING_PAST_FLOATS, ""),
        ("lift", WEIGHTED_SUM_OVERFLOW, ""),
        ("validate", None, "[" * 200000),
        *[("validate", _xor_decomp_with(*edit), "") for edit in MISTYPED_FIELDS.values()],
        ("lift", _xor_decomp_with(*MISTYPED_FIELDS["size-true"]), ""),
        ("lift", _xor_decomp_with(*MISTYPED_FIELDS["entry-0.9"]), ""),
    ],
    ids=[
        "validate-n-overflow",
        "validate-covering-overflow",
        "lift-n-overflow",
        "lift-covering-overflow",
        "validate-size-sum-overflow",
        "validate-covering-past-floats",
        "validate-weighted-sum-overflow",
        "lift-size-sum-overflow",
        "lift-covering-past-floats",
        "lift-weighted-sum-overflow",
        "validate-deep-array-stdin",
        *[f"validate-{name}" for name in MISTYPED_FIELDS],
        "lift-size-true",
        "lift-entry-0.9",
    ],
)
def test_malformed_decomposition_exits_2(tmp_path, capsys, monkeypatch, command, decomp, stdin):
    dist = tmp_path / "xor.csv"
    dist.write_text(XOR_CSV)
    path = "-"
    if decomp is not None:
        path = str(tmp_path / "decomp.json")
        (tmp_path / "decomp.json").write_text(decomp)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, _, err = run(capsys, command, path, str(dist))
    assert code == 2
    assert "JSON" in err
    assert len(err.splitlines()) == 1
    assert len(err) < 200


@pytest.mark.parametrize("command", ["validate", "lift"])
def test_a_row_repeating_an_index_exits_2(tmp_path, capsys, command):
    # ``{1,1}{2}{3}`` is not read as ``{1}{2}{3}``, which would pass.
    decomp = _xor_decomp_with('"rows": ["{1}{2}{3}"', '"rows": ["{1,1}{2}{3}"')
    (tmp_path / "xor.csv").write_text(XOR_CSV)
    (tmp_path / "decomp.json").write_text(decomp)
    code, out, err = run(capsys, command, str(tmp_path / "decomp.json"), str(tmp_path / "xor.csv"))
    assert code == 2 and out == ""
    assert "within or across brackets" in err and len(err.splitlines()) == 1


_DROP = object()


def _xor_decomp_at(path: tuple, value) -> str:
    """The xor decomposition's JSON with the value at ``path`` (keys and
    indices from the top level) set to ``value``, or removed for ``_DROP``."""
    if not path:
        return json.dumps(value)
    obj = json.loads(XOR_DECOMP)
    *head, last = path
    inner = obj
    for key in head:
        inner = inner[key]
    if value is _DROP:
        del inner[last]
    else:
        inner[last] = value
    return json.dumps(obj)


#: Decompositions whose JSON has the wrong shape, with the message each must
#: print: it names the missing field or the value that must be an object or
#: an array, never a bare key or a Python type error.
MISSHAPEN = {
    "top-level-array": ((), [1, 2], "the decomposition must be an object"),
    "top-level-string": ((), "xor", "the decomposition must be an object"),
    "missing-n": (("n",), _DROP, "the decomposition has no 'n' field"),
    "missing-atoms": (("atoms",), _DROP, "the decomposition has no 'atoms' field"),
    "missing-table": (("table",), _DROP, "the decomposition has no 'table' field"),
    "missing-size": (("atoms", 1, "size"), _DROP, "atoms[1] has no 'size' field"),
    "atom-array": (("atoms", 0), ["Pi_s", 1.0, 2], "atoms[0] must be an object"),
    "atoms-object": (("atoms",), {}, "atoms must be an array"),
    "table-array": (("table",), [], "table must be an object"),
    "missing-cols": (("table", "cols"), _DROP, "table has no 'cols' field"),
    "rows-number": (("table", "rows"), 5, "table.rows must be an array"),
    "entries-row-number": (("table", "entries", 2), 1, "table.entries[2] must be an array"),
}


@pytest.mark.parametrize("command", ["validate", "lift"])
@pytest.mark.parametrize("path, value, message", MISSHAPEN.values(), ids=list(MISSHAPEN))
def test_misshapen_decomposition_json_names_the_field(tmp_path, capsys, command, path, value,
                                                      message):
    dist = tmp_path / "xor.csv"
    dist.write_text(XOR_CSV)
    decomp = tmp_path / "decomp.json"
    decomp.write_text(_xor_decomp_at(path, value))
    code, out, err = run(capsys, command, str(decomp), str(dist))
    assert code == 2 and out == ""
    assert err == f"infatom: bad decomposition JSON: {message}\n"


#: Decompositions that load from JSON but whose parthood table is refused,
#: with the message each must print.  A row over index 2**40 or 10**10 - 1
#: is not an antichain over 3 variables; its mask would need that many bits.
REFUSED_TABLES = {
    "entry-2": ('"entries": [[1', '"entries": [[2', "must be 0 or 1"),
    "ragged-row": ("[[1, 0, 0, 0, 0, 0, 0, 0, 0]", "[[1, 0, 0, 0, 0, 0, 0, 0]", "shape mismatch"),
    "row-index-2**40": ('"rows": ["{1}{2}{3}"', '"rows": ["{1099511627776}"', "14 antichains"),
    "row-index-10**10": ('"rows": ["{1}{2}{3}"', '"rows": ["{9999999999}"', "14 antichains"),
}


@pytest.mark.parametrize("command", ["validate", "lift"])
@pytest.mark.parametrize("old, new, fragment", REFUSED_TABLES.values(), ids=list(REFUSED_TABLES))
def test_refused_parthood_table_exits_2(tmp_path, capsys, command, old, new, fragment):
    dist = tmp_path / "xor.csv"
    dist.write_text(XOR_CSV)
    path = tmp_path / "decomp.json"
    path.write_text(_xor_decomp_with(old, new))
    code, out, err = run(capsys, command, str(path), str(dist))
    assert code == 2 and out == ""
    assert fragment in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, env, fragment",
    [
        (["validate", "huge-n.json", "xor.csv"], None, "decomposition over"),
        (["info", "xor.csv", "--entropy", "x" * 100000], None, "bad variable selection"),
        (["gate", "xor"], "9" * 100000 + "x", "INFATOM_EPS"),
        (["gate", "xor"], "inf", "INFATOM_EPS"),
        (["gate", "xor"], "nan", "INFATOM_EPS"),
        (["gate", "xor"], "-1", "INFATOM_EPS"),
        (["gate", "xor"], "1", "INFATOM_EPS"),
        (["validate", "tampered.json", "xor.csv"], "inf", "INFATOM_EPS"),
        (["scan", "--samples", "3", "--seed", "1", "--cards", "2,x,2"], None, "--cards"),
        (["decompose", "--parity", "x"], None, "--parity"),
        (["lattice", "4", "--dist"], None, "--dist"),
        (["bogus"], None, "invalid choice"),
        (["scan", "--samples", "3"], None, "--seed"),
        (["decompose", "xor.csv", "--redundancy", "-inf"], None, "--redundancy"),
    ],
    ids=[
        "validate-huge-n",
        "info-huge-vars",
        "huge-eps",
        "eps-inf",
        "eps-nan",
        "eps-negative",
        "eps-one",
        "validate-tampered-eps-inf",
        "scan-bad-cards",
        "parser-bad-int",
        "parser-missing-value",
        "parser-unknown-command",
        "parser-missing-required",
        "parser-negative-value",
    ],
)
def test_usage_error_echoing_input_is_one_short_line(
    tmp_path, capsys, monkeypatch, argv, env, fragment
):
    (tmp_path / "xor.csv").write_text(XOR_CSV)
    (tmp_path / "huge-n.json").write_text(XOR_DECOMP.replace('"n": 3', '"n": 1' + "0" * 300, 1))
    (tmp_path / "tampered.json").write_text(
        XOR_DECOMP.replace('"size": 0.0', '"size": -3.0', 1)
    )
    monkeypatch.chdir(tmp_path)
    if env is not None:
        monkeypatch.setenv("INFATOM_EPS", env)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert fragment in err
    assert len(err.splitlines()) == 1
    assert len(err) < 200


@pytest.mark.parametrize("argv", [["--help"], ["decompose", "--help"]])
def test_help_exits_0_with_full_help_on_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: infatom")
    assert "options:" in out and "--help" in out
    assert err == ""


@pytest.mark.parametrize("command", ["validate", "lift"])
def test_made_up_decomposition_exits_2(
    tmp_path, capsys, monkeypatch, made_up_xor_json, command
):
    (tmp_path / "xor.csv").write_text(XOR_CSV)
    (tmp_path / "made-up.json").write_text(made_up_xor_json)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, "made-up.json", "xor.csv")
    assert code == 2
    assert out == ""
    assert "antichains" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_redundancy_exits_2(tmp_path, capsys, value):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_CSV)
    code, out, err = run(capsys, "decompose", str(path), f"--redundancy={value}")
    assert code == 2
    assert out == ""
    assert "finite" in err
    assert len(err.splitlines()) == 1


def test_missing_file_exits_2(capsys):
    assert run(capsys, "interval", "/nonexistent/table.csv")[0] == 2


def test_env_eps_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "drift.csv"
    path.write_text("p,A,B,C\n0.3334,0,0,0\n0.333,0,1,1\n0.333,1,1,0\n")
    code, _, _ = run(capsys, "interval", str(path))
    assert code == 2
    monkeypatch.setenv("INFATOM_EPS", "1e-2")
    code, out, _ = run(capsys, "interval", str(path))
    assert code == 0
    monkeypatch.setenv("INFATOM_EPS", "banana")
    assert run(capsys, "interval", str(path))[0] == 2


def test_validate_failure_names_the_failed_checks_on_one_stderr_line(tmp_path, capsys):
    # Rows in a shuffled order with their entries left in place: a complete,
    # well-formed table that fails validation.
    obj = json.loads(XOR_DECOMP)
    rows = obj["table"]["rows"]
    rows[0], rows[-1] = rows[-1], rows[0]
    (tmp_path / "xor.csv").write_text(XOR_CSV)
    (tmp_path / "swapped.json").write_text(json.dumps(obj))
    code, out, err = run(
        capsys, "validate", str(tmp_path / "swapped.json"), str(tmp_path / "xor.csv")
    )
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
    assert failed and err == f"infatom: failed checks: {', '.join(failed)}\n"


@pytest.mark.parametrize("command", ["info", "validate", "lift"])
def test_undecodable_file_exits_2(tmp_path, capsys, command):
    (tmp_path / "bad.bin").write_bytes(b"p,a\n\xff\xfe,0\n")
    (tmp_path / "xor.json").write_text(XOR_DECOMP)
    argv = [str(tmp_path / "bad.bin")]
    if command != "info":
        argv.insert(0, str(tmp_path / "xor.json"))
    code, out, err = run(capsys, command, *argv)
    assert code == 2 and out == ""
    assert "utf-8" in err and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# Fuzz: any input exits 0, 1 or 2, and a failure is one stderr line
# ---------------------------------------------------------------------------

XOR_DECOMP_OBJ = json.loads(XOR_DECOMP)

#: Label and row texts of the xor decomposition; drawn too, so that rows
#: can move and labels can collide.
XOR_TEXTS = sorted(
    {a["label"] for a in XOR_DECOMP_OBJ["atoms"]} | set(XOR_DECOMP_OBJ["table"]["rows"])
)

drawn_texts = st.one_of(
    st.text("{},0123456789 Pi_gs", max_size=12),
    st.text(max_size=12),
    st.sampled_from(XOR_TEXTS),
)


@st.composite
def relabeled_decompositions(draw):
    """The xor decomposition's JSON with labels and rows replaced by drawn
    strings: each label consistently in atoms and columns, rows maybe
    shuffled first."""
    obj = json.loads(XOR_DECOMP)
    relabel = {a["label"]: draw(drawn_texts) for a in obj["atoms"] if draw(st.booleans())}
    for atom in obj["atoms"]:
        atom["label"] = relabel.get(atom["label"], atom["label"])
    table = obj["table"]
    table["cols"] = [relabel.get(c, c) for c in table["cols"]]
    rows = draw(st.permutations(table["rows"])) if draw(st.booleans()) else table["rows"]
    rerow = {r: draw(drawn_texts) for r in rows if draw(st.integers(0, 4)) == 0}
    table["rows"] = [rerow.get(r, r) for r in rows]
    return json.dumps(obj).encode()


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard error of ``main(argv)``; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _run_on_files(command: str, decomp: bytes, table: bytes) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "d.json").write_bytes(decomp)
        (Path(tmp) / "t.csv").write_bytes(table)
        argv = ["t.csv"] if command == "info" else ["d.json", "t.csv"]
        return _run_quietly([command] + [str(Path(tmp) / a) for a in argv])


def _assert_clean_exit(code: int, err: str, inputs: bytes) -> None:
    assert code in (0, 1, 2)
    if code != 0:
        assert err.endswith("\n") and err.count("\n") == 1, err
    # An input may itself hold the word, and a message may quote it.
    assert "Traceback" not in err or b"Traceback" in inputs


arbitrary_input = st.one_of(st.text().map(str.encode), st.binary())


@given(st.sampled_from(["validate", "lift", "info"]), arbitrary_input, st.booleans())
@settings(max_examples=150)
def test_fuzz_arbitrary_input_exits_cleanly(command, data, as_table):
    if as_table or command == "info":
        decomp, table = XOR_DECOMP.encode(), data
    else:
        decomp, table = data, XOR_CSV.encode()
    code, err = _run_on_files(command, decomp, table)
    _assert_clean_exit(code, err, data)


@given(st.sampled_from(["validate", "lift"]), relabeled_decompositions())
@settings(max_examples=150)
def test_fuzz_relabeled_decomposition_exits_cleanly(command, decomp):
    code, err = _run_on_files(command, decomp, XOR_CSV.encode())
    _assert_clean_exit(code, err, decomp)


#: Gate specs: the fixed names, parity up to 12 bits (2048 rows), random
#: specs of at most 6^4 = 1296 rows, and free text.  Free text has no room
#: for a valid ``random(S,[C])`` spec (13 characters at least) and no
#: two-digit run, so every spec it spells builds at most 256 rows.
gate_specs = st.one_of(
    st.sampled_from(["xor", "and", "copy", "two-coins-copy", " xor ", "nand", "parity()", "-1"]),
    st.integers(-3, 12).map(lambda n: f"parity({n})"),
    st.builds(
        lambda seed, cards: f"random({seed},[{','.join(map(str, cards))}])",
        st.integers(-5, 5),
        st.lists(st.integers(0, 6), max_size=4),
    ),
    st.one_of(st.text("parityrandom(),[]- 0123456789", max_size=12), st.text(max_size=12))
    .filter(lambda text: not re.search(r"\d\d", text)),
)


@given(gate_specs, st.sampled_from([[], ["--emit", "json"]]))
@settings(max_examples=100)
def test_fuzz_gate_exits_cleanly(spec, emit):
    code, err = _run_quietly(["gate", spec, *emit])
    _assert_clean_exit(code, err, spec.encode())


#: ``--dist`` files: random tables over 1 to 5 variables (so the arity
#: matches the lattice's or not) and arbitrary bytes.
lattice_tables = st.one_of(
    st.integers(1, 5).map(lambda k: ia.dump_csv(ia.random_table(k, (2,) * k)).encode()),
    arbitrary_input,
)


@given(st.integers(-2, 5), st.booleans(), st.none() | lattice_tables)
@settings(max_examples=100)
def test_fuzz_lattice_exits_cleanly(n, dot, table):
    argv = ["lattice", str(n)] + (["--dot"] if dot else [])
    with tempfile.TemporaryDirectory() as tmp:
        if table is not None:
            (Path(tmp) / "t.csv").write_bytes(table)
            argv += ["--dist", str(Path(tmp) / "t.csv")]
        code, err = _run_quietly(argv)
    _assert_clean_exit(code, err, table or b"")
