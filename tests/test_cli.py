from __future__ import annotations

import io
import json
import re

import pytest

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


@pytest.mark.parametrize(
    "command, decomp, stdin",
    [
        ("validate", N_OVERFLOW, ""),
        ("validate", COVERING_OVERFLOW, ""),
        ("lift", N_OVERFLOW, ""),
        ("lift", COVERING_OVERFLOW, ""),
        ("validate", None, "[" * 200000),
    ],
    ids=[
        "validate-n-overflow",
        "validate-covering-overflow",
        "lift-n-overflow",
        "lift-covering-overflow",
        "validate-deep-array-stdin",
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
