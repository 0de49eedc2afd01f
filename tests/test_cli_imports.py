"""Start-up: ``python -m infatom.cli`` loads only the layers a subcommand runs.

Each case runs the CLI as a user does, in a fresh interpreter under
``-X importtime``, reads the modules it imported from standard error and
checks its standard output against ``cli.main`` run in this process.  The
CLI module itself runs as ``__main__``, so it is not in the list.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infatom as ia
from infatom.cli import main

SRC = Path(ia.__file__).resolve().parents[1]

XOR_CSV = "p,O1,O2,O3\n0.25,0,0,0\n0.25,0,1,1\n0.25,1,0,1\n0.25,1,1,0\n"

BASE = {"infatom", "infatom.dist", "infatom.errors"}
SOLVING = BASE | {"infatom.decomp", "infatom.lattice", "infatom.terms"}


def _imports(argv: list[str]) -> tuple[str, set[str]]:
    """Standard output of the CLI on ``argv`` and the modules it imported."""
    env = {k: v for k, v in os.environ.items() if k != "INFATOM_EPS"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "infatom.cli", *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded = {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.stdout, loaded


def _in_process(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.fixture
def files(tmp_path):
    """Input files; an ``@name`` argument names one of them."""
    (tmp_path / "xor.csv").write_text(XOR_CSV)
    (tmp_path / "t4.csv").write_text(ia.dump_csv(ia.random_table("startup", (2,) * 4)))
    (tmp_path / "xor.json").write_text(ia.decomposition_to_json(ia.solve_trivariate(ia.xor_gate())))
    return tmp_path


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["gate", "xor"], BASE),
        (["info", "@xor.csv"], BASE),
        (["lattice", "4", "--dot"], BASE | {"infatom.lattice"}),
        (["lattice", "4", "--dot", "--dist", "@t4.csv"], BASE | {"infatom.lattice", "infatom.terms"}),
        (["validate", "@xor.json", "@xor.csv"], SOLVING),
        (["decompose", "@xor.csv", "--json"], SOLVING),
        (["lift", "@xor.json", "@xor.csv"], SOLVING),
        (["scan", "--samples", "5", "--seed", "1"], SOLVING),
    ],
    ids=["gate", "info", "lattice", "lattice-dist", "validate", "decompose-json", "lift", "scan"],
)
def test_subcommand_loads_only_its_layers(files, argv, expected):
    argv = [str(files / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    out, loaded = _imports(argv)
    assert {m for m in loaded if m.split(".")[0] == "infatom"} == expected
    # Every table here is decimal: only an ``a/b`` probability needs Fraction.
    assert "fractions" not in loaded
    # The record classes are built without ``dataclasses``, which imports ``inspect``.
    assert not loaded & {"dataclasses", "inspect"}
    assert out == _in_process(argv)


def test_fraction_probability_loads_fractions(tmp_path):
    (tmp_path / "half.csv").write_text("p,A\n1/2,0\n1/2,1\n")
    out, loaded = _imports(["info", str(tmp_path / "half.csv")])
    assert "fractions" in loaded
    assert out == "variables: A\nH(A) = 1.000000000\nH(all) = 1.000000000\n"
