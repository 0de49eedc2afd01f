"""The package surface: the exported names and how they resolve."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infatom
from infatom import decomp, dist

EXPORTS = [
    "Antichain", "AntichainError", "Atom", "AtomLabel", "AtomSet", "CheckResult",
    "DEFAULT_EPS", "Decomposition", "DecompositionFormatError", "DuplicateOutcome",
    "GateSpecError", "InfatomError", "InfeasibleRedundancy", "LabelError",
    "LatticeRangeError", "LatticeView", "MalformedRow", "NegativeAtomSize",
    "NegativeProbability", "NotSetTheoretic", "ParthoodTable", "PidView", "ProbTable",
    "RedundancyValueError", "ScanSummary", "TableError", "TermValue", "TotalMassInvalid",
    "ValidationFailed", "ValidationReport", "VariableSetError", "WrongArity",
    "XorUniqueness", "and_gate", "bottom", "check_inclusion_exclusion3", "conditional_mi",
    "copy_gate", "decomp", "decomposition_from_json", "decomposition_to_json",
    "delta_H", "dist", "dump_csv", "dump_json", "entropy", "enumerate_antichains",
    "errors", "eval_term", "extend_with_joint", "feasible_interval", "gen_gate",
    "interaction_information", "is_deterministic_function", "is_independent", "lattice",
    "leq", "lift_decomposition", "lift_map", "load_table", "marginalize",
    "mutual_information", "parity_gate", "parse_label", "pid_view", "random_table",
    "reduce_antichain", "redundancy_bounds", "sample_table", "scan_random",
    "solve_n_parity", "solve_set_theoretic", "solve_trivariate", "terms", "top",
    "two_coins_copy_gate", "validate", "verify_xor_uniqueness", "xor_gate",
]

SUBMODULES = ("decomp", "dist", "errors", "lattice", "terms")


def test_all_is_the_fixed_export_list():
    assert len(EXPORTS) == 79
    assert sorted(infatom.__all__) == EXPORTS


def test_every_name_is_its_submodules_binding():
    for name in infatom.__all__:
        value = getattr(infatom, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"infatom.{name}")
        elif name == "DEFAULT_EPS":
            assert value is dist.DEFAULT_EPS
        else:
            assert value.__module__.split(".")[0] == "infatom", name
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_and_dir():
    namespace: dict = {}
    exec("from infatom import *", namespace)
    assert set(infatom.__all__) <= set(namespace)
    assert namespace["validate"] is decomp.validate
    assert set(infatom.__all__) <= set(dir(infatom))


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        infatom.no_such_name
    with pytest.raises(ImportError):
        exec("from infatom import no_such_name", {})


def test_names_are_read_through_not_cached(monkeypatch):
    # A name read once must not stay in the package: code that rebinds a
    # submodule attribute (a tracer, a test double) is seen on every read.
    original = infatom.validate
    assert "validate" not in vars(infatom)
    monkeypatch.setattr(decomp, "validate", lambda *args, **kwargs: None)
    assert infatom.validate is decomp.validate is not original
    monkeypatch.undo()
    assert infatom.validate is original


def test_import_loads_no_submodule():
    src = str(Path(infatom.__file__).resolve().parents[1])
    code = "import sys, infatom; print(sorted(m for m in sys.modules if m.startswith('infatom')))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out == "['infatom']\n"


def _scopes_naming(name: str) -> set[str]:
    """``file:qualname`` of each scope in the package source that names
    ``name`` as an attribute, a variable, a keyword or a string."""
    found = set()

    def visit(node: ast.AST, scope: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name, path)
                continue
            if name in (getattr(child, "attr", None), getattr(child, "id", None),
                        getattr(child, "arg", None), getattr(child, "value", None)):
                found.add(f"{path.name}:{scope}")
            visit(child, scope, path)

    for path in sorted(Path(infatom.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path)
    return found


def test_only_mask_entropy_touches_the_entropy_memo():
    assert _scopes_naming("_entropies") == {"dist.py:ProbTable.__init__", "dist.py:_mask_entropy"}


def test_only_parthood_table_touches_its_bitsets():
    # Validate and lift read a table's held bitsets through _bitsets and
    # _keep_bits alone, so no other scope indexes their fields.
    assert _scopes_naming("_bits") == {
        "decomp.py:ParthoodTable._bitsets",
        "decomp.py:ParthoodTable._keep_bits",
        "decomp.py:ParthoodTable._covers_hold",
    }


def _package_trees():
    for path in sorted(Path(infatom.__file__).parent.glob("*.py")):
        yield ast.parse(path.read_text())


def _memoised_functions() -> set[str]:
    """Qualnames of the package functions decorated with ``lru_cache`` or
    ``cache``, called or bare, by name or through ``functools``."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                for dec in getattr(child, "decorator_list", ()):
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if getattr(target, "id", getattr(target, "attr", None)) in ("lru_cache", "cache"):
                        found.add(name)
                visit(child, name)

    for tree in _package_trees():
        visit(tree, "")
    return found


def test_the_process_memos_are_a_fixed_list():
    # Each memo here lives as long as the process; the rest live on the
    # value they are built from (a table, a lattice view, a label).
    assert _memoised_functions() == {
        "enumerate_antichains", "_mask_positions", "_btext", "_mobius_plan",
    }
    empty_dicts = set()
    for tree in _package_trees():
        for node in tree.body:
            value = getattr(node, "value", None)
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(value, ast.Dict) \
                    and not value.keys:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                empty_dicts.update(t.id for t in targets)
    assert empty_dicts == {"_SELECTION_MASKS"}


def test_only_parthood_touches_a_views_tables():
    assert _scopes_naming("_tables") == {"lattice.py:LatticeView.__init__", "decomp.py:_parthood"}
