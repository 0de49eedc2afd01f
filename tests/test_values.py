"""Value semantics of the package's record classes.

One instance of each record class, built from keyword arguments.  Its
fields are the argument values in declaration order; the ``repr`` strings
were recorded when these classes were frozen dataclasses, and every check
here held for those too.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys

import pytest

import infatom as ia
from infatom import decomp as d
from infatom.dist import ProbTable
from infatom.lattice import Antichain, LatticeView
from infatom.terms import TermValue, reduce_antichain

A1 = Antichain(((1,),))
#: The lattice over two variables, so that its lift table has a lattice below.
L2 = tuple(Antichain(b) for b in (((1,), (2,)), ((1,),), ((2,),), ((1, 2),)))
SYN = d.AtomLabel("synergy")
ATOM = d.Atom(SYN, 1.0, 2)
ATOMS = d.AtomSet((ATOM,))
TABLE = d.ParthoodTable((A1,), (SYN,), ((1,),))
CHECK = d.CheckResult("conservation", True, 0.0, "")

SYN_R = "AtomLabel(kind='synergy', antichain=None, index=0)"
ATOM_R = f"Atom(label={SYN_R}, size=1.0, covering=2)"
TABLE_R = f"ParthoodTable(rows=(Antichain(brackets=((1,),)),), cols=({SYN_R},), entries=((1,),))"
CHECK_R = "CheckResult(name='conservation', passed=True, residual=0.0, detail='')"

# (class, keyword arguments, repr, memo attributes)
CASES = [
    (
        ProbTable,
        {"variables": ("A", "B"), "cards": (2, 2), "rows": (((0, 0), 0.5), ((1, 1), 0.5))},
        "ProbTable(variables=('A', 'B'), cards=(2, 2), rows=(((0, 0), 0.5), ((1, 1), 0.5)))",
        ("_entropies", "_decisions"),
    ),
    (Antichain, {"brackets": ((1, 2), (3,))}, "Antichain(brackets=((1, 2), (3,)))", ("masks",)),
    (
        LatticeView,
        {"n": 2, "elements": L2},
        "LatticeView(n=2, elements=(Antichain(brackets=((1,), (2,))), Antichain(brackets="
        "((1,),)), Antichain(brackets=((2,),)), Antichain(brackets=((1, 2),))))",
        ("_index", "covers", "lifts", "_tables"),
    ),
    (
        TermValue,
        {"value": None, "bounds": (0.25, 1.5), "trace": ("R1: {1}{2} -> {1}",)},
        "TermValue(value=None, bounds=(0.25, 1.5), trace=('R1: {1}{2} -> {1}',))",
        (),
    ),
    (
        d.AtomLabel,
        {"kind": "set", "antichain": Antichain(((1,), (2,))), "index": 0},
        "AtomLabel(kind='set', antichain=Antichain(brackets=((1,), (2,))), index=0)",
        ("text", "_hash"),
    ),
    (d.Atom, {"label": SYN, "size": 1.0, "covering": 2}, ATOM_R, ()),
    (d.AtomSet, {"atoms": (ATOM,)}, f"AtomSet(atoms=({ATOM_R},))", ("_by_label",)),
    (
        d.ParthoodTable,
        {"rows": (A1,), "cols": (SYN,), "entries": ((1,),)},
        TABLE_R,
        ("_row_index", "_bits", "_monotone"),
    ),
    (
        d.Decomposition,
        {"n": 1, "table": TABLE, "atoms": ATOMS, "redundancy_param": None},
        f"Decomposition(n=1, table={TABLE_R}, atoms=AtomSet(atoms=({ATOM_R},)), redundancy_param=None)",
        (),
    ),
    (
        d.PidView,
        {"redundancy": 0.0, "unique_a": 0.5, "unique_b": 0.25, "synergy": 1.0,
         "sources": (1, 2), "target": 3},
        "PidView(redundancy=0.0, unique_a=0.5, unique_b=0.25, synergy=1.0, sources=(1, 2), target=3)",
        (),
    ),
    (
        d.XorUniqueness,
        {"x": 1.0, "y": 0.0, "pi_variable": 0.0, "pi_ghost": 1.0, "conservation": 2.0},
        "XorUniqueness(x=1.0, y=0.0, pi_variable=0.0, pi_ghost=1.0, conservation=2.0)",
        (),
    ),
    (d.CheckResult, {"name": "conservation", "passed": True, "residual": 0.0, "detail": ""}, CHECK_R, ()),
    (d.ValidationReport, {"checks": (CHECK,)}, f"ValidationReport(checks=({CHECK_R},))", ()),
    (
        d.ScanSummary,
        {"n_samples": 50, "seed": 3, "cards": (2, 3, 2), "min_interval_width": 0.125,
         "min_atom_size": 0.0, "pi_s_min": 0.5, "pi_s_max": 1.25,
         "set_theoretic_successes": 7, "max_subadditivity_gap": -0.03125},
        "ScanSummary(n_samples=50, seed=3, cards=(2, 3, 2), min_interval_width=0.125, "
        "min_atom_size=0.0, pi_s_min=0.5, pi_s_max=1.25, set_theoretic_successes=7, "
        "max_subadditivity_gap=-0.03125)",
        (),
    ),
]

IDS = [case[0].__name__ for case in CASES]


def _fill_memos(x) -> None:
    """Use each memoised attribute once, so the memos hold entries."""
    if isinstance(x, ProbTable):
        reduce_antichain(x, Antichain(((1,), (2,))))
    elif isinstance(x, Antichain):
        _ = x.masks
    elif isinstance(x, LatticeView):
        _ = x.covers, x.index(A1), x.lifts
        # _parthood keeps its tables on the lattice memo's view, not on x.
        x._tables[SYN,] = d._parthood(2, (SYN,))
    elif isinstance(x, d.AtomSet):
        x.size(SYN)
    elif isinstance(x, d.ParthoodTable):
        x.row(A1)
        view = ia.enumerate_antichains(1)
        x._bitsets(view)
        x._covers_hold(view.covers)


@pytest.mark.parametrize("cls, kw, text, memos", CASES, ids=IDS)
def test_repr_is_unchanged(cls, kw, text, memos):
    assert repr(cls(**kw)) == text


@pytest.mark.parametrize("cls, kw, text, memos", CASES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, kw, text, memos):
    x, y, z = cls(**kw), cls(**kw), cls(*kw.values())
    assert x is not y and x == y == z and not x != y
    assert hash(x) == hash(y) == hash(z) == hash(tuple(kw.values()))
    assert {x, y, z} == {x} and {x: 1}[z] == 1
    assert [getattr(x, name) for name in kw] == list(kw.values())


@pytest.mark.parametrize("cls, kw, text, memos", CASES, ids=IDS)
def test_other_classes_with_the_same_fields_are_unequal(cls, kw, text, memos):
    x = cls(**kw)
    sub = type("Sub", (cls,), {})(**kw)
    assert x != sub and sub != x and not x == sub
    fields = tuple(kw.values())
    assert x != fields and fields != x
    assert x.__eq__(fields) is NotImplemented


def test_two_record_classes_with_equal_fields_are_unequal():
    # Both hold the one field ((1,),) and so hash alike.
    a, r = Antichain(((1,),)), d.ValidationReport(((1,),))
    assert hash(a) == hash(r)
    assert a != r and r != a and len({a, r}) == 2


@pytest.mark.parametrize("cls, kw, text, memos", CASES, ids=IDS)
def test_fields_are_read_only(cls, kw, text, memos):
    x = cls(**kw)
    for name in (*kw, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == cls(**kw) and repr(x) == text and not hasattr(x, "extra")


@pytest.mark.parametrize("cls, kw, text, memos", CASES, ids=IDS)
def test_memos_stay_out_of_eq_hash_and_repr(cls, kw, text, memos):
    x, fresh = cls(**kw), cls(**kw)
    _fill_memos(x)
    for name in memos:
        assert name in vars(x) and vars(x)[name]
    assert x == fresh and hash(x) == hash(fresh) and repr(x) == repr(fresh) == text


@pytest.mark.parametrize("cls, kw, text, memos", CASES, ids=IDS)
def test_missing_or_unknown_arguments_raise_type_error(cls, kw, text, memos):
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**kw, extra=1)
    with pytest.raises(TypeError):
        cls(*kw.values(), 1)


def test_defaults_and_keyword_arguments():
    assert repr(d.AtomLabel("ghost", index=2)) == "AtomLabel(kind='ghost', antichain=None, index=2)"
    with pytest.raises(d.LabelError):
        d.AtomLabel("ghost", index=0)
    assert d.AtomLabel("synergy") == d.AtomLabel("synergy", None, 0) == SYN
    assert TermValue(1.0, (1.0, 1.0)).trace == ()
    assert d.CheckResult("x", True, 0.0).detail == ""
    assert d.Decomposition(1, TABLE, ATOMS).redundancy_param is None


@pytest.mark.parametrize("cls, kw, text, memos", CASES, ids=IDS)
def test_pickle_and_copy_round_trips(cls, kw, text, memos):
    x = cls(**kw)
    _fill_memos(x)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == text
        with pytest.raises(AttributeError):
            setattr(y, next(iter(kw)), 0)


#: Loads pickled values in a fresh interpreter and looks each up in a dict
#: keyed by an equal value built there.
_LOAD_AND_LOOK_UP = """
import pickle, sys
import infatom as ia
from infatom import decomp as d
label, solved, parent_hash = pickle.loads(sys.stdin.buffer.read())
assert hash(label._key) != parent_hash, "the hash seeds agree"
fresh_label = d.parse_label("{1}{2}")
fresh = d.solve_trivariate(ia.xor_gate())
assert hash(label) == hash(fresh_label) and {fresh_label: 1}[label] == 1
assert {label: 1}[fresh_label] == 1
assert hash(solved) == hash(fresh) and {fresh: 1}[solved] == 1
assert solved.atom_size(fresh_label) == fresh.atom_size(label)
print("ok")
"""


def test_cached_hashes_are_recomputed_after_pickling_into_another_process():
    label = d.parse_label("{1}{2}")
    solved = d.solve_trivariate(ia.xor_gate())
    data = pickle.dumps((label, solved, hash(label._key)))
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = os.path.join(os.path.dirname(ia.__file__), os.pardir)
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _LOAD_AND_LOOK_UP], input=data,
                         capture_output=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == b"ok\n"
    for copied in (copy.copy(label), copy.deepcopy(label)):
        assert vars(copied) == vars(label) and hash(copied) == hash(label)
