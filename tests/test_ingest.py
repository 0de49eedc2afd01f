"""Table ingest and emission against their row-by-row oracles.

``ProbTable.from_pmf`` and the CSV loader check whole columns at once and
scan the rows only to name the first offender.  Every malformed input
below must raise the oracle's exception class with the oracle's message,
and every accepted one must give the oracle's table, row for row and bit
for bit.  ``dump_csv`` must write the oracle's bytes.
"""

from __future__ import annotations

import math
import random
from enum import IntEnum
from fractions import Fraction
from itertools import product

import pytest

import infatom as ia
from infatom import dist

from _oracles import oracle_dump_csv, oracle_from_pmf, oracle_load_csv, oracle_random_table


class Sym(IntEnum):
    ZERO = 0
    ONE = 1


def _result(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)


def _bits(table):
    """Rows with each symbol's type and each mass's exact bits."""
    return [(tuple((type(v), v) for v in o), p.hex()) for o, p in table.rows]


def assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, ia.ProbTable):
        assert got == want
        assert (got.variables, got.cards) == (want.variables, want.cards)
        assert _bits(got) == _bits(want)
    else:
        assert got == want


# ---------------------------------------------------------------------------
# from_pmf
# ---------------------------------------------------------------------------

NAMES = ("A", "B", "C")
# Eight rows over three bits, out of order so that sorting shows.
BASE = [((o[2], o[0], o[1]), 0.125) for o in product((1, 0), repeat=3)]
LAST = len(BASE) - 1
POSITIONS = {"first": 0, "middle": 3, "last": LAST}


def _dup_of_next(rows, i):
    # The outcome of a neighbouring row: the copy is found at the later one.
    j = i + 1 if i < LAST else i - 1
    return rows[j][0], rows[i][1]


#: Each maker turns row ``i`` of a row list into a row that from_pmf rejects.
ROW_ERRORS = {
    "short_outcome": lambda rows, i: (rows[i][0][:2], rows[i][1]),
    "long_outcome": lambda rows, i: (rows[i][0] + (0,), rows[i][1]),
    "bool_symbol": lambda rows, i: ((bool(rows[i][0][0]),) + rows[i][0][1:], rows[i][1]),
    "float_symbol": lambda rows, i: ((float(rows[i][0][0]),) + rows[i][0][1:], rows[i][1]),
    "str_symbol": lambda rows, i: (("1",) + rows[i][0][1:], rows[i][1]),
    "none_symbol": lambda rows, i: (rows[i][0][:2] + (None,), rows[i][1]),
    "negative_symbol": lambda rows, i: ((-1,) + rows[i][0][1:], rows[i][1]),
    "list_symbol": lambda rows, i: (([0],) + rows[i][0][1:], rows[i][1]),
    "scalar_outcome": lambda rows, i: (7, rows[i][1]),
    "negative_mass": lambda rows, i: (rows[i][0], -rows[i][1]),
    "minus_inf_mass": lambda rows, i: (rows[i][0], -math.inf),
    "text_mass": lambda rows, i: (rows[i][0], "x"),
    "none_mass": lambda rows, i: (rows[i][0], None),
    "huge_int_mass": lambda rows, i: (rows[i][0], 10**400),
    "triple_row": lambda rows, i: (rows[i][0], rows[i][1], 0),
    "single_row": lambda rows, i: (rows[i][0],),
    "scalar_row": lambda rows, i: 7,
    "duplicate": _dup_of_next,
}


def _with(rows, *edits):
    rows = list(rows)
    for kind, i in edits:
        rows[i] = ROW_ERRORS[kind](rows, i)
    return rows


def _from_pmf_cases():
    for kind in ROW_ERRORS:
        for where, i in POSITIONS.items():
            yield pytest.param(_with(BASE, (kind, i)), id=f"{kind}-{where}")
    pairs = ["short_outcome", "bool_symbol", "negative_symbol", "negative_mass", "text_mass",
             "duplicate", "triple_row"]
    for a in pairs:
        for b in pairs:
            if a != b:
                yield pytest.param(_with(BASE, (b, 6), (a, 1)), id=f"{a}-then-{b}")
    yield pytest.param(_with(BASE, ("duplicate", 5), ("float_symbol", 1)), id="duplicate-after-bad")
    nan_first = _with(BASE, ("negative_mass", 5))
    nan_first[0] = (nan_first[0][0], math.nan)
    yield pytest.param(nan_first, id="leading-nan-then-negative")
    for where, i in POSITIONS.items():
        rows = list(BASE)
        rows[i] = (rows[i][0], math.nan)
        yield pytest.param(rows, id=f"nan_mass-{where}")
    yield pytest.param([(o, 0.25) for o, _ in BASE], id="total_mass_two")
    yield pytest.param([], id="no_rows")
    yield pytest.param([(o, 0.0) for o, _ in BASE], id="all_zero")


@pytest.mark.parametrize("rows", _from_pmf_cases())
def test_from_pmf_rejects_as_the_row_oracle(rows):
    want = _result(oracle_from_pmf, NAMES, rows)
    assert isinstance(want, tuple), "every input here is malformed"
    assert_same(_result(ia.ProbTable.from_pmf, NAMES, rows), want)
    pmf = iter(rows)  # a one-pass iterable is read once, like a list
    assert_same(_result(ia.ProbTable.from_pmf, NAMES, pmf), want)


@pytest.mark.parametrize(
    "load",
    [
        lambda: ia.ProbTable.from_pmf(["a"], {(0,): 1e308, (1,): 1e308}),
        lambda: ia.load_table("p,a\n1e308,0\n1e308,1\n"),
        lambda: ia.load_table('{"variables": ["a"], "outcomes": [{"p": 1e308, "values": [0]}, '
                              '{"p": 1e308, "values": [1]}]}'),
    ],
    ids=["from_pmf", "csv", "json"],
)
def test_masses_summing_past_the_float_range_are_an_invalid_total(load):
    # Each mass is finite; their sum is read as infinite.
    with pytest.raises(ia.TotalMassInvalid, match="total mass inf"):
        load()


def _overflow(rows, *positions):
    rows = list(rows)
    for i in positions:
        rows[i] = ((2,) + rows[i][0][1:], rows[i][1])
    return rows


@pytest.mark.parametrize("rows, cards", [
    pytest.param(_overflow(BASE, 0), (2, 2, 2), id="overflow-first"),
    pytest.param(_overflow(BASE, 4), (2, 2, 2), id="overflow-middle"),
    pytest.param(_overflow(BASE, LAST), (2, 2, 2), id="overflow-last"),
    pytest.param(_overflow(BASE, 6, 2), (2, 2, 2), id="overflow-two-rows"),
    pytest.param(_overflow(BASE, 5), (2, 3, 2), id="overflow-other-column"),
    pytest.param(BASE, (2, 2), id="short-cards"),
    pytest.param(BASE, (2, 0, 2), id="zero-card"),
    pytest.param(BASE, (2, 2.0, 2), id="float-card"),
    pytest.param(BASE, (True, 2, 2), id="bool-card"),
])
def test_card_errors_match_the_row_oracle(rows, cards):
    want = _result(oracle_from_pmf, NAMES, rows, cards)
    assert isinstance(want, tuple)
    assert_same(_result(ia.ProbTable.from_pmf, NAMES, rows, cards), want)


def _accepted_cases():
    yield pytest.param(BASE, None, id="plain")
    yield pytest.param(dict(BASE), (2, 2, 3), id="mapping-wider-cards")
    yield pytest.param([((Sym(o[0]),) + o[1:], p) for o, p in BASE], None, id="intenum-symbols")
    yield pytest.param([(list(o), str(p)) for o, p in BASE], None, id="lists-and-text")
    yield pytest.param([(o, Fraction(1, 8)) for o, _ in BASE], None, id="fractions")
    zeros = [(o, 0.25 if k % 2 else 0.0) for k, (o, _) in enumerate(BASE)]
    yield pytest.param(zeros, None, id="zero-rows-shrink-cards")
    yield pytest.param([(o, -0.0 if k == 2 else p) for k, (o, p) in enumerate(BASE)]
                       + [((5, 5, 5), 0.125)], None, id="negative-zero")
    yield pytest.param([(o, 0.1249999999) for o, _ in BASE], None, id="drift-within-eps")


@pytest.mark.parametrize("rows, cards", _accepted_cases())
def test_from_pmf_accepts_as_the_row_oracle(rows, cards):
    want = oracle_from_pmf(NAMES, rows, cards)
    assert_same(ia.ProbTable.from_pmf(NAMES, rows, cards), want)


def test_pairs_without_a_length_are_read_as_the_row_oracle_reads_them():
    # Each pair an iterator: it unpacks, but len() cannot size it.
    want = oracle_from_pmf(NAMES, [iter(pair) for pair in BASE])
    assert_same(ia.ProbTable.from_pmf(NAMES, [iter(pair) for pair in BASE]), want)
    bad = _with(BASE, ("negative_mass", 5))
    want = _result(oracle_from_pmf, NAMES, [iter(pair) for pair in bad])
    assert_same(_result(ia.ProbTable.from_pmf, NAMES, [iter(pair) for pair in bad]), want)


# ---------------------------------------------------------------------------
# The CSV loader
# ---------------------------------------------------------------------------

CSV_HEADER = "p,A,B,C"
CSV_ROWS = [f"0.125,{o[0]},{o[1]},{o[2]}" for o, _ in BASE]

#: Each maker turns CSV row ``ln`` into one the loader rejects.
LINE_ERRORS = {
    "extra_field": lambda ln: ln + ",0",
    "missing_field": lambda ln: ln.rsplit(",", 1)[0],
    "text_mass": lambda ln: "abc" + ln[ln.index(","):],
    "empty_mass": lambda ln: ln[ln.index(","):],
    "inf_mass": lambda ln: "inf" + ln[ln.index(","):],
    "nan_mass": lambda ln: "nan" + ln[ln.index(","):],
    "overflow_mass": lambda ln: "1e400" + ln[ln.index(","):],
    "zero_denominator": lambda ln: "1/0" + ln[ln.index(","):],
    "bad_fraction": lambda ln: "1/x" + ln[ln.index(","):],
    "text_symbol": lambda ln: ln[:-1] + "x",
    "float_symbol": lambda ln: ln[:-1] + "1.0",
    "empty_symbol": lambda ln: ln[:-1],
    "negative_symbol": lambda ln: ln[:-1] + "-1",
    "negative_mass": lambda ln: "-" + ln,
}


def _csv(lines, header=CSV_HEADER):
    return "\n".join([header, *lines]) + "\n"


def _csv_with(*edits):
    lines = list(CSV_ROWS)
    for kind, i in edits:
        lines[i] = LINE_ERRORS[kind](lines[i])
    return _csv(lines)


def _csv_cases():
    for kind in LINE_ERRORS:
        for where, i in POSITIONS.items():
            yield pytest.param(_csv_with((kind, i)), id=f"{kind}-{where}")
    pairs = ["extra_field", "text_mass", "inf_mass", "text_symbol", "negative_symbol",
             "negative_mass"]
    for a in pairs:
        for b in pairs:
            if a != b:
                yield pytest.param(_csv_with((b, 6), (a, 1)), id=f"{a}-then-{b}")
    dup = list(CSV_ROWS)
    dup[6] = dup[2]
    yield pytest.param(_csv(dup), id="duplicate-row")
    dup[1] = LINE_ERRORS["float_symbol"](dup[1])
    yield pytest.param(_csv(dup), id="duplicate-after-bad")
    yield pytest.param(_csv_with(("text_symbol", 5), ("negative_mass", 0)).replace("A,B", "A,A"),
                       id="bad-row-before-bad-names")
    yield pytest.param(_csv(CSV_ROWS, "p,A,A,C"), id="duplicate-names")
    yield pytest.param(_csv(CSV_ROWS, "q,A,B,C"), id="bad-header")
    yield pytest.param(_csv([], "p"), id="header-only-p")
    yield pytest.param(_csv([]), id="no-rows")
    yield pytest.param("\n# only a comment\n\n", id="empty")
    yield pytest.param(_csv(["1/4," + ln.split(",", 1)[1] for ln in CSV_ROWS]), id="fraction-total-two")


@pytest.mark.parametrize("text", _csv_cases())
def test_load_csv_rejects_as_the_row_oracle(text):
    want = _result(oracle_load_csv, text)
    assert isinstance(want, tuple), "every input here is malformed"
    assert_same(_result(ia.load_table, text), want)


def _spaced(ln):
    return " , ".join(f"\t{tok} " for tok in ln.split(","))


@pytest.mark.parametrize("text", [
    pytest.param(_csv(CSV_ROWS), id="plain"),
    pytest.param(_csv(["1/8," + ln.split(",", 1)[1] for ln in CSV_ROWS]), id="all-fractions"),
    pytest.param(_csv([" 1/8 ," + ln.split(",", 1)[1] if k % 3 == 0 else ln
                       for k, ln in enumerate(CSV_ROWS)]), id="some-fractions"),
    pytest.param(_csv([_spaced(ln) for ln in CSV_ROWS], " p , A ,B,  C "), id="whitespace"),
    pytest.param("# lead\n\n" + _csv([ln + "\n# note\n" for ln in CSV_ROWS]), id="comments"),
    pytest.param(_csv(["0.25" + ln[5:] if k % 2 else "0" + ln[5:]
                       for k, ln in enumerate(CSV_ROWS)]), id="zero-rows"),
    pytest.param(_csv([ln[:-1] + "+1" if ln.endswith("1") else ln for ln in CSV_ROWS]), id="plus-sign"),
    pytest.param(_csv(["0.125,1_0,0,0", "0.875,٣,0,0"]), id="underscore-and-unicode-digits"),
    pytest.param(_csv(["1e-1,0,0,0", "9E-1,0,0,1"]), id="exponents"),
    # U+001F is whitespace to strip() but not to float() or int().
    pytest.param(_csv(["0.5\x1f,0\x1f,0,0", "\x1f0.5,1,\x1f0,0"]), id="unit-separator"),
])
def test_load_csv_accepts_as_the_row_oracle(text):
    assert_same(ia.load_table(text), oracle_load_csv(text))


# ---------------------------------------------------------------------------
# Seeded tables: values bit for bit, CSV bytes
# ---------------------------------------------------------------------------

SEEDED = [(n, c) for n in range(1, 7) for c in (2, 3, 4) if c**n <= 4096]


@pytest.mark.parametrize("n, card", SEEDED)
def test_random_table_is_the_row_oracle_bit_for_bit(n, card):
    seed = f"ingest:{n}:{card}"
    table = ia.random_table(seed, (card,) * n)
    assert_same(table, oracle_random_table(seed, (card,) * n))
    text = dist.dump_csv(table)
    assert text == oracle_dump_csv(table)
    assert_same(ia.load_table(text), oracle_load_csv(text))
    assert_same(ia.load_table(text), table)


@pytest.mark.parametrize("n, card", SEEDED)
def test_zero_rows_and_fraction_text_match_the_row_oracle(n, card):
    rng = random.Random(f"zeros:{n}:{card}")
    outcomes = list(product(range(card), repeat=n))
    rng.shuffle(outcomes)
    weights = [0.0 if rng.random() < 0.3 else rng.random() for _ in outcomes]
    weights[0] = 1.0  # at least one row keeps mass
    total = math.fsum(weights)
    pmf = [(o, w / total) for o, w in zip(outcomes, weights)]
    names = [f"V{i}" for i in range(n)]
    table = ia.ProbTable.from_pmf(names, pmf)
    assert_same(table, oracle_from_pmf(names, pmf))
    # Every third mass as its exact fraction, which reads back as the same float.
    lines = []
    for k, (o, p) in enumerate(pmf):
        mass = "%d/%d" % p.as_integer_ratio() if k % 3 == 0 else repr(p)
        lines.append(",".join([mass, *map(str, o)]))
    text = _csv(lines, "p," + ",".join(names))
    loaded = ia.load_table(text)
    assert_same(loaded, oracle_load_csv(text))
    assert_same(loaded, table)
    assert dist.dump_csv(loaded) == oracle_dump_csv(loaded)


@pytest.mark.parametrize("gate", ["xor", "and", "copy", "two-coins-copy", "parity(5)"])
def test_dump_csv_is_the_oracle_formatter(gate):
    table = ia.gen_gate(gate)
    assert dist.dump_csv(table) == oracle_dump_csv(table)
    joint = ia.extend_with_joint(table)
    assert dist.dump_csv(joint) == oracle_dump_csv(joint)


# ---------------------------------------------------------------------------
# Names CSV cannot carry
# ---------------------------------------------------------------------------


def _from_json(names):
    import json

    n = len(names)
    outcomes = [{"p": 0.5, "values": [v] * n} for v in (0, 1)]
    return ia.load_table(json.dumps({"variables": names, "outcomes": outcomes}))


@pytest.mark.parametrize("names, bad", [
    (["a,b", "c"], "a,b"),
    (["a", "b\nc"], "b\nc"),
    (["a", "b\rc"], "b\rc"),
    (["a", "b c"], "b c"),
    ([" A", "B"], " A"),
    (["A", "B\t"], "B\t"),
    (["A", "B\n"], "B\n"),
    (["ok", "x,y", " z"], "x,y"),
])
def test_dump_csv_refuses_names_csv_cannot_carry(names, bad):
    table = _from_json(names)
    dist.dump_json(table)  # JSON carries any name
    with pytest.raises(ia.MalformedRow) as info:
        dist.dump_csv(table)
    assert str(info.value) == f"variable name {bad!r} cannot be written to CSV"


def test_names_csv_can_carry_round_trip():
    table = _from_json(["a b", "#c", "p", "d;e"])
    assert ia.load_table(dist.dump_csv(table)) == table
