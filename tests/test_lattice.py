from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import infatom as ia
from infatom.lattice import (
    MAX_VARIABLES,
    Antichain,
    bottom,
    enumerate_antichains,
    leq,
    lift_map,
    top,
)

from _oracles import brute_leq, oracle_covers


# ---------------------------------------------------------------------------
# Antichain type
# ---------------------------------------------------------------------------


def test_canonical_form_is_order_insensitive():
    a = Antichain.of([3, 1], [2])
    b = Antichain.of([2], [1, 3])
    assert a == b
    assert str(a) == "{1,3}{2}"
    assert a.covering == 2
    assert a.indices == (1, 2, 3)


def test_parse_and_str_roundtrip():
    for text in ("{1}", "{1}{2}", "{1,2}{3}", "{1,2,3}", "{1}{2}{3}"):
        assert str(Antichain.parse(text)) == text
    assert Antichain.parse(" {2} {1,3} ".replace(" ", "")) == Antichain.of([1, 3], [2])


def test_parse_rejects_garbage():
    for text in ("", "{}", "{1}{", "1,2", "{1,}", "{a}", "{1}{1}"):
        if text in ("", "{}"):
            assert Antichain.parse(text).is_empty
            continue
        with pytest.raises(ia.AntichainError):
            Antichain.parse(text)


@given(st.text("{},0123456789", max_size=16))
@settings(max_examples=300)
def test_parse_round_trips_or_raises_on_every_call(text):
    try:
        got = Antichain.parse(text)
    except ia.AntichainError:
        for _ in range(2):  # a bad text raises on every call
            with pytest.raises(ia.AntichainError):
                Antichain.parse(text)
        return
    again = Antichain.parse(str(got))
    assert again == got and str(again) == str(got)


def test_overlapping_brackets_rejected():
    with pytest.raises(ia.AntichainError):
        Antichain.of([1, 2], [2, 3])
    with pytest.raises(ia.AntichainError):
        Antichain.of([1], [])


@pytest.mark.parametrize(
    "build",
    [lambda: Antichain(((True,), (2,))), lambda: Antichain.of([True], [2]),
     lambda: Antichain.of([2, True])],
    ids=["init", "of", "of-in-a-bracket"],
)
def test_bool_indices_rejected(build):
    # True equals and hashes as 1, so a set label built over {True}{2} would
    # be found by every later {1}{2} lookup, and print as {True}{2}.
    for _ in range(2):
        with pytest.raises(ia.AntichainError, match="integers"):
            ia.AtomLabel.set_theoretic(build())
    d = ia.solve_trivariate(ia.xor_gate())
    assert [c.text for c in d.table.cols] == [
        "{1}{2}{3}", "Pi_s", "{1}{2}", "{1}{3}", "{2}{3}", "{1}", "{2}", "{3}", "Pi_g"]
    assert ia.decomposition_from_json(ia.decomposition_to_json(d)) == d


def test_repeated_index_within_a_bracket_rejected():
    for build in (lambda: Antichain.parse("{1,1}{2}"), lambda: Antichain.of([1, 1], [2])):
        for _ in range(2):  # parse errors are not cached
            with pytest.raises(ia.AntichainError, match="within or across brackets"):
                build()


def test_covering_examples():
    assert Antichain.of([1, 2], [3]).covering == 2
    assert Antichain.of([1, 2, 3]).covering == 1
    assert Antichain.of([1], [2], [3]).covering == 3


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumeration_counts():
    assert [len(enumerate_antichains(n)) for n in (1, 2, 3, 4, 5)] == [1, 4, 14, 51, 202]


def test_enumeration_n1_and_n2():
    assert [str(a) for a in enumerate_antichains(1).elements] == ["{1}"]
    assert set(str(a) for a in enumerate_antichains(2).elements) == {
        "{1}",
        "{2}",
        "{1,2}",
        "{1}{2}",
    }


def test_enumeration_n3_exact_set():
    expected = {
        "{1}{2}{3}",
        "{1}{2}",
        "{1}{3}",
        "{2}{3}",
        "{1,2}{3}",
        "{1,3}{2}",
        "{1}{2,3}",
        "{1}",
        "{2}",
        "{3}",
        "{1,2}",
        "{1,3}",
        "{2,3}",
        "{1,2,3}",
    }
    assert {str(a) for a in enumerate_antichains(3).elements} == expected


def test_enumeration_is_graded_bottom_first():
    view = enumerate_antichains(3)
    assert view.elements[0] == bottom(3)
    assert view.elements[-1] == top(3)
    coverings = [a.covering for a in view.elements]
    assert coverings == sorted(coverings, reverse=True)


@pytest.mark.parametrize("n", range(1, MAX_VARIABLES + 1))
def test_enumeration_builds_checked_elements_in_listing_order(n):
    # The elements are built unchecked, with masks preset; each must equal
    # its checked copy.  The listing key (more brackets, then fewer indices,
    # then brackets) makes the listing a linear extension of the order.
    elements = enumerate_antichains(n).elements
    for a in elements:
        checked = Antichain.of(*a.brackets)
        assert a == checked and vars(a)["masks"] == checked.masks
    keys = [(-a.covering, len(a.indices), a.brackets) for a in elements]
    assert keys == sorted(set(keys))


def test_enumeration_rejects_out_of_range():
    with pytest.raises(ia.LatticeRangeError):
        enumerate_antichains(0)
    with pytest.raises(ia.LatticeRangeError):
        enumerate_antichains(9)


@pytest.mark.parametrize("n", [True, 1.0, 2.0, 2.5, "2", None])
def test_enumeration_refuses_what_is_not_an_int(n):
    # The views of 1 and 2 are built first: a value equal to 1 or 2 must
    # not read them from the memo.
    enumerate_antichains(1), enumerate_antichains(2)
    with pytest.raises(ia.LatticeRangeError, match="must be an integer"):
        enumerate_antichains(n)


# ---------------------------------------------------------------------------
# Order
# ---------------------------------------------------------------------------


def test_leq_examples():
    assert leq(Antichain.of([1], [2], [3]), Antichain.of([1, 2], [3]))
    assert leq(Antichain.of([1], [2]), Antichain.of([1, 2]))
    assert not leq(Antichain.of([1, 2]), Antichain.of([1], [2]))
    a = Antichain.of([1, 3], [2])
    assert leq(a, a)


def test_leq_agrees_with_bruteforce_up_to_n4():
    for n in (1, 2, 3, 4):
        elements = enumerate_antichains(n).elements
        for a in elements:
            for b in elements:
                assert leq(a, b) == brute_leq(a.brackets, b.brackets), (a, b)


def test_order_is_reflexive_antisymmetric_transitive_n3():
    elements = enumerate_antichains(3).elements
    m = {(a, b): leq(a, b) for a in elements for b in elements}
    for a in elements:
        assert m[(a, a)]
        for b in elements:
            if m[(a, b)] and m[(b, a)]:
                assert a == b
            for c in elements:
                if m[(a, b)] and m[(b, c)]:
                    assert m[(a, c)]


def test_bottom_and_top_are_universal_bounds():
    for n in (2, 3, 4):
        for a in enumerate_antichains(n).elements:
            assert leq(bottom(n), a)
            assert leq(a, top(n))


def test_hasse_edges_have_unique_source_and_sink():
    for n in (2, 3):
        view = enumerate_antichains(n)
        edges = view.hasse_edges()
        sources = {str(a) for a in view.elements} - {str(b) for _, b in edges}
        sinks = {str(a) for a in view.elements} - {str(a) for a, _ in edges}
        assert sources == {str(bottom(n))}
        assert sinks == {str(top(n))}


def _is_move(a: Antichain, b: Antichain) -> bool:
    """``b`` drops one bracket of ``a`` (which has two or more), or adds
    one index unused by ``a`` to one bracket of ``a``."""
    low = {frozenset(x) for x in a.brackets}
    high = {frozenset(x) for x in b.brackets}
    if len(low) >= 2 and high < low and len(high) == len(low) - 1:
        return True
    gone, new = low - high, high - low
    if len(gone) != 1 or len(new) != 1 or len(low) != len(high):
        return False
    (old_bracket,), (new_bracket,) = gone, new
    added = new_bracket - old_bracket
    used = set().union(*low)
    return old_bracket < new_bracket and len(added) == 1 and not added & used


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hasse_edges_match_brute_force_covers(n):
    view = enumerate_antichains(n)
    elements = view.elements
    ups = {
        a: [b for b in elements if b != a and brute_leq(a.brackets, b.brackets)]
        for a in elements
    }
    expected = [
        (a, b)
        for a in elements
        for b in ups[a]
        if not any(brute_leq(c.brackets, b.brackets) for c in ups[a] if c != b)
    ]
    edges = view.hasse_edges()
    assert edges == expected
    assert all(_is_move(a, b) for a, b in edges)
    cover_pairs = set(expected)
    assert view.covers == tuple(
        tuple(view.index(b) for b in ups[a] if (a, b) in cover_pairs) for a in elements
    )


@pytest.mark.parametrize("n", range(1, MAX_VARIABLES + 1))
def test_covers_match_the_closed_form_rule(n):
    # Beyond n = 5, where the brute-force test stops, this reaches adds
    # whose new bracket moves ahead of others in canonical order.
    view = enumerate_antichains(n)
    blocks = [frozenset(frozenset(b) for b in a.brackets) for a in view.elements]
    for a, ups in zip(view.elements, view.covers):
        assert list(ups) == sorted(set(ups)), a
        assert {blocks[p] for p in ups} == oracle_covers(a.brackets, n), a


def test_masks_stay_out_of_eq_hash_and_repr():
    a = Antichain.of([1, 3], [2])
    b = Antichain.of([2], [1, 3])
    assert a.masks == (0b101, 0b010)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert repr(a) == "Antichain(brackets=((1, 3), (2,)))"


# ---------------------------------------------------------------------------
# Lift map
# ---------------------------------------------------------------------------


def test_lift_map_examples():
    assert lift_map(Antichain.of([1, 2], [4]), 4) == Antichain.of([1, 2])
    assert lift_map(Antichain.of([1, 2, 3]), 4) == Antichain.of([1, 2, 3])
    assert lift_map(Antichain.of([4]), 4).is_empty


def test_lift_map_covering_relation():
    # Dropping the new index's bracket lowers the covering by exactly one,
    # and leaves it unchanged when the index does not appear.
    for a in enumerate_antichains(4).elements:
        image = lift_map(a, 4)
        touches = any(4 in b for b in a.brackets)
        assert a.covering == image.covering + (1 if touches else 0)


def test_lift_map_is_onto_the_smaller_lattice():
    images = {lift_map(a, 4) for a in enumerate_antichains(4).elements}
    smaller = set(enumerate_antichains(3).elements)
    assert smaller <= images


@pytest.mark.parametrize("n", range(2, MAX_VARIABLES + 1))
def test_lift_table_holds_the_lift_map_image_positions(n):
    below = enumerate_antichains(n - 1)
    expected = []
    for a in enumerate_antichains(n).elements:
        image = lift_map(a, n)
        expected.append(len(below) - 1 if image.is_empty else below.index(image))
    assert enumerate_antichains(n).lifts == tuple(expected)
    assert below.elements[-1] == top(n - 1)


def test_lift_map_range_check():
    with pytest.raises(ia.AntichainError):
        lift_map(Antichain.of([5]), 4)


def test_permuting_variables_preserves_covering():
    # Relabeling indices by any permutation keeps the bracket count.
    for a in enumerate_antichains(3).elements:
        for perm in permutations((1, 2, 3)):
            relabeled = Antichain.of(*[[perm[i - 1] for i in b] for b in a.brackets])
            assert relabeled.covering == a.covering
