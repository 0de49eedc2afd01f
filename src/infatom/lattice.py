"""Antichains of variable indices and their inclusion order.

An :class:`Antichain` is a collection of pairwise-disjoint, non-empty
index brackets, written ``{1,2}{3}``.  Indices are 1-based everywhere an
antichain appears (they are labels, not Python positions).  Each antichain
names one intersection-of-unions term over a variable system; its number
of brackets is the term's covering number.

The order ``leq(a, b)`` holds iff every bracket of ``b`` contains some
bracket of ``a``.  Under it the all-singletons antichain is the unique
bottom element and the single full bracket is the unique top.  Each
antichain carries its brackets as int bitmasks (bit ``i - 1`` for index
``i``), built on first use or, for the lattice's elements, at
enumeration, so ``leq`` is a handful of subset tests on ints.
:meth:`Antichain.parse` builds a new antichain on every call; the
solvers' atom labels, the texts read again and again, are built once, at
import, in :mod:`infatom.decomp`.

Cover moves
-----------
Read ``a`` as the set of its disjoint bracket masks.  A *move* of ``a``
drops one mask (when there are at least two) or ORs one bit that no mask
of ``a`` holds into one mask; the result is again a set of disjoint
masks, that is, an antichain.  Every move ``c`` of ``a`` has ``a < c``,
and every ``a < b`` passes through a move: some ``c`` with
``a < c <= b``.  (If ``b`` uses a bit ``i`` that ``a`` does not, the mask
of ``b`` holding ``i`` contains a mask of ``a``: OR ``i`` into it.  Else,
if some mask of ``a`` lies in no mask of ``b``, drop it.  Else some mask
of ``b`` holds two masks of ``a``: drop either.)  Hence the covers of
``a`` are exactly its moves ``b`` such that no other move ``c`` of ``a``
has ``leq(c, b)``, which is how :class:`LatticeView` finds them (for
:attr:`~LatticeView.covers` and :meth:`~LatticeView.hasse_edges`)
without comparing all pairs.  The view keys each element by the set of
its masks as one int, bit ``m`` set for each mask ``m``, which no
ordering of the masks changes.  So each move is one XOR on the key:
dropping ``x`` is ``key ^ 1 << x``, and OR-ing ``bit`` into ``x`` is
``key ^ 1 << x ^ 1 << (x | bit)``.  ``leq`` then filters the moves in
position order.  :func:`enumerate_antichains` lists more brackets first,
then fewer indices, then by brackets; every move raises that listing key
(it drops a bracket or adds an index), so the listing is a linear
extension of the order.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import AntichainError, LatticeRangeError, _Record

#: Enumeration is capped here; the element count is Bell(n+1) - 1 and
#: explodes quickly (21146 already at n = 8).
MAX_VARIABLES = 8

Bracket = tuple[int, ...]


def _mask(bracket: Bracket) -> int:
    """Bit ``i - 1`` set for each index ``i`` of ``bracket``."""
    return sum(1 << (i - 1) for i in bracket)


class Antichain(_Record):
    """Pairwise-disjoint non-empty index brackets in canonical form.

    Canonical form sorts indices inside each bracket and brackets by
    first element.  The empty antichain (no brackets) is representable;
    it arises only as the image of :func:`lift_map` and by convention
    denotes the whole-system term.
    """

    def __init__(self, brackets: tuple[Bracket, ...]) -> None:
        seen: set[int] = set()
        for bracket in brackets:
            if not bracket:
                raise AntichainError("empty bracket")
            if not all(isinstance(i, int) and i.__class__ is not bool and i >= 1 for i in bracket):
                raise AntichainError(f"indices must be integers >= 1: {bracket!r}")
            if len(set(bracket)) != len(bracket) or seen & set(bracket):
                raise AntichainError(f"indices repeat within or across brackets: {brackets!r}")
            seen |= set(bracket)
        self.__dict__.update(brackets=brackets, _key=(brackets,))

    @classmethod
    def of(cls, *brackets: Iterable[int]) -> "Antichain":
        """Canonicalize and build; ``Antichain.of([1,2],[3])``.  An index
        repeated within or across brackets raises :class:`AntichainError`."""
        canon = tuple(sorted(tuple(sorted(b)) for b in brackets))
        return cls(canon)

    @classmethod
    def _trusted(cls, brackets: tuple[Bracket, ...], masks: tuple[int, ...]) -> "Antichain":
        """Build from brackets already canonical and disjoint, and their
        masks, checking nothing: the sorted blocks of a set partition are
        such brackets, and so is a subsequence of a built antichain's."""
        a = cls.__new__(cls)
        a.__dict__.update(brackets=brackets, _key=(brackets,), masks=masks)
        return a

    @classmethod
    def parse(cls, text: str) -> "Antichain":
        """Parse the ``{1,2}{3}`` syntax (1-based, comma-separated); bad
        text raises :class:`AntichainError`.  Nothing is memoised: each
        row text of a decomposition's JSON is parsed once per load."""
        text = text.strip()
        if text in ("", "{}"):
            return cls(())
        if not re.fullmatch(r"(\{[^{}]*\})+", text):
            raise AntichainError(f"cannot parse antichain {text!r}")
        brackets = []
        for part in re.findall(r"\{([^{}]*)\}", text):
            toks = [tok.strip() for tok in part.split(",")]
            if any(tok == "" for tok in toks):
                raise AntichainError(f"empty bracket or dangling comma in {text!r}")
            try:
                brackets.append([int(tok) for tok in toks])
            except ValueError as exc:
                raise AntichainError(f"bad bracket {{{part}}}") from exc
        return cls.of(*brackets)

    def __str__(self) -> str:
        return "{" + "}{".join([",".join(map(str, b)) for b in self.brackets]) + "}"

    @property
    def covering(self) -> int:
        """Number of brackets; the covering number of the labeled term."""
        return len(self.brackets)

    @property
    def indices(self) -> tuple[int, ...]:
        """All indices used, ascending."""
        return tuple(sorted(i for b in self.brackets for i in b))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """One int per bracket with bit ``i - 1`` set for each index ``i``.

        Built on first use and kept outside the fields, so equality,
        hash and repr see only ``brackets``."""
        return tuple(map(_mask, self.brackets))

    @property
    def is_empty(self) -> bool:
        return not self.brackets


def leq(a: Antichain, b: Antichain) -> bool:
    """Order test: every bracket of ``b`` contains some bracket of ``a``."""
    am = a.masks
    for y in b.masks:
        for x in am:
            if not x & ~y:
                break
        else:
            return False
    return True


def bottom(n: int) -> Antichain:
    """The all-singletons antichain {1}{2}...{n}."""
    return Antichain.of(*[[i] for i in range(1, n + 1)])


def top(n: int) -> Antichain:
    """The single full bracket {1,...,n}."""
    return Antichain.of(range(1, n + 1))


def _set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in _set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [[first] + partial[i]] + partial[i + 1 :]
        yield [[first]] + partial


class LatticeView(_Record):
    """All antichains over ``{1..n}`` with their order.

    ``elements`` is graded by covering (descending), then index count, then
    lexicographic, so the bottom element comes first and the top last.
    """

    def __init__(self, n: int, elements: tuple[Antichain, ...]) -> None:
        # _index: each element's position, keyed by the set of its masks as
        # one int (bit m for mask m); _cover_positions reads the keys in order.
        # _tables: parthood tables by label tuple, kept by decomp._parthood().
        self.__dict__.update(n=n, elements=elements, _key=(n, elements), _tables={},
                             _index={sum(1 << m for m in a.masks): p
                                     for p, a in enumerate(elements)})

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, a: Antichain) -> int:
        return self._index[sum(1 << m for m in a.masks)]

    def _cover_positions(self) -> tuple[tuple[int, ...], ...]:
        """Positions of each element's upper covers, ascending, by position:
        its moves that lie above no other move (see the module docstring).
        Each move is one XOR on the element's :attr:`_index` key, placed
        through that index; the moves are then tested with :func:`leq` in
        position order, each against the moves before it, up to the first
        one below it.  :attr:`elements` is a linear extension of the order,
        so only moves earlier in it can lie below a move."""
        elements = self.elements
        index = self._index
        full = (1 << self.n) - 1
        covers = []
        for key, a in zip(index, elements):
            masks = a.masks
            free = full ^ sum(masks)  # disjoint masks: the sum is their OR
            bits = [1 << i for i in range(self.n) if free >> i & 1]
            ups = [index[key ^ 1 << x] for x in masks] if len(masks) > 1 else []
            ups += [index[key ^ 1 << x ^ 1 << (x | bit)] for x in masks for bit in bits]
            ups.sort()
            above = [elements[p] for p in ups]
            kept = []
            for p, b in zip(ups, above):
                for c in above:
                    if c is b:
                        kept.append(p)
                        break
                    if leq(c, b):
                        break
            covers.append(tuple(kept))
        return tuple(covers)

    def hasse_edges(self) -> list[tuple[Antichain, Antichain]]:
        """Cover pairs (a, b), a < b with nothing strictly between, sorted by
        the positions of a, then b; rebuilt on every call."""
        elements = self.elements
        return [(a, elements[p]) for a, ups in zip(elements, self._cover_positions()) for p in ups]

    @cached_property
    def covers(self) -> tuple[tuple[int, ...], ...]:
        """:meth:`_cover_positions`, built once per view.  Positions, not
        up-set masks, are kept: at n = 8 the masks would be about 30 times
        larger.  Not a field, so equality, hash and repr see only ``n``
        and ``elements``."""
        return self._cover_positions()

    @cached_property
    def lifts(self) -> tuple[int, ...]:
        """Position of each element's :func:`lift_map` image in the view over
        ``n - 1``, the top's (the last) for the empty image; built once per
        view, like :attr:`covers`, for ``n >= 2``.  The masks not holding bit
        ``n - 1`` are the image's, so no image is built: their key is the
        element's :attr:`_index` key without the others' bits."""
        below = enumerate_antichains(self.n - 1)
        position = below._index.get
        whole = len(below) - 1
        bit = 1 << (self.n - 1)
        return tuple(position(sum(1 << m for m in a.masks if not m & bit), whole)
                     for a in self.elements)


@lru_cache(maxsize=None, typed=True)
def enumerate_antichains(n: int) -> LatticeView:
    """Every antichain over ``{1..n}``, from the partitions of ``{1..n+1}``.

    Dropping the block that holds ``n + 1`` (the cut of :func:`lift_map`)
    maps the partitions one to one onto the antichains over ``{1..n}``;
    the one-block partition gives the empty antichain, which is left out.
    Counts run Bell(n+1) - 1 = 1, 4, 14, 51, 202, ... for n = 1, 2, 3, 4, 5.
    ``n`` must be an ``int``: the memo keys each type apart, so ``True``
    or ``2.0`` is refused, never read as the view of 1 or 2.
    """
    if n.__class__ is not int or n < 1 or n > MAX_VARIABLES:
        raise LatticeRangeError(f"n must be an integer in [1, {MAX_VARIABLES}], got {n!r}")
    keyed = []
    for blocks in _set_partitions(range(1, n + 2)):
        # Blocks are ascending and disjoint, so sorted they are canonical.
        brackets = tuple(sorted(tuple(b) for b in blocks if n + 1 not in b))
        if brackets:
            keyed.append((-len(brackets), sum(map(len, brackets)), brackets))
    keyed.sort()  # the listing key of the module docstring
    return LatticeView(n, tuple(Antichain._trusted(b, tuple(map(_mask, b))) for *_, b in keyed))


def lift_map(a: Antichain, extended_n: int) -> Antichain:
    """Drop every bracket containing the added index ``extended_n``.

    Used when a system over ``n = extended_n - 1`` variables is extended
    by their joint: the term labeled by ``a`` over the extended system
    equals the term labeled by the image over the original one.  The
    image may be the empty antichain, which denotes the whole-system
    term (the top antichain's row in any parthood table).
    """
    # Brackets are sorted, so each one's last index is its largest.
    if any(b[-1] > extended_n for b in a.brackets):
        raise AntichainError(f"{a} uses indices beyond n+1 = {extended_n}")
    kept = [b for b in a.brackets if extended_n not in b]
    return Antichain.of(*kept)
