"""Exception hierarchy for the infatom package.

Errors fall into two families that the CLI maps onto exit codes:

* input-contract violations (bad files, bad selections, bad flags) are
  ``ValueError`` subclasses and exit with status 2;
* mathematical outcomes (an infeasible redundancy value, a distribution
  that admits no distributive decomposition, a failed validation) are
  plain ``InfatomError`` subclasses and exit with status 1.

It also holds :class:`_Record`, the immutable value base of the package's
record classes (``ProbTable``, ``Antichain``, ``Decomposition`` and the
rest): every layer imports this module already, and the base spares each
CLI process the ``dataclasses`` import (with ``inspect``) and the class
builds that ``@dataclass`` costs.  And it holds :func:`_integer`, the
one reading of an integer argument that the layers share.
"""

from __future__ import annotations

from operator import index


class InfatomError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Input-contract violations (CLI exit code 2)
# ---------------------------------------------------------------------------


class TableError(InfatomError, ValueError):
    """A distribution table violates the input contract."""


class MalformedRow(TableError):
    """A table row cannot be parsed or has the wrong number of fields."""


class DuplicateOutcome(TableError):
    """The same outcome tuple appears more than once."""


class NegativeProbability(TableError):
    """A probability entry is negative."""


class TotalMassInvalid(TableError):
    """Total probability mass is not 1 within tolerance."""


class VariableSetError(InfatomError, ValueError):
    """A variable selection is empty, overlapping or out of range."""


class GateSpecError(InfatomError, ValueError):
    """A gate specification string cannot be interpreted."""


class LatticeRangeError(InfatomError, ValueError):
    """Requested variable count is outside the supported range."""


class AntichainError(InfatomError, ValueError):
    """Brackets are empty, overlapping, or the text form cannot be parsed."""


class WrongArity(InfatomError, ValueError):
    """An operation received a table with the wrong number of variables."""


class LabelError(InfatomError, ValueError):
    """An atom label cannot be parsed or is not a valid label."""


class DecompositionFormatError(InfatomError, ValueError):
    """A serialized decomposition does not match the expected schema."""


class RedundancyValueError(InfatomError, ValueError):
    """A redundancy value is not a finite real number (a bool is not one)."""


# ---------------------------------------------------------------------------
# Mathematical outcomes (CLI exit code 1)
# ---------------------------------------------------------------------------


class InfeasibleRedundancy(InfatomError):
    """A requested redundancy value lies outside the feasible interval."""


class NegativeAtomSize(InfatomError):
    """A solved atom came out negative beyond tolerance."""


class NotSetTheoretic(InfatomError):
    """The distribution admits no distributive (all non-negative) solution.

    ``negatives`` lists ``(label_text, size)`` for every offending atom.
    """

    def __init__(self, negatives: list[tuple[str, float]]):
        self.negatives = list(negatives)
        listing = ", ".join(f"{t} = {v:.9f}" for t, v in self.negatives)
        super().__init__(f"negative atoms: {listing}")


class ValidationFailed(InfatomError):
    """A decomposition failed validation against its distribution."""

    def __init__(self, report):
        self.report = report
        failed = [c.name for c in report.checks if not c.passed]
        super().__init__("failed checks: " + ", ".join(failed))


# ---------------------------------------------------------------------------
# Record base
# ---------------------------------------------------------------------------


def _integer(value) -> int | None:
    """``value`` as an int, or None for a bool or any value that
    :func:`operator.index` refuses, such as ``2.0`` or ``"2"``: an integer
    argument is neither truncated, as ``int()`` would, nor read from a
    bool.  Each caller raises its own layer's error for None."""
    if value.__class__ is not bool:
        try:
            return index(value)
        except TypeError:
            pass
    return None


class _Record:
    """Immutable value with equality, hash and repr read from ``_key``.

    A subclass's ``__init__`` declares the fields as its parameters and
    stores them, with ``_key`` (the tuple of their values in that order)
    and any memos, straight into ``__dict__`` with one keyword ``update``.
    Storing them item by item (``d["a"], d["_key"] = a, (a,)``) builds a
    record about 30% faster, but on CPython 3.11 attribute reads of such
    a record are 2-3 times slower, and records are read far more often
    than they are built.  Only
    instances of the same class compare equal, ``hash(x)`` is
    ``hash(x._key)``, and memos stay out of all three."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        code = type(self).__init__.__code__
        fields = zip(code.co_varnames[1 : code.co_argcount], self._key)
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
