"""Exception types shared across the toolkit."""

from __future__ import annotations


class SplitMWError(Exception):
    """Base class for all toolkit errors."""


class InputError(SplitMWError, ValueError):
    """Input from outside the program is malformed: a wrong shape, a value
    of the wrong type, or a repeated element or basis."""


def require_int(name: str, value) -> None:
    """Raise InputError unless value is an exact int.  bool is an int
    subclass, and JSON true/false must not pass as 1/0."""
    if type(value) is not int:
        raise InputError(f"{name} must be an integer, got {value!r}")


def require_record(d, fmt: str, keys: tuple[str, ...]) -> None:
    """Raise InputError unless d is a JSON object with format tag `fmt`
    that holds every one of `keys`."""
    if not isinstance(d, dict):
        raise InputError(f"expected a JSON object, got {type(d).__name__}")
    if d.get("format") != fmt:
        raise InputError(f"not a {fmt} record: {d.get('format')!r}")
    for key in keys:
        if key not in d:
            raise InputError(f"{fmt} record has no {key!r}")


class EmptyBasesError(SplitMWError):
    """A matroid was given an empty basis family."""


class WrongBasisSizeError(SplitMWError):
    """A claimed basis does not have exactly `rank` elements."""


class ExchangeViolationError(SplitMWError):
    """The basis exchange axiom fails; carries a concrete witness."""

    def __init__(self, basis1, basis2, element):
        self.basis1 = tuple(basis1)
        self.basis2 = tuple(basis2)
        self.element = element
        super().__init__(
            f"exchange fails for B1={self.basis1}, B2={self.basis2}, "
            f"e={element}: no f in B2\\B1 makes (B1\\{{e}})|{{f}} a basis"
        )


class LimitExceededError(SplitMWError):
    """Input is larger than the size limit of the work asked for."""


# The one table of size limits: the largest input each kind of work takes
# (ground-set elements n for matroids, edges for the graph counts, bases and
# their bits for the matroid builders), and the bytes the deletion-contraction
# memo may hold before it evicts.
SIZE_LIMITS = {
    # 2^n-bit tables: the independent sets and rank levels, the subset-sum
    # engine, cyclic flats and is_split
    "tables": 20,
    "deletion-contraction": 24,
    # every trace node keeps its record alive, and the dump writes each
    # shared subtree in full: a sparse paving (8,18) trace and its dump peak
    # at 82 MB (126 MB while each node also kept its matroid and columns)
    "trace": 16,
    # brute force over edge subsets: graphic() and count_spanning_trees
    "spanning-forests": 20,
    # brute force over all 2^m orientations
    "orientations": 15,
    # uniform, minimal and rank2_from_partition: C(24,12), the most bases a
    # matroid on the deletion-contraction limit's 24 elements can have
    "bases": 2_704_156,
    # bases times n, the bits those builders fill: C(24,12) * 24, so a
    # count inside the "bases" limit cannot come on a huge ground set
    "basis-bits": 64_899_744,
    # the bytes `tutte.TutteMemo` holds, by its own count, before it evicts
    "memo-bytes": 64 << 20,
}


def check_size(work: str, size: int) -> None:
    """Raise LimitExceededError if `size` is past the limit for `work`."""
    limit = SIZE_LIMITS[work]
    if size > limit:
        raise LimitExceededError(f"size {size} exceeds the {work} limit {limit}")


class NotCleanInputError(SplitMWError):
    """The operation requires a loopless and coloopless matroid."""


class LoopsPresentError(NotCleanInputError):
    def __init__(self, elements):
        self.elements = tuple(elements)
        super().__init__(f"matroid has loops at elements {self.elements}")


class ColoopsPresentError(NotCleanInputError):
    def __init__(self, elements):
        self.elements = tuple(elements)
        super().__init__(f"matroid has coloops at elements {self.elements}")


class EngineMismatchError(SplitMWError):
    """A Tutte polynomial fails a check that every right one passes: the
    two engines disagree, or T(1,1) is not the basis count or T(2,2) is
    not 2^n, identities that no code the engines share can fake."""


class NotSplitError(SplitMWError):
    """The matroid is not a split matroid."""


class ClassificationFailureError(SplitMWError):
    """A connected split matroid with no clean pivot matched no base case.

    This would refute the base-case classification the tracer relies on,
    so the offending matroid is attached in full.
    """

    def __init__(self, matroid):
        self.matroid = matroid
        super().__init__(f"no base case matched: n={matroid.n} "
                         f"rank={matroid.rank} bases={sorted(matroid.bases)}")
