"""Exact Tutte polynomial computation.

Two independent engines cross-check each other:

  * `tutte_subset_sum` -- the corank-nullity expansion
        T(x,y) = sum over A of (x-1)^(r(E)-r(A)) * (y-1)^(|A|-r(A)),
    evaluated from the Whitney numbers, counted over the simplification's
    n' elements (`Matroid.simplification`): one byte per basis, n' passes
    over 2^n'-bit ints, n' more per rank level from the girth g up, then,
    per rank from g-1 to r-1, one bit count per subset size it holds in each
    of 2^q blocks, one per set of the q classes of two or more; the other
    ranks are binomials.
  * `tutte_dc` -- deletion-contraction with eager loop/coloop stripping,
    a closed form for uniform minors and one for sparse paving roots (both
    checked at the root before a single mask is packed), and an LRU memo,
    bounded by the "memo-bytes" size limit, keyed on the sorted slots of
    the bases (see `bitset`).  A root with more bases than non-bases (the
    k-sets that are no bases) reads its non-bases N; if no two of them
    share k-1 elements, it is sparse paving, N its circuit-hyperplanes, and
    relaxing each one adds x + y - xy (Brylawski), so T is
    T(U(k,n)) + |N|*(xy - x - y).  Each call relabels any other root once,
    by (degree, index) (`_canonical`), and every node below inherits that
    labeling, so equal minors coalesce in the memo and no node sorts.  The
    pivot is always element n-1, at the root one of highest degree: a
    node's sorted slots split at 2^(n-1) into its two children
    (`_children`).  A node with at most max(C(n-1,k), C(n-1,k-1)) bases
    reads its n columns for its loops and coloops, empty and full columns.
    So a node costs O(n) whole-int operations on its |B| slots, with no
    loop over each mask's bits.  Inside the recursion a polynomial is one
    int (Kronecker substitution, see `_pack`): the children's sum is one
    addition, a loop or coloop factor one shift, and `tutte_dc` unpacks
    the root's once.

All coefficients are Python ints, so arithmetic is exact at any size.
Coefficient matrices are indexed coeffs[i][j] = coefficient of x^i y^j and
always have shape (rank+1) x (corank+1) of the source matroid.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from functools import lru_cache
from itertools import chain
from math import comb

from .bitset import (bits, column_view, columns, k_subsets, low_slots, place,
                     popcount_classes, slot_ones, slot_width, to_slots, unpack)
from .errors import (SIZE_LIMITS, InputError, LimitExceededError, check_size,
                     require_int, require_record)
from .matroid import Matroid


class TuttePolynomial:
    """Dense matrix of nonnegative integer coefficients of x^i y^j."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        rows = tuple(map(tuple, coeffs))
        if not rows or not rows[0]:
            raise ValueError("coefficient matrix must be at least 1x1")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("coefficient matrix must be rectangular")
            for c in row:
                require_int("coefficient", c)
                if c < 0:
                    raise ValueError("Tutte coefficients are nonnegative")
        object.__setattr__(self, "coeffs", rows)

    @classmethod
    def _of(cls, rows: tuple) -> TuttePolynomial:
        """Wrap a tuple of equal-length tuples of nonnegative ints without
        checking it again."""
        t = object.__new__(cls)
        object.__setattr__(t, "coeffs", rows)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("TuttePolynomial instances are immutable")

    @property
    def x_degree_bound(self) -> int:
        return len(self.coeffs) - 1

    @property
    def y_degree_bound(self) -> int:
        return len(self.coeffs[0]) - 1

    def __eq__(self, other):
        if not isinstance(other, TuttePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = []
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c:
                    terms.append(f"{c}*x^{i}*y^{j}")
        return "TuttePolynomial(" + (" + ".join(terms) or "0") + ")"

    def evaluate(self, x: int, y: int) -> int:
        """Exact integer evaluation, with 0^0 = 1."""
        total = 0
        xp = 1
        for row in self.coeffs:
            yp = 1
            acc = 0
            for c in row:
                acc += c * yp
                yp *= y
            total += acc * xp
            xp *= x
        return total

    def transpose(self) -> TuttePolynomial:
        return TuttePolynomial(tuple(zip(*self.coeffs)))

    def __mul__(self, other):
        if not isinstance(other, TuttePolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        nr = len(a) + len(b) - 1
        nc = len(a[0]) + len(b[0]) - 1
        out = [[0] * nc for _ in range(nr)]
        for i, arow in enumerate(a):
            for j, c in enumerate(arow):
                if not c:
                    continue
                for k, brow in enumerate(b):
                    orow = out[i + k]
                    for m, d in enumerate(brow):
                        if d:
                            orow[j + m] += c * d
        return TuttePolynomial(out)

    def to_dict(self) -> dict:
        """tutte-v1 record; coefficients as decimal strings."""
        return {"format": "tutte-v1",
                "rank": self.x_degree_bound,
                "corank": self.y_degree_bound,
                "coeffs": [[str(c) for c in row] for row in self.coeffs]}


def tutte_from_dict(d: dict) -> TuttePolynomial:
    """Parse a tutte-v1 record as `to_dict` writes it: exact ints for rank
    and corank, and a rectangular matrix of ASCII decimal-digit strings of
    their shape.  Raises InputError on anything else."""
    require_record(d, "tutte-v1", ("rank", "corank", "coeffs"))
    require_int("rank", d["rank"])
    require_int("corank", d["corank"])
    rows = d["coeffs"]
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise InputError("'coeffs' must be a list of lists of decimal strings")
    for c in chain.from_iterable(rows):
        if not (isinstance(c, str) and c.isascii() and c.isdigit()):
            raise InputError(f"coefficient {c!r} is not a decimal-digit string")
    try:
        t = TuttePolynomial([[int(c) for c in row] for row in rows])
    except ValueError as exc:
        raise InputError(f"tutte-v1 coefficients: {exc}") from None
    if (t.x_degree_bound, t.y_degree_bound) != (d["rank"], d["corank"]):
        raise InputError("tutte-v1 rank/corank fields disagree with matrix shape")
    return t


# -- reference engine: corank-nullity subset sum ---------------------------

def whitney_numbers(m: Matroid) -> list[list[int]]:
    """w[a][b] = number of subsets with corank deficit a and nullity b.

    A subset of rank k is a rank-k set S of the simplification si, a
    nonempty part of the class of each element of S, and any loops.  So
    its rank-k subsets by size are, summed over the blocks of si's rank-k
    level, one per set T of big classes (on top), the block's counts by
    size times prod over T of ((1+z)^p - 1), times (1+z)^loops: ints of
    (n+1)-bit fields in z, as no count reaches 2^n.  Rows whose rank-k sets
    are si's k-sets (k <= girth-2) are binomials; rank r takes the rest."""
    check_size("tables", m.n)
    si, classes = m.simplification()
    sizes = [c.bit_count() for c in classes]
    r, n, low, field = m.rank, m.n, sizes.count(1), m.n + 1
    one_z, mask = 1 + (1 << field), (1 << field) - 1
    weights = [(0, one_z ** (n - sum(sizes)))]      # (|T|, weight) per T
    for p in sizes[low:]:
        weights += [(t + 1, w * (one_z ** p - 1)) for t, w in weights]
    uniform = si.is_uniform()
    if not uniform:
        levels, pop = si.rank_levels(), popcount_classes(si.n)
        block = (1 << (1 << low)) - 1
    rows, rest = [], one_z ** n
    for k in range(r):
        if uniform or (exact := levels[k] ^ levels[k + 1]) == pop[k]:
            total = sum((comb(low, k - t) << field * (k - t)) * w
                        for t, w in weights if t <= k)
        else:
            total = 0
            for t, w in weights:
                part, exact = exact & block, exact >> (1 << low)
                left, s, counts = part.bit_count(), max(k - t, 0), 0
                while left:     # by size, up to the largest that part holds
                    c = (part & pop[s]).bit_count()
                    counts, left, s = counts + (c << field * s), left - c, s + 1
                total += counts * w
        rows.append(total >> field * k)
        rest -= total
    rows.append(rest >> field * r)
    return [[row >> field * b & mask for b in range(n - r + 1)] for row in rows[::-1]]


def _from_whitney(whitney: list[list[int]]) -> TuttePolynomial:
    """T = sum of w[a][b] * (x-1)^a * (y-1)^b, by Horner's rule one axis at
    a time, on one int: T at y = 2^F and x = 2^(F*(c+1)), c the corank,
    whose F-bit digits are T's coefficients, each at most T(1,1) = w[0][0]
    < 2^F."""
    field, total = whitney[0][0].bit_length(), 0
    row, mask = field * len(whitney[0]), (1 << field) - 1
    for ws in reversed(whitney):
        across = 0
        for w in reversed(ws):
            across = (across << field) - across + w
        total = (total << row) - total + across
    return TuttePolynomial._of(tuple([
        tuple([total >> i + j & mask for j in range(0, row, field)])
        for i in range(0, row * len(whitney), row)]))


def tutte_subset_sum(m: Matroid) -> TuttePolynomial:
    """T by the corank-nullity sum, up to the "tables" size limit."""
    return _from_whitney(whitney_numbers(m))


# -- deletion-contraction engine -------------------------------------------

# A polynomial inside `_dc` is one int, with the coefficient of x^i y^j in
# the _FIELD-bit field at index i*_STRIDE + j.  No field carries: each
# coefficient of T(M) is at most T(1,1), the number of bases, at most
# C(L, L//2) for L the deletion-contraction limit, and a node's children
# sum to it field by field; j is at most the corank, at most L.  Both are
# fixed at import, so `tutte_dc` refuses ground sets past that L.
_FIELD = comb(SIZE_LIMITS["deletion-contraction"],
              SIZE_LIMITS["deletion-contraction"] // 2).bit_length()
_STRIDE = SIZE_LIMITS["deletion-contraction"] + 1
# xy - x - y, packed: T(M) less T(M with one circuit-hyperplane relaxed)
_RELAXED = (1 << _FIELD * (_STRIDE + 1)) - (1 << _FIELD * _STRIDE) - (1 << _FIELD)


def _pack(t: TuttePolynomial) -> int:
    """t as one int of _FIELD-bit fields, x^i y^j at field i*_STRIDE + j."""
    packed = 0
    for i, row in enumerate(t.coeffs):
        for j, c in enumerate(row):
            packed |= c << _FIELD * (i * _STRIDE + j)
    return packed


def _unpack(packed: int, rank: int, corank: int) -> TuttePolynomial:
    """The (rank+1) x (corank+1) polynomial that `_pack` made `packed`."""
    field, width = (1 << _FIELD) - 1, _FIELD * _STRIDE
    cells = range(0, _FIELD * (corank + 1), _FIELD)
    rows = []
    for _ in range(rank + 1):
        rows.append(tuple([packed >> j & field for j in cells]))
        packed >>= width
    return TuttePolynomial._of(tuple(rows))


# What sys.getsizeof measures of a memo entry's parts (`TutteMemo`): a pair
# and an empty byte string; an int's header and each digit, and 0
_KEY_BYTES = sys.getsizeof((0, b"")) + sys.getsizeof(b"")
_DIGIT_BITS, _DIGIT_BYTES = sys.int_info.bits_per_digit, sys.int_info.sizeof_digit
_INT_HEAD, _ZERO_BYTES = sys.getsizeof(1) - _DIGIT_BYTES, sys.getsizeof(0)


class TutteMemo:
    """LRU memo shared across recursions, bounded by the "memo-bytes" size
    limit.  A key is (n, the sorted slots of the bases) of a matroid with
    no loop or coloop, exact, so only equal families share an entry.
    Entries are packed polynomials (`_pack`), immutable ints, returned as
    they are.

    Each entry is charged what `sys.getsizeof` measures of its key pair,
    the key's byte string and its packed polynomial, by arithmetic on sizes
    read once (`_entry_cost`); the memo's own hash table is not charged."""

    def __init__(self):
        self._data: OrderedDict = OrderedDict()
        self._bytes = 0

    @staticmethod
    def _entry_cost(key, packed: int) -> int:
        digits = -(-packed.bit_length() // _DIGIT_BITS)
        return _KEY_BYTES + len(key[1]) + max(_ZERO_BYTES, _INT_HEAD + _DIGIT_BYTES * digits)

    def get(self, key):
        val = self._data.get(key)
        if val is not None:
            self._data.move_to_end(key)
        return val

    def put(self, key, packed: int):
        if key in self._data:
            return
        self._data[key] = packed
        self._bytes += self._entry_cost(key, packed)
        limit = SIZE_LIMITS["memo-bytes"]
        # keep at least one entry so progress is visible
        while self._bytes > limit and len(self._data) > 1:
            old_key, old_val = self._data.popitem(last=False)
            self._bytes -= self._entry_cost(old_key, old_val)

    def clear(self):
        self._data.clear()
        self._bytes = 0

    def __len__(self):
        return len(self._data)


_global_memo = TutteMemo()


@lru_cache(maxsize=None)
def _uniform_tutte(k: int, n: int) -> TuttePolynomial:
    """Closed form for U_{k,n} from the corank-nullity sum: the C(n,s)
    subsets of size s have rank min(s,k), so corank deficit max(k-s,0) and
    nullity max(s-k,0).  Cached, since polynomials are immutable."""
    whitney = [[0] * (n - k + 1) for _ in range(k + 1)]
    for s in range(n + 1):
        whitney[max(k - s, 0)][max(s - k, 0)] = comb(n, s)
    return _from_whitney(whitney)


@lru_cache(maxsize=None)
def _uniform_packed(k: int, n: int) -> int:
    """`_uniform_tutte`, packed; cached likewise."""
    return _pack(_uniform_tutte(k, n))


@lru_cache(maxsize=None)
def _k_sets(n: int, k: int) -> frozenset:
    """The masks of every k-subset of n elements, held like the closed
    forms: C(n,k) masks, under twice the bases of a root that reads them
    for its non-bases."""
    return frozenset(k_subsets(k, n))


def _strip(n: int, packed: int, ones: int, count: int) -> tuple[int, int, bytes] | None:
    """(n_coloops, n_loops, the slots, in their own width, of the bases
    less their loops and coloops), or None if they have none.  Loops and
    coloops are empty and full columns, so dropping them keeps the masks
    distinct and in order."""
    cols = columns(packed, ones, n)
    if 0 not in cols and ones not in cols:
        return None
    kept = [col for col in cols if col and col != ones]
    width, narrow = slot_width(n), slot_width(len(kept))
    slots = place(kept).to_bytes(count * width, sys.byteorder)
    if narrow < width:
        slots = low_slots(slots, width, narrow)
    ncoloops = cols.count(ones)
    return ncoloops, n - len(kept) - ncoloops, slots


def _canonical(n: int, masks) -> bytes:
    """The sorted slots of this family of masks on n elements relabeled by
    (degree, index): a stable sort of the columns by bit count, one `place`
    and one sort of the masks.  `tutte_dc` relabels each root so, and its
    nodes inherit the labeling, n-1 of highest degree.  Relabeling keeps T,
    so roots isomorphic by it share memo entries across calls."""
    cols, _, width = column_view(n, masks)
    cols.sort(key=int.bit_count)
    return to_slots(sorted(unpack(place(cols), len(masks), width)), width)


def _children(n: int, packed: int, pivot: int, count: int) -> tuple[bytes, bytes]:
    """The slots of the deletion and the contraction of element n-1 from
    the sorted family of `count` masks in `packed`, whose column of n-1 is
    `pivot`: one XOR clears bit n-1, so the masks that lacked it and those
    that held it are sorted families on n-1 elements, in (n-1)'s width."""
    width, narrow = slot_width(n), slot_width(n - 1)
    raw = (packed ^ pivot << (n - 1)).to_bytes(count * width, sys.byteorder)
    if narrow < width:
        raw = low_slots(raw, width, narrow)
    cut = (count - pivot.bit_count()) * narrow
    return raw[:cut], raw[cut:]


def _dc(n: int, k: int, slots: bytes, memo: TutteMemo) -> int:
    """T, packed, of the rank-k matroid on n elements whose bases are the
    masks in these slots of n's width: distinct, ascending and below 2^n.
    The key is (n, slots), and the pivot is element n-1."""
    width = slot_width(n)
    count = len(slots) // width
    total = comb(n, k)
    if count == total:
        # every k-set a basis, so no columns are needed: U(k,n) has no loop
        # or coloop unless k is 0 or n, where the closed form is y^n or x^n
        return _uniform_packed(k, n)
    key = (n, slots)
    core = memo.get(key)     # an entry's matroid has no loop or coloop
    if core is not None:
        return core
    ones = slot_ones(count, width)
    packed = int.from_bytes(slots, sys.byteorder)
    # every basis lacks a loop and holds a coloop, so either bounds the
    # bases by max(C(n-1,k), C(n-1,k-1))
    if count * n <= total * max(k, n - k):
        stripped = _strip(n, packed, ones, count)
        if stripped:
            # the stripped family, keyed in its own slot width, times
            # x^ncoloops * y^nloops
            ncoloops, nloops, slots = stripped
            del ones, packed, stripped  # not held while the minors recurse
            return (_dc(n - ncoloops - nloops, k - ncoloops, slots, memo)
                    << _FIELD * (ncoloops * _STRIDE + nloops))
    deleted, contracted = _children(n, packed, packed >> (n - 1) & ones, count)
    del ones, packed
    core = _dc(n - 1, k, deleted, memo) + _dc(n - 1, k - 1, contracted, memo)
    memo.put(key, core)
    return core


def tutte_dc(m: Matroid, memo: TutteMemo | None = None) -> TuttePolynomial:
    """T by deletion-contraction, up to the "deletion-contraction" size
    limit.  The packed fields are sized for the limit as it stood when
    this module was imported, so a ground set past that is refused too."""
    check_size("deletion-contraction", m.n)
    if m.n >= _STRIDE:
        raise LimitExceededError(
            f"size {m.n} exceeds the {_STRIDE - 1} elements the packed polynomials fit")
    n, k = m.n, m.rank
    if m.is_uniform():
        return _uniform_tutte(k, n)     # before packing a single basis
    if 2 * len(m.bases) > comb(n, k):     # a tie keeps the bases
        # two non-bases share k-1 elements iff they share a (k-1)-subset;
        # if none do, M is sparse paving, and relaxing each non-basis, a
        # circuit-hyperplane, adds x + y - xy to T(M)
        non_bases = _k_sets(n, k) - m.bases
        if len({h ^ 1 << e for h in non_bases for e in bits(h)}) == k * len(non_bases):
            return _unpack(_uniform_packed(k, n) + len(non_bases) * _RELAXED, k, n - k)
    if memo is None:
        memo = _global_memo
    return _unpack(_dc(n, k, _canonical(n, m.bases), memo), k, n - k)
