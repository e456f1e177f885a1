"""Exact Tutte polynomial computation.

Two independent engines cross-check each other:

  * `tutte_subset_sum` -- the corank-nullity expansion
        T(x,y) = sum over A of (x-1)^(r(E)-r(A)) * (y-1)^(|A|-r(A)),
    evaluated from the Whitney numbers, counted over the simplification's
    n' elements (`Matroid.simplification`): one byte per basis, n' passes
    over 2^n'-bit ints, n' more per rank level from the girth g up, then,
    per rank from g-1 to r-1, one bit count per subset size it holds in each
    of 2^q blocks, one per set of the q classes of two or more; the other
    ranks are binomials.  The Whitney numbers are expanded into the one
    packed int `tutte_dc` uses (see `_from_whitney`), and `_unpack` reads it.
  * `tutte_dc` -- deletion-contraction with eager loop/coloop stripping,
    a closed form for uniform minors (packed from its binomial
    coefficients, `_uniform_packed`, so that the engines share no
    expansion, only the decoder `_unpack`) and one for paving roots, one
    weighted step per parallel class of the root, and a memo, bounded by
    the "memo-bytes" size limit by evicting its oldest entries, keyed on n
    and the packed bases (see `bitset`).  A uniform root, and a paving
    one, closes before a single mask is packed: a root with more bases
    than non-bases (the k-sets that are no bases) reads its non-bases
    (`Matroid.non_bases`, shared with the reader's validation); if they
    are the k-subsets of sets that pairwise meet in at most k-2, its
    hyperplanes H of k or more elements, it is paving
    (`Matroid.hyperplanes`), and only the sets of s >= k elements within
    one H have rank k-1, so T is T(U(k,n)) + (xy - x - y) * sum over H of
    sum of C(|H|,s)*(y-1)^(s-k) over s = k..|H| (`_paving`).  Any
    other root is read once, column by column (`_root`), off the slots its
    constructor checked and kept, in the caller's order, or else packed
    from the set: its loops and coloops, the empty and full columns, are
    stripped, and a core with more bases than non-bases takes the same
    rule.  Two columns of the core are disjoint iff their elements are
    parallel, so the same pass finds its parallel classes, and the root is
    relabeled and packed once, as its simplification (`_canonical`): one
    element per class, by (class of two or more, degree, index), the
    simplification's bases, sorted, in the slot width of its own
    elements.  Every node below keeps that labeling and those slots, so
    equal minors coalesce in the memo and no node sorts or repacks.  The
    elements of classes of p >= 2 are pivoted first, with no memo
    (`_classes`): T(N) = T(N\\e) + (1 + y + ... + y^(p-1))*T(N/e),
    y^p*T(N\\e) if e is a loop of the node, (x + y + ... + y^(p-1))*T(N\\e)
    if it is a coloop (Haggard, Pearce and Royle, "Computing Tutte
    polynomials", ACM TOMS 2010).  Below them a node, one int, reads its n
    columns once: it drops the empty and full ones, loops and coloops, or
    splits at the pivot n-1, at the root one of highest degree, whose
    holders are the last slots.  So a node costs O(n) whole-int operations
    on its |B| slots.  Inside the recursion a polynomial is one int
    (Kronecker substitution, see `_FIELD`): the children's sum is one
    addition, a loop or coloop factor one shift, a class's weight one
    product, and `tutte_dc` unpacks the root's once.

All coefficients are Python ints, so arithmetic is exact at any size.
Coefficient matrices are indexed coeffs[i][j] = coefficient of x^i y^j and
always have shape (rank+1) x (corank+1) of the source matroid.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import lru_cache
from itertools import chain
from math import comb

from .bitset import (columns, place, popcount_classes, slot_ones, slot_width,
                     to_slots, unpack)
from .errors import (SIZE_LIMITS, EngineMismatchError, InputError,
                     LimitExceededError, check_size, require_int, require_record)
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


def check_identities(m: Matroid, t: TuttePolynomial) -> TuttePolynomial:
    """t, if T(1,1) is the basis count of m and T(2,2) is 2^n, which hold
    whatever code the two engines share; else raise EngineMismatchError.
    The CLI checks every polynomial that it prints or reports on."""
    if t.evaluate(1, 1) != len(m.bases) or t.evaluate(2, 2) != 1 << m.n:
        raise EngineMismatchError("T(1,1) is not the basis count or T(2,2) is not 2^n")
    return t


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


# -- packed polynomials, written by both engines ---------------------------

# A polynomial is packed into one int, with the coefficient of x^i y^j in
# the _FIELD-bit field at index i*_STRIDE + j.  No field carries: each
# coefficient of T(M) is at most T(1,1), the number of bases, at most
# C(L, L//2) for L the larger of the two engines' limits, and a node's
# children sum to it field by field; j is at most the corank, at most L.
# Both are fixed at import, so `_check_fields` refuses ground sets past
# that L.
_LIMIT = max(SIZE_LIMITS["deletion-contraction"], SIZE_LIMITS["tables"])
_FIELD = comb(_LIMIT, _LIMIT // 2).bit_length()
_STRIDE = _LIMIT + 1
# xy - x - y, packed: T(M) less T(M with one circuit-hyperplane relaxed)
_RELAXED = (1 << _FIELD * (_STRIDE + 1)) - (1 << _FIELD * _STRIDE) - (1 << _FIELD)


def _check_fields(work: str, n: int) -> None:
    """Refuse n past the `work` size limit, or past the packed fields,
    which are sized for the limits as they stood at import."""
    check_size(work, n)
    if n >= _STRIDE:
        raise LimitExceededError(
            f"size {n} exceeds the {_STRIDE - 1} elements the packed polynomials fit")


def _from_whitney(whitney: list[list[int]]) -> int:
    """T, packed, = sum of w[a][b] * (x-1)^a * (y-1)^b, by Horner's rule one
    axis at a time, on one int: T at y = 2^_FIELD and x = 2^(_FIELD*_STRIDE),
    whose fields are T's coefficients, each at most T(1,1) < 2^_FIELD."""
    total, row = 0, _FIELD * _STRIDE
    for ws in reversed(whitney):
        across = 0
        for w in reversed(ws):
            across = (across << _FIELD) - across + w
        total = (total << row) - total + across
    return total


def _unpack(packed: int, rank: int, corank: int) -> TuttePolynomial:
    """The (rank+1) x (corank+1) polynomial packed in `packed`: each row's
    fields are masked off before its cells are shifted out."""
    field, width = (1 << _FIELD) - 1, _FIELD * _STRIDE
    row_mask = (1 << _FIELD * (corank + 1)) - 1
    cells = range(0, _FIELD * (corank + 1), _FIELD)
    rows = []
    for _ in range(rank + 1):
        row = packed & row_mask
        rows.append(tuple([row >> j & field for j in cells]))
        packed >>= width
    return TuttePolynomial._of(tuple(rows))


def tutte_subset_sum(m: Matroid) -> TuttePolynomial:
    """T by the corank-nullity sum, up to the "tables" size limit."""
    _check_fields("tables", m.n)
    return _unpack(_from_whitney(whitney_numbers(m)), m.rank, m.n - m.rank)


# -- deletion-contraction engine -------------------------------------------

# What sys.getsizeof measures of a memo entry's parts (`TutteMemo`): a pair;
# an int's header and each digit, and 0
_PAIR_BYTES = sys.getsizeof((0, 0))
_DIGIT_BITS, _DIGIT_BYTES = sys.int_info.bits_per_digit, sys.int_info.sizeof_digit
_INT_HEAD, _ZERO_BYTES = sys.getsizeof(1) - _DIGIT_BYTES, sys.getsizeof(0)


class TutteMemo:
    """Memo shared across recursions, bounded by the "memo-bytes" size
    limit: past it, the oldest entries go first.  A key is (n, the packed
    bases, in the slot width of the root's simplification they came from)
    of a matroid with no loop or coloop, exact, so only equal families in
    equal slots share an entry.  Entries are packed polynomials (see
    `_FIELD`), immutable ints, returned as they are; `_dc` reads the dict
    itself.

    Each entry is charged what `sys.getsizeof` measures of its key pair,
    the key's packed int and its packed polynomial, by arithmetic on sizes
    read once (`_entry_cost`); `put` inlines it for its two ints, which
    are never 0.  The memo's own hash table is not charged."""

    def __init__(self):
        self._data: dict = {}
        self._bytes = 0

    @staticmethod
    def _entry_cost(key, packed: int) -> int:
        return _PAIR_BYTES + sum(
            max(_ZERO_BYTES, _INT_HEAD + _DIGIT_BYTES * -(-i.bit_length() // _DIGIT_BITS))
            for i in (key[1], packed))

    def get(self, key):
        return self._data.get(key)

    def put(self, key, packed: int):
        data = self._data
        if key in data:
            return
        data[key] = packed
        self._bytes += _PAIR_BYTES + 2 * _INT_HEAD + _DIGIT_BYTES * (
            -(-key[1].bit_length() // _DIGIT_BITS) - packed.bit_length() // -_DIGIT_BITS)
        limit = SIZE_LIMITS["memo-bytes"]
        # keep at least one entry so progress is visible
        while self._bytes > limit and len(data) > 1:
            old_key = next(iter(data))
            self._bytes -= self._entry_cost(old_key, data.pop(old_key))

    def clear(self):
        self._data.clear()
        self._bytes = 0

    def __len__(self):
        return len(self._data)


_global_memo = TutteMemo()


@lru_cache(maxsize=None)
def _uniform_packed(k: int, n: int) -> int:
    """Closed form for U_{k,n}, packed directly from its coefficients, with
    no Whitney numbers, so that the engines share no expansion: for
    0 < k < n,
        T = sum of C(n-i-1, k-i)*x^i over i = 1..k
            + sum of C(n-j-1, k-1)*y^j over j = 1..n-k,
    and x^n at k = n, y^n at k = 0.  Cached, since ints are immutable."""
    if k in (0, n):
        return 1 << _FIELD * (_STRIDE * k + n - k)
    return (sum(comb(n - i - 1, k - i) << _FIELD * _STRIDE * i for i in range(1, k + 1))
            + sum(comb(n - j - 1, k - 1) << _FIELD * j for j in range(1, n - k + 1)))


@lru_cache(maxsize=None)
def _uniform_tutte(k: int, n: int) -> TuttePolynomial:
    """`_uniform_packed`, unpacked; cached likewise, polynomials being
    immutable too."""
    return _unpack(_uniform_packed(k, n), k, n - k)


@lru_cache(maxsize=None)
def _hyperplane_weight(k: int, size: int) -> int:
    """sum of C(size,s) * (y-1)^(s-k) over s = k..size, packed, by Horner's
    rule in y-1, which is 2^_FIELD - 1 packed: 1 for size k."""
    weight = 0
    for s in range(size, k - 1, -1):
        weight = weight * ((1 << _FIELD) - 1) + comb(size, s)
    return weight


def _paving(m: Matroid) -> int | None:
    """T, packed, of m if it has more bases than non-bases and is paving
    (`Matroid.hyperplanes`), else None.  Only the sets of s >= k elements
    within a hyperplane H of k or more have a rank other than U(k,n)'s,
    k-1, and none lies in two H, so each adds (xy - x - y)*(y-1)^(s-k):
    T(M) = T(U(k,n)) + (xy - x - y) * sum over H of its weight
    (`_hyperplane_weight`).  An H of k elements adds xy - x - y, as
    relaxing a circuit-hyperplane takes it away (Brylawski)."""
    hyperplanes = m.hyperplanes()
    if hyperplanes is None:
        return None
    k = m.rank
    return _uniform_packed(k, m.n) + _RELAXED * sum(
        count * _hyperplane_weight(k, size)
        for size, count in Counter(map(int.bit_count, hyperplanes)).items())


def _core(k: int, cols: list[int], ones: int) -> tuple[list[int], int, int]:
    """(the columns kept, k', shift) of the matroid whose columns these are,
    less its loops and coloops, the empty and full columns: dropping them
    keeps the masks distinct and in order, in the same slots, and the shift
    multiplies the core's packed polynomial by x^coloops * y^loops."""
    kept = [col for col in cols if col and col != ones]
    coloops = cols.count(ones)
    return kept, k - coloops, _FIELD * (coloops * _STRIDE + len(cols) - len(kept) - coloops)


def _y_run(p: int) -> int:
    """1 + y + ... + y^(p-1), packed."""
    return ((1 << _FIELD * p) - 1) // ((1 << _FIELD) - 1)


def _canonical(k: int, cols: list[int], count: int,
               width: int) -> tuple[int, int, int, list[int]]:
    """(n', packed, its full column, class sizes) of the simplification of
    the loopless rank-k matroid whose `count` bases these columns, in
    `width`-byte slots, hold.  Two elements are parallel iff no basis holds
    both, iff their columns are disjoint, and parallel elements have equal
    degree d, so only columns of one degree d with 2d <= count are
    compared.  One element per class is kept, relabeled by (class of two or
    more, degree, index): the classes of p >= 2 take the top labels, and
    the sizes list their p from the lowest of those labels up.  The
    relabeled masks that still have k elements, those of bases within the
    kept elements, are the simplification's bases; they are sorted and
    packed in the slot width of its n' elements.  `tutte_dc` packs each
    root so, and its nodes inherit the labeling, the top one of highest
    degree, and the slot width.  Relabeling keeps T, so roots isomorphic by
    it share memo entries across calls."""
    classes, by_degree = [], {}     # [column, size, degree] per class
    for col in cols:
        degree = col.bit_count()
        same = by_degree.setdefault(degree, []) if 2 * degree <= count else []
        for cls in same:
            if not col & cls[0]:
                cls[1] += 1
                break
        else:
            same.append([col, 1, degree])
            classes.append(same[-1])
    classes.sort(key=lambda cls: (cls[1] > 1, cls[2]))
    masks = unpack(place([cls[0] for cls in classes]), count, width)
    sizes = [cls[1] for cls in classes if cls[1] > 1]
    if sizes:
        masks = [b for b in masks if b.bit_count() == k]
    n, count = len(classes), len(masks)
    width = slot_width(n)
    # ascending from the int's lowest slot up, in either byte order
    relabeled = sorted(masks, reverse=sys.byteorder == "big")
    return (n, int.from_bytes(to_slots(relabeled, width), sys.byteorder),
            slot_ones(count, width), sizes)


def _classes(n: int, k: int, packed: int, ones: int, sizes: list[int],
             memo: TutteMemo) -> int:
    """T, packed, of the matroid whose top len(sizes) elements stand for
    parallel classes of these sizes, the top one for the last: the family
    as `_dc` takes it, whose nodes start once every class is pivoted.  With
    [p]_y = 1 + y + ... + y^(p-1), a class of p with element e contributes
    T(N\\e) + [p]_y*T(N/e), or y^p*T(N\\e) if e is a loop of the node N, or
    (x + [p]_y - 1)*T(N\\e) if it is a coloop (Haggard, Pearce and Royle).
    These nodes are at most 2^len(sizes), and take no memo entry."""
    if not sizes:
        return _dc(n, k, packed, ones, memo)
    p, sizes, n = sizes[-1], sizes[:-1], n - 1
    pivot = packed >> n & ones
    if not pivot:
        return _classes(n, k, packed, ones, sizes, memo) << _FIELD * p
    packed ^= pivot << n
    if pivot == ones:
        return (_classes(n, k - 1, packed, ones, sizes, memo)
                * ((1 << _FIELD * _STRIDE) + _y_run(p) - 1))
    # split at the pivot column's lowest slot, as `_dc` does
    low = (pivot & -pivot) - 1
    cut = low.bit_length()
    return (_classes(n, k, packed & low, ones & low, sizes, memo)
            + _classes(n, k - 1, packed >> cut, ones >> cut, sizes, memo) * _y_run(p))


def _dc(n: int, k: int, packed: int, ones: int, memo: TutteMemo) -> int:
    """T, packed, of the rank-k matroid on n elements whose bases are the
    masks in the slots of `packed` that `ones`, the bit 0 of each, marks:
    distinct, ascending and below 2^n.  The key is (n, packed), and the
    pivot is element n-1."""
    if ones.bit_count() == comb(n, k):
        # every k-set a basis, so no columns are needed: U(k,n) has no loop
        # or coloop unless k is 0 or n, where the closed form is y^n or x^n
        return _uniform_packed(k, n)
    key = (n, packed)
    core = memo._data.get(key)      # an entry's matroid has no loop or coloop
    if core is not None:
        return core
    cols = columns(packed, ones, n)
    if 0 in cols or ones in cols:
        kept, k, shift = _core(k, cols, ones)
        del cols    # not held while the core recurses
        return _dc(len(kept), k, place(kept), ones, memo) << shift
    # the masks that hold n-1 come last, from the pivot column's lowest
    # slot on: one XOR clears bit n-1, and the slots split there into the
    # deletion's and the contraction's sorted families on n-1 elements
    pivot = cols[-1]
    del cols
    low = (pivot & -pivot) - 1
    cut = low.bit_length()
    packed ^= pivot << (n - 1)
    core = (_dc(n - 1, k, packed & low, ones & low, memo)
            + _dc(n - 1, k - 1, packed >> cut, ones >> cut, memo))
    memo.put(key, core)
    return core


def _root(n: int, k: int, bases, memo: TutteMemo, raw: bytes | None = None) -> int:
    """T, packed, of a root that is not closed before its columns are read:
    one pass over its columns finds its loops and coloops, and its core,
    less them, takes the paving rule if it has more bases than
    non-bases, else recurses on its simplification (`_canonical`), its
    parallel classes first (`_classes`).  The columns are read off `raw`,
    the bases in `slot_width(n)` slots in any order (`_canonical` sorts),
    if the constructor kept them, else off the set, packed here."""
    width = slot_width(n)
    if raw is None:
        raw = to_slots(bases, width)
    ones = slot_ones(len(bases), width)
    cols = columns(int.from_bytes(raw, sys.byteorder), ones, n)
    kept, k, shift = _core(k, cols, ones)
    if 0 < len(kept) < n and 2 * len(bases) > comb(len(kept), k):
        core = Matroid._trusted(len(kept), k, unpack(place(kept), len(bases), width))
        packed = _paving(core)
        if packed is not None:
            return packed << shift
    n, packed, ones, sizes = _canonical(k, kept, len(bases), width)
    del cols, kept      # not held while the simplification recurses
    return _classes(n, k, packed, ones, sizes, memo) << shift


def tutte_dc(m: Matroid, memo: TutteMemo | None = None) -> TuttePolynomial:
    """T by deletion-contraction, up to the "deletion-contraction" size
    limit."""
    _check_fields("deletion-contraction", m.n)
    n, k, bases = m.n, m.rank, m.bases
    if m.is_uniform():
        return _uniform_tutte(k, n)     # before packing a single basis
    packed = _paving(m)                 # a tie keeps the bases
    if packed is None:
        packed = _root(n, k, bases, _global_memo if memo is None else memo,
                       m._cache.get("slots"))
    return _unpack(packed, k, n - k)
