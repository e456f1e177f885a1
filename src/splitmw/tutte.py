"""Exact Tutte polynomial computation.

Two independent engines cross-check each other:

  * `tutte_subset_sum` -- the corank-nullity expansion
        T(x,y) = sum over A of (x-1)^(r(E)-r(A)) * (y-1)^(|A|-r(A)),
    evaluated from the Whitney numbers, which are counted from the
    matroid's rank levels (tables of 2^n bits, see `Matroid.rank_levels`).
    Reference engine: about n*(r+2) passes over 2^n-bit ints to build the
    levels, then (r+1)*(n-r+1) bit counts.
  * `tutte_dc` -- deletion-contraction with eager loop/coloop stripping,
    a closed form for uniform minors, pivoting inside a largest parallel
    class, and an LRU-bounded memo keyed on a relabeling-canonicalized
    basis family.  Each recursion node packs its bases into one int, one
    array slot per basis, and works on the n columns of that int (see
    `bitset`): degrees are bit counts, loops and coloops are empty and
    full columns, parallel pairs are disjoint columns, and the canonical
    relabeling and the minors' families are n shifts and ORs followed by
    one C-level unpack.  Per node that is O(n^2) whole-int operations plus
    a sort of the relabeled bases, with no loop over the bits of each basis.

All coefficients are Python ints, so arithmetic is exact at any size.
Coefficient matrices are indexed coeffs[i][j] = coefficient of x^i y^j and
always have shape (rank+1) x (corank+1) of the source matroid.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from itertools import chain
from math import comb
from operator import add

from .bitset import (column_view, disjoint_columns, minor_families, place,
                     popcount_classes, unpack)
from .errors import InputError, check_size, require_int
from .matroid import Matroid


class TuttePolynomial:
    """Dense matrix of nonnegative integer coefficients of x^i y^j."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        rows = tuple(tuple(int(c) for c in row) for row in coeffs)
        if not rows or not rows[0]:
            raise ValueError("coefficient matrix must be at least 1x1")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("coefficient matrix must be rectangular")
            for c in row:
                if c < 0:
                    raise ValueError("Tutte coefficients are nonnegative")
        object.__setattr__(self, "coeffs", rows)

    @classmethod
    def _of(cls, rows: tuple) -> TuttePolynomial:
        """Wrap a tuple of equal-length tuples of nonnegative ints without
        checking it again: sums and shifts of valid matrices are valid."""
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

    def shift(self, dx: int, dy: int) -> TuttePolynomial:
        """Multiply by x^dx * y^dy."""
        width = len(self.coeffs[0]) + dy
        zero_row = (0,) * width
        rows = [zero_row] * dx
        for row in self.coeffs:
            rows.append((0,) * dy + row)
        return TuttePolynomial._of(tuple(rows))

    def __add__(self, other):
        if not isinstance(other, TuttePolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        nr, nc = max(len(a), len(b)), max(len(a[0]), len(b[0]))

        def padded(rows):
            zeros = (0,) * nc
            return ([row + zeros[len(row):] for row in rows]
                    + [zeros] * (nr - len(rows)))

        return TuttePolynomial._of(tuple(
            tuple(map(add, x, y)) for x, y in zip(padded(a), padded(b))))

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
    if not isinstance(d, dict):
        raise InputError(f"expected a JSON object, got {type(d).__name__}")
    if d.get("format") != "tutte-v1":
        raise InputError(f"not a tutte-v1 record: {d.get('format')!r}")
    for key in ("rank", "corank", "coeffs"):
        if key not in d:
            raise InputError(f"tutte-v1 record has no {key!r}")
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

    Read from the rank levels: the subsets of rank exactly k with s elements
    are (rank >= k) & ~(rank >= k+1) & pop[s], counted with one bit_count."""
    r, n = m.rank, m.n
    c = n - r
    levels = m.rank_levels() + (0,)
    pop = popcount_classes(n)
    whitney = [[0] * (c + 1) for _ in range(r + 1)]
    for k in range(r + 1):
        exact = levels[k] & ~levels[k + 1]
        row = whitney[r - k]
        for s in range(k, k + c + 1):
            row[s - k] = (exact & pop[s]).bit_count()
    return whitney


def _from_whitney(whitney: list[list[int]]) -> TuttePolynomial:
    """T = sum of w[a][b] * (x-1)^a * (y-1)^b, expanded binomially."""
    coeffs = [[0] * len(whitney[0]) for _ in whitney]
    for a, wrow in enumerate(whitney):
        for b, w in enumerate(wrow):
            if not w:
                continue
            for i in range(a + 1):
                xi = comb(a, i) * ((-1) ** (a - i))
                for j in range(b + 1):
                    coeffs[i][j] += w * xi * comb(b, j) * ((-1) ** (b - j))
    return TuttePolynomial(coeffs)


def tutte_subset_sum(m: Matroid) -> TuttePolynomial:
    """T by the corank-nullity sum, up to the "tables" size limit."""
    return _from_whitney(whitney_numbers(m))


# -- deletion-contraction engine -------------------------------------------

class TutteMemo:
    """Byte-capped LRU memo shared across recursions.  Entries are
    immutable values, so a hit can be returned as it is."""

    def __init__(self, capacity_bytes: int = 64 << 20):
        self.capacity_bytes = capacity_bytes
        self._data: OrderedDict = OrderedDict()
        self._bytes = 0

    @staticmethod
    def _entry_cost(key, poly: TuttePolynomial) -> int:
        cells = len(poly.coeffs) * len(poly.coeffs[0])
        return 96 + 8 * len(key[1]) + 32 * cells

    def get(self, key):
        val = self._data.get(key)
        if val is not None:
            self._data.move_to_end(key)
        return val

    def put(self, key, poly: TuttePolynomial):
        if key in self._data:
            return
        self._data[key] = poly
        self._bytes += self._entry_cost(key, poly)
        self._evict()

    def _evict(self):
        # keep at least one entry so progress is visible
        while self._bytes > self.capacity_bytes and len(self._data) > 1:
            old_key, old_val = self._data.popitem(last=False)
            self._bytes -= self._entry_cost(old_key, old_val)

    def set_capacity(self, capacity_bytes: int):
        self.capacity_bytes = capacity_bytes
        self._evict()

    def clear(self):
        self._data.clear()
        self._bytes = 0

    def __len__(self):
        return len(self._data)


_global_memo = TutteMemo()


def set_memo_capacity(capacity_bytes: int) -> None:
    """Resize the process-wide memo (evicting immediately if shrinking)."""
    _global_memo.set_capacity(capacity_bytes)


@lru_cache(maxsize=None)
def _uniform_tutte(k: int, n: int) -> TuttePolynomial:
    """Closed form for U_{k,n} from the corank-nullity sum: the C(n,s)
    subsets of size s have rank min(s,k), so corank deficit max(k-s,0) and
    nullity max(s-k,0).  Cached, since polynomials are immutable."""
    whitney = [[0] * (n - k + 1) for _ in range(k + 1)]
    for s in range(n + 1):
        whitney[max(k - s, 0)][max(s - k, 0)] = comb(n, s)
    return _from_whitney(whitney)


def _strip(cols: list[int], ones: int) -> tuple[list[int], int, int]:
    """Drop loops and coloops: (kept columns, n_coloops, n_loops).  The kept
    bases stay distinct, so the slots are unchanged."""
    kept = [c for c in cols if c and c != ones]
    if len(kept) == len(cols):
        return cols, 0, 0
    ncoloops = cols.count(ones)
    return kept, ncoloops, len(cols) - len(kept) - ncoloops


def _key_and_pivot(cols: list[int], count: int, width: int):
    """Memo key and pivot of the family of `count` bases with these columns.

    e's parallel-class size is 1 + #{f : no basis holds both e and f} (see
    `bitset.disjoint_columns`; a loop counts itself) and its degree is the
    number of bases holding it.  The key is (n, the sorted bases) after
    relabeling the elements in order of (class size, degree, index);
    relabeling preserves the Tutte polynomial, so key collisions are sound
    by construction and symmetric minors coalesce.  The pivot is the
    lowest-index element of a largest class.
    """
    n = len(cols)
    degree = [c.bit_count() for c in cols]
    size = [1 + p.bit_count() for p in disjoint_columns(cols)]
    order = sorted(range(n), key=lambda e: (size[e], degree[e]))
    relabeled = unpack(place([cols[e] for e in order]), count, width)
    return (n, tuple(sorted(relabeled))), size.index(max(size))


def _dc(n: int, bases, memo: TutteMemo, view=None) -> TuttePolynomial:
    """T of the matroid on n elements with these bases (a sized iterable of
    masks, in any order); `view`, if given, returns their columns as
    `bitset.column_view` would."""
    count = len(bases)
    k = next(iter(bases)).bit_count()
    if count == comb(n, k):
        # every k-subset, so no columns are needed: U(k,n) has no loop or
        # coloop unless k is 0 or n, where the closed form is y^n or x^n
        return _uniform_tutte(k, n)
    cols, ones, width = view() if view else column_view(n, bases)
    cols, ncoloops, nloops = _strip(cols, ones)
    n, k = len(cols), k - ncoloops
    if count == comb(n, k):
        core = _uniform_tutte(k, n)
    else:
        key, e = _key_and_pivot(cols, count, width)
        core = memo.get(key)
        if core is None:
            deleted, contracted = minor_families(cols, e, ones, count, width)
            core = _dc(n - 1, deleted, memo) + _dc(n - 1, contracted, memo)
            memo.put(key, core)
    if ncoloops or nloops:
        return core.shift(ncoloops, nloops)
    return core


def tutte_dc(m: Matroid, memo: TutteMemo | None = None) -> TuttePolynomial:
    """T by deletion-contraction, up to the "deletion-contraction" size
    limit.  Past the closed form for a uniform matroid, the root reads the
    matroid's own columns (`Matroid.columns`), which its minors and the
    trace's pivot search read too."""
    check_size("deletion-contraction", m.n)
    if memo is None:
        memo = _global_memo
    return _dc(m.n, m.bases, memo, m.columns)
