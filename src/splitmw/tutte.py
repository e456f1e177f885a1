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
    basis family.

All coefficients are Python ints, so arithmetic is exact at any size.
Coefficient matrices are indexed coeffs[i][j] = coefficient of x^i y^j and
always have shape (rank+1) x (corank+1) of the source matroid.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from math import comb

from .bitset import drop_bit, popcount_classes
from .errors import LimitExceededError
from .matroid import Matroid

SUBSET_SUM_LIMIT = 20
DC_LIMIT = 24


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
        return TuttePolynomial(rows)

    def __add__(self, other):
        if not isinstance(other, TuttePolynomial):
            return NotImplemented
        nr = max(len(self.coeffs), len(other.coeffs))
        nc = max(len(self.coeffs[0]), len(other.coeffs[0]))
        out = [[0] * nc for _ in range(nr)]
        for src in (self.coeffs, other.coeffs):
            for i, row in enumerate(src):
                orow = out[i]
                for j, c in enumerate(row):
                    orow[j] += c
        return TuttePolynomial(out)

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


ONE = TuttePolynomial(((1,),))


def tutte_from_dict(d: dict) -> TuttePolynomial:
    if d.get("format") != "tutte-v1":
        raise ValueError(f"not a tutte-v1 record: {d.get('format')!r}")
    t = TuttePolynomial([[int(c) for c in row] for row in d["coeffs"]])
    if t.x_degree_bound != int(d["rank"]) or t.y_degree_bound != int(d["corank"]):
        raise ValueError("tutte-v1 rank/corank fields disagree with matrix shape")
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


def tutte_subset_sum(m: Matroid, limit: int = SUBSET_SUM_LIMIT) -> TuttePolynomial:
    if m.n > limit:
        raise LimitExceededError(f"n={m.n} exceeds subset-sum limit {limit}")
    r, c = m.rank, m.n - m.rank
    whitney = whitney_numbers(m)
    coeffs = [[0] * (c + 1) for _ in range(r + 1)]
    for a in range(r + 1):
        wrow = whitney[a]
        for b in range(c + 1):
            w = wrow[b]
            if not w:
                continue
            # expand w * (x-1)^a * (y-1)^b
            for i in range(a + 1):
                xi = comb(a, i) * ((-1) ** (a - i))
                for j in range(b + 1):
                    coeffs[i][j] += w * xi * comb(b, j) * ((-1) ** (b - j))
    return TuttePolynomial(coeffs)


# -- deletion-contraction engine -------------------------------------------

class TutteMemo:
    """Byte-capped LRU memo shared across recursions.

    Concurrent use is safe: entries are immutable values, a lock guards the
    table, and duplicated work between racing callers is tolerated.
    """

    def __init__(self, capacity_bytes: int = 64 << 20):
        self.capacity_bytes = capacity_bytes
        self._data: OrderedDict = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    @staticmethod
    def _entry_cost(key, poly: TuttePolynomial) -> int:
        cells = len(poly.coeffs) * len(poly.coeffs[0])
        return 96 + 8 * len(key[1]) + 32 * cells

    def get(self, key):
        with self._lock:
            val = self._data.get(key)
            if val is not None:
                self._data.move_to_end(key)
            return val

    def put(self, key, poly: TuttePolynomial):
        cost = self._entry_cost(key, poly)
        with self._lock:
            if key in self._data:
                return
            self._data[key] = poly
            self._bytes += cost
            self._evict()

    def _evict(self):
        # caller holds the lock; keep at least one entry so progress is visible
        while self._bytes > self.capacity_bytes and len(self._data) > 1:
            old_key, old_val = self._data.popitem(last=False)
            self._bytes -= self._entry_cost(old_key, old_val)

    def set_capacity(self, capacity_bytes: int):
        with self._lock:
            self.capacity_bytes = capacity_bytes
            self._evict()

    def clear(self):
        with self._lock:
            self._data.clear()
            self._bytes = 0

    def __len__(self):
        return len(self._data)


_global_memo = TutteMemo()


def set_memo_capacity(capacity_bytes: int) -> None:
    """Resize the process-wide memo (evicting immediately if shrinking)."""
    _global_memo.set_capacity(capacity_bytes)


def _uniform_tutte(k: int, n: int) -> TuttePolynomial:
    """Closed form for U_{k,n} from the corank-nullity sum: subsets of size
    s <= k contribute C(n,s)(x-1)^(k-s), larger ones C(n,s)(y-1)^(s-k)."""
    coeffs = [[0] * (n - k + 1) for _ in range(k + 1)]
    coeffs[0][0] += comb(n, k)
    for s in range(k):
        w = comb(n, s)
        a = k - s
        for i in range(a + 1):
            coeffs[i][0] += w * comb(a, i) * ((-1) ** (a - i))
    for s in range(k + 1, n + 1):
        w = comb(n, s)
        b = s - k
        for j in range(b + 1):
            coeffs[0][j] += w * comb(b, j) * ((-1) ** (b - j))
    return TuttePolynomial(coeffs)


def _canonical_key(n: int, bases: tuple[int, ...]):
    """Memo key: the basis family after a deterministic relabeling.

    Elements are sorted by (parallel-class size, basis degree); relabeling
    preserves the Tutte polynomial, so key collisions are sound by
    construction and symmetric minors coalesce.
    """
    degree = [0] * n
    cooc = [0] * n
    for b in bases:
        rest = b
        while rest:
            low = rest & -rest
            rest ^= low
            e = low.bit_length() - 1
            degree[e] += 1
            cooc[e] |= b
    class_size = [n - cooc[e].bit_count() + 1 for e in range(n)]
    order = sorted(range(n), key=lambda e: (class_size[e], degree[e]))
    pos = [0] * n
    for new, old in enumerate(order):
        pos[old] = new
    remapped = []
    for b in bases:
        nb = 0
        rest = b
        while rest:
            low = rest & -rest
            rest ^= low
            nb |= 1 << pos[low.bit_length() - 1]
        remapped.append(nb)
    return (n, tuple(sorted(remapped)))


def _pivot(n: int, bases: tuple[int, ...]) -> int:
    """Lowest-index element of a largest parallel class."""
    cooc = [0] * n
    for b in bases:
        rest = b
        while rest:
            low = rest & -rest
            rest ^= low
            cooc[low.bit_length() - 1] |= b
    best_e, best_size = 0, -1
    for e in range(n):
        size = n - cooc[e].bit_count() + 1
        if size > best_size:
            best_e, best_size = e, size
    return best_e


def _strip(n: int, bases: tuple[int, ...]):
    """Remove loops and coloops, returning (n', bases', n_coloops, n_loops)."""
    union = 0
    inter = bases[0]
    for b in bases:
        union |= b
        inter &= b
    full = (1 << n) - 1
    loops = full & ~union
    coloops = inter
    if not loops and not coloops:
        return n, bases, 0, 0
    drop = loops | coloops
    kept = [e for e in range(n) if not drop >> e & 1]
    new_bases = set()
    for b in bases:
        core = b & ~coloops
        nb = 0
        for new, old in enumerate(kept):
            if core >> old & 1:
                nb |= 1 << new
        new_bases.add(nb)
    return (len(kept), tuple(sorted(new_bases)),
            coloops.bit_count(), loops.bit_count())


def _dc(n: int, bases: tuple[int, ...], memo: TutteMemo) -> TuttePolynomial:
    n, bases, ncoloops, nloops = _strip(n, bases)
    if n == 0:
        core = ONE
    else:
        k = bases[0].bit_count()
        if len(bases) == comb(n, k):
            core = _uniform_tutte(k, n)
        else:
            key = _canonical_key(n, bases)
            core = memo.get(key)
            if core is None:
                e = _pivot(n, bases)
                bit = 1 << e
                deleted = tuple(sorted(drop_bit(b, e) for b in bases if not b & bit))
                contracted = tuple(sorted(drop_bit(b ^ bit, e) for b in bases if b & bit))
                core = _dc(n - 1, deleted, memo) + _dc(n - 1, contracted, memo)
                memo.put(key, core)
    if ncoloops or nloops:
        return core.shift(ncoloops, nloops)
    return core


def tutte_dc(m: Matroid, limit: int = DC_LIMIT,
             memo: TutteMemo | None = None) -> TuttePolynomial:
    if m.n > limit:
        raise LimitExceededError(f"n={m.n} exceeds deletion-contraction limit {limit}")
    if memo is None:
        memo = _global_memo
    return _dc(m.n, tuple(sorted(m.bases)), memo)
