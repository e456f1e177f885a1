"""Matroids represented by explicit basis families.

Conventions used throughout the package:

  * The ground set is E = {0, ..., n-1}.  Subsets of E are int bitmasks
    (bit i set <=> element i in the subset), see `bitset`.
  * A matroid is stored as its full family of bases, each an n-bit mask of
    popcount `rank`.  Duals are one complement per basis.  The fundamental
    circuits of one basis, found once by r*(n-r) basis lookups, give the
    components and the simplification (its loops and parallel classes).
  * Family-level queries read the packed columns (`Matroid.columns`, see
    `bitset`), built once per matroid in record order: the families of
    minors (`delete`/`contract`/`restrict`) are one relabeling of the kept
    columns, unpacked in C; a minor's family is valid by construction, so
    it skips the constructor's per-basis checks, which read a caller's
    list or tuple, the reader's (`from_bases`) included, as packed slots
    (`bitset.checked_slots`) and keep them for the deletion-contraction
    root.  Loops and coloops are one C-level OR or AND over the family.
    Records (`to_dict`, or a `records.RecordWriter`'s record and JSON
    text) write each mask through per-byte tables, or past 64 bits through
    its binary numeral, in lex order: sorted as ints once, or, for a
    deletion or contraction, its parent's order.  That code is `records`',
    loaded by the first matroid that sorts its bases or writes a record.
  * Whole-table queries (the independent sets and the rank levels, which
    the flats, the paving tests and the subset-sum engine read) hold one
    bit per subset in a 2^n-bit int and close it under inclusion with n
    shift/AND/OR passes (see `bitset`): n for the independent sets, from
    the bases' table (one byte write per basis, or, with more bases than
    non-bases, one per non-basis off the size class k; none if uniform),
    none for a paving family's, and n per rank level from the girth up
    (the levels below it are size classes), up to the "tables" entry of
    `errors.SIZE_LIMITS`.
  * Validation (`from_bases`) checks elements in bulk and runs Maurer's
    exchange check (`check_exchange`), except on a paving family with
    more bases than non-bases: its non-bases (`non_bases`, read once off
    the held k-sets) are the k-subsets of sets that pairwise meet in at
    most k-2 elements (`hyperplanes`), within the "tables" limit.  The
    deletion-contraction root, the independent sets and, at rank 3 or
    more, the simplification read the same two methods.  Maurer's search
    is `exchange`'s, loaded only by a family that takes it.

Minors reindex the surviving elements to {0, ..., n'-1} order-preservingly:
index i of M\\e or M/e is old element i + (i >= e), and index i of M|a is
`bits(a)[i]`.  Two matroids are equal iff they have the same ground set
size, rank, and basis family.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterable
from functools import lru_cache, reduce
from itertools import compress
from math import comb
from operator import and_, or_

from .bitset import (
    bits,
    checked_slots,
    column_view,
    columns,
    down_closure,
    k_subsets,
    mask_of,
    masks_of,
    minor_families,
    place,
    popcount_classes,
    slot_ones,
    slot_width,
    spread,
    table_of,
    to_slots,
    unpack,
    up_closure,
)
from .errors import (
    ColoopsPresentError,
    EmptyBasesError,
    ExchangeViolationError,
    InputError,
    LimitExceededError,
    LoopsPresentError,
    SIZE_LIMITS,
    WrongBasisSizeError,
    check_size,
    require_int,
    require_record,
)


class Matroid:
    """An immutable matroid given by its bases.

    The constructor performs only cheap structural checks (exact-int n and
    rank, sizes, ranges, non-emptiness), on a list or tuple by C-level
    passes over its packed slots, which it keeps (`_cache["slots"]`) if no
    mask repeats; it trusts the caller that the family satisfies basis
    exchange.  Minors, valid by construction, skip even those
    (`_trusted`).  Use `from_bases` for untrusted input -- it
    additionally checks exchange, or that the family is a dense paving
    one (`hyperplanes`) -- or call `check_exchange()`
    explicitly.  The check is local (Maurer's criterion): the basis graph
    is connected and the link of every (r-2)-set is complete multipartite,
    in O(|B|*k^2) dict operations, k = min(r, n-r).  A mask that is no int
    raises InputError, whatever iterable holds it; a bool mask counts as
    the int it equals.
    """

    __slots__ = ("n", "rank", "bases", "_cache")

    def __init__(self, n: int, rank: int, bases: Iterable[int]):
        require_int("n", n)
        require_int("rank", rank)
        self._fill_checked(n, rank, bases, frozenset(bases))

    def _fill_checked(self, n: int, rank: int, given, bases: frozenset) -> None:
        """The constructor's checks and fill, of `bases`, the set of the
        masks `given`, which are packed if they are a list or tuple."""
        if not bases:
            raise EmptyBasesError("a matroid needs at least one basis")
        if not 0 <= rank <= n:
            raise ValueError(f"rank {rank} out of range for n={n}")
        # a list or tuple is packed and checked as given, in C; on a fault,
        # and for any other iterable, the set's scan names the basis
        slots = None
        if isinstance(given, (list, tuple)):
            slots = checked_slots(given, n, rank)
        if slots is None:
            outside = ~((1 << n) - 1)
            try:
                for b in bases:
                    if b & outside or b.bit_count() != rank:
                        if b & outside:
                            raise ValueError(f"basis mask {b:#x} has elements >= n={n}")
                        raise WrongBasisSizeError(
                            f"basis {tuple(bits(b))} has {b.bit_count()} elements, "
                            f"expected rank {rank}")
            except (TypeError, AttributeError):
                raise InputError(f"basis mask {b!r} is not an int") from None
        self._fill(n, rank, bases)
        if slots is not None and len(given) == len(bases):   # no mask repeats
            self._cache["slots"] = slots

    def _fill(self, n, rank, bases):
        set_slot = object.__setattr__
        set_slot(self, "n", n)
        set_slot(self, "rank", rank)
        set_slot(self, "bases", bases)
        set_slot(self, "_cache", {})

    @classmethod
    def _trusted(cls, n: int, rank: int, bases: Iterable[int]) -> Matroid:
        """A matroid whose family is valid by construction (a minor of a
        matroid), without the constructor's per-basis range and size loop."""
        m = object.__new__(cls)
        m._fill(n, rank, frozenset(bases))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matroid instances are immutable")

    def __eq__(self, other):
        if not isinstance(other, Matroid):
            return NotImplemented
        return (self.n == other.n and self.rank == other.rank
                and self.bases == other.bases)

    def __hash__(self):
        return hash((self.n, self.rank, self.bases))

    def __repr__(self):
        return f"Matroid(n={self.n}, rank={self.rank}, bases={len(self.bases)})"

    # -- ground set ----------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def _check_subset(self, a: int):
        if a < 0 or a & ~self.full_mask:
            raise ValueError(f"subset mask {a:#x} not within ground set of size {self.n}")

    # -- packed columns, loops, coloops, connectivity -----------------------

    def columns(self) -> tuple[tuple[int, ...], int, int]:
        """(cols, ones, width): the bases packed into one int, one slot of
        `width` bytes each, and cols[e], the slots of the bases that hold e,
        at each slot's bit 0; `ones` is the full column (see `bitset`).
        Built once, on first use, from `_lex_slots` read as one int: in
        record order, as are the families that `_minor` splits off the
        columns."""
        cached = self._cache.get("columns")
        if cached is None:
            n, width = self.n, slot_width(self.n)
            ones = slot_ones(len(self.bases), width)
            packed = int.from_bytes(self._lex_slots(), sys.byteorder)
            cached = (tuple(columns(packed, ones, n)), ones, width)
            self._cache["columns"] = cached
        return cached

    # Not read from the columns: the reader's exchange check asks for the
    # loops, and the columns cost n shifts of the packed int, which grows
    # as n^2 on a large ground set of few bases.

    def loops(self) -> int:
        """Mask of elements contained in no basis."""
        return self.full_mask & ~reduce(or_, self.bases)

    def coloops(self) -> int:
        """Mask of elements contained in every basis."""
        return reduce(and_, self.bases)

    def is_clean(self) -> bool:
        """No loops and no coloops."""
        return self.loops() == 0 and self.coloops() == 0

    def require_clean(self) -> None:
        """Raise LoopsPresentError, else ColoopsPresentError, naming the
        elements, unless the matroid has no loop and no coloop.  Check the
        size first: listing the elements is quadratic in n."""
        loops = self.loops()
        if loops:
            raise LoopsPresentError(bits(loops))
        coloops = self.coloops()
        if coloops:
            raise ColoopsPresentError(bits(coloops))

    def independent_sets(self) -> int:
        """Table (see `bitset`) of the independent sets: the down-closure
        of the bases' table, n passes over a 2^n-bit int.  A family with
        more bases than non-bases (`non_bases`) scatters only those: its
        table is the size class k less them, the whole class if uniform.
        A paving one (`hyperplanes`) needs no closure: every smaller set is
        independent."""
        check_size("tables", self.n)
        cached = self._cache.get("indepsets")
        if cached is None:
            n, k, non_bases = self.n, self.rank, self.non_bases()
            pop = popcount_classes(n)
            if non_bases is None:
                cached = down_closure(table_of(self.bases, n), n)
            else:
                bases = pop[k] ^ table_of(non_bases, n) if non_bases else pop[k]
                cached = (down_closure(bases, n) if self.hyperplanes() is None
                          else reduce(or_, pop[:k], bases))
            self._cache["indepsets"] = cached
        return cached

    def rank_levels(self) -> tuple[int, ...]:
        """levels[k] = table of the subsets of rank >= k, for k = 0..rank:
        the up-closure of the independent k-sets, or, below the girth, where
        all k-sets are independent, level k-1 less its (k-1)-size class."""
        cached = self._cache.get("levels")
        if cached is not None:
            return cached
        n = self.n
        indep = self.independent_sets()
        pop = popcount_classes(n)
        levels = [(1 << (1 << n)) - 1]
        for k in range(1, self.rank + 1):
            free = indep & pop[k]
            levels.append(levels[-1] ^ pop[k - 1] if free == pop[k]
                          else up_closure(free, n))
        self._cache["levels"] = levels = tuple(levels)
        return levels

    def rank_table(self) -> bytearray:
        """rank[mask] for every mask < 2^n: the number of rank levels that
        hold the mask.  Each level is spread to one byte per mask, and the
        spread levels are added as ints (a byte never exceeds the rank, so
        no carry crosses a byte).  Nothing in the package calls it:
        perfbench/tracing.py wraps it by name, so it stays until that
        harness drops its row."""
        cached = self._cache.get("ranktab")
        if cached is not None:
            return cached
        n = self.n
        total = sum(int.from_bytes(spread(level, n), "little")
                    for level in self.rank_levels()[1:])
        table = bytearray(total.to_bytes(1 << n, "little"))
        self._cache["ranktab"] = table
        return table

    def _circuits(self) -> tuple[int, dict[int, int]]:
        """(B, X) for a basis B: X[f], for each f outside B, is the mask of
        the e in B for which B - e + f is a basis, f's fundamental circuit
        less f.  r*(n-r) basis lookups, made once."""
        cached = self._cache.get("circuits")
        if cached is None:
            family, b = self.bases, next(iter(self.bases))
            inside = [1 << e for e in bits(b)]
            cached = self._cache["circuits"] = b, {
                f: sum(eb for eb in inside if (b ^ eb) | 1 << f in family)
                for f in bits(self.full_mask & ~b)}
        return cached

    def components(self) -> list[int]:
        """Connected components as masks, ordered by smallest element.

        Two elements are in one component iff some circuit contains both.
        Merging the fundamental circuits of one basis B (`_circuits`) that
        overlap gives classes that each lie in one component, and each is a
        separator (its rank is its share of B), so the classes are the
        components.  A loop is its own circuit, and a coloop lies in none
        and ends up alone.
        """
        cached = self._cache.get("components")
        if cached is not None:
            return cached
        b, circuits = self._circuits()
        comps = []
        for f, x in circuits.items():
            circuit = 1 << f | x
            apart = []
            for c in comps:     # disjoint: merging one moves no other's overlap
                if c & circuit:
                    circuit |= c
                else:
                    apart.append(c)
            comps = apart + [circuit]
        comps += [1 << e for e in bits(b & ~reduce(or_, comps, 0))]
        comps.sort(key=lambda m: m & -m)
        self._cache["components"] = comps
        return comps

    def simplification(self) -> tuple[Matroid, list[int]]:
        """(si, classes): M restricted to one element of each parallel
        class, classes[i] the class (a mask) of si's element i, those of two
        or more elements last; M itself if it has no loop or parallel pair.
        By `_circuits`: f is a loop if X[f] is empty, parallel to x in B if
        X[f] = {x}, and to g outside B with X[g] = X[f] iff, for x the least
        of X[f], B - x - y + f + g is a basis for no y in X[f] - x (g's
        circuit in the basis B - x + f lies in X[f] - x + f + g).  A paving
        matroid (`hyperplanes`) of rank 3 or more has no circuit of fewer
        than 3 elements, so it is simple, with no circuit pass."""
        if self.rank >= 3 and self.hyperplanes() is not None:
            return self, [1 << e for e in range(self.n)]
        b, circuits = self._circuits()
        family, merged, heads = self.bases, {}, {}  # head -> its class; X -> heads
        for f, x in circuits.items():
            fb, low, rest = 1 << f, x & -x, x & (x - 1)
            # X[f] empty (a loop, merged under 0) or {x}: f joins x's class
            same = heads.setdefault(x, []) if rest else [x]
            while same and rest:    # keep the heads g that no y parts from f
                y = rest & -rest
                rest ^= y
                same = [g for g in same if b ^ low ^ y | fb | g not in family]
            if same:    # one head at most: f is parallel to it
                merged[same[0]] = merged.get(same[0], same[0]) | fb
            else:
                heads[x].append(fb)
        if not merged:
            return self, [1 << e for e in range(self.n)]
        loops, big = merged.pop(0, 0), sorted(merged)
        singles = [1 << e for e in bits(self.full_mask & ~loops & ~sum(merged.values()))]
        order = singles + big
        # si's bases are those within its elements, which span
        drop = self.full_mask ^ sum(order)
        within = [mask for mask in family if not mask & drop]
        cols, _, width = column_view(self.n, within)
        si = unpack(place([cols[e.bit_length() - 1] for e in order]), len(within), width)
        return Matroid._trusted(len(order), self.rank, si), singles + [merged[g] for g in big]

    def is_connected(self) -> bool:
        return self.n >= 1 and len(self.components()) == 1

    def is_uniform(self) -> bool:
        """True iff the bases are all rank-sized subsets of the ground set."""
        return len(self.bases) == comb(self.n, self.rank)

    def non_bases(self) -> frozenset[int] | None:
        """The k-sets that are no bases, if the bases outnumber them
        (2|B| > C(n,k)), else None: read once, off the held k-sets
        (`_k_sets`), with no 2^n-bit table."""
        cache = self._cache
        if "non_bases" not in cache:
            n, k, family = self.n, self.rank, self.bases
            non_bases = None
            if self.is_uniform():
                non_bases = frozenset()
            elif 2 * len(family) > comb(n, k):
                non_bases = _k_sets(n, k) - family
            cache["non_bases"] = non_bases
        return cache["non_bases"]

    def hyperplanes(self) -> frozenset[int] | None:
        """The hyperplanes of k or more elements, if the bases outnumber
        the non-bases and the family, whatever it was given as, is the
        bases of a paving matroid, else None; decided once, by
        `_paving_hyperplanes` on the non-bases.  At rank k >= 2 a paving
        matroid has no loop, and a coloop only beside U(k-1,n-1), with
        C(n-1,k-1) bases.  So a loop refutes it, looked for only if the
        bases are few enough to miss one, at most C(n-1,k), and so does a
        coloop, looked for only if they are fewer than C(n-1,k-1): before
        the non-bases are read."""
        cache = self._cache
        if "hyperplanes" not in cache:
            n, k, count = self.n, self.rank, len(self.bases)
            found = None
            if 2 * count > comb(n, k) and not (
                    k >= 2 and (count <= comb(n - 1, k) and self.loops()
                                or count < comb(n - 1, k - 1) and self.coloops())):
                found = _paving_hyperplanes(self.non_bases(), k)
            cache["hyperplanes"] = found
        return cache["hyperplanes"]

    # -- minors, duals, sums ---------------------------------------------

    def _minor(self, e: int, contract: bool) -> Matroid:
        """M\\e or M/e, from the bases without e and the bases with e
        (`bitset.minor_families`, split once per element and shared by
        both minors); if one side is empty, e is a loop or a coloop, and
        both minors are the other side.  Dropping e from two bases that both
        or neither hold keeps the least element of their symmetric
        difference, which orders them (`records.lex_order`), so the split, in
        the columns' record order, gives the minor its `_lex_slots` unsorted."""
        if not 0 <= e < self.n:
            raise IndexError(f"element {e} out of range for n={self.n}")
        split = self._cache.get(("split", e))
        if split is None:
            cols, ones, width = self.columns()
            split = minor_families(cols, e, ones, len(self.bases), width)
            self._cache[("split", e)] = split
        without, with_e = split
        if with_e and (contract or not without):
            rank, family = self.rank - 1, with_e
        else:
            rank, family = self.rank, without
        minor = Matroid._trusted(self.n - 1, rank, family)
        minor._cache["lex"] = to_slots(family, slot_width(self.n - 1))
        return minor

    def delete(self, e: int) -> Matroid:
        """Delete element e; the elements above e move down one index."""
        return self._minor(e, contract=False)

    def contract(self, e: int) -> Matroid:
        """Contract element e (deletion if e is a loop); reindexed as in delete."""
        return self._minor(e, contract=True)

    def restrict(self, a: int) -> Matroid:
        """Restriction to the subset `a`, reindexed; bases are the maximal
        intersections of bases with `a`, read off the columns of `a`.  Built
        once per subset: `is_split` and a trace restrict to the same ones."""
        self._check_subset(a)
        key = ("restrict", a)
        if key not in self._cache:
            cols, _, width = self.columns()
            inter = unpack(place([cols[i] for i in bits(a)]), len(self.bases), width)
            sizes = list(map(int.bit_count, inter))
            r = max(sizes)
            new_bases = compress(inter, map(r.__eq__, sizes))
            self._cache[key] = Matroid._trusted(a.bit_count(), r, new_bases)
        return self._cache[key]

    def dual(self) -> Matroid:
        """Matroid whose bases are the complements of this one's bases."""
        full = self.full_mask
        return Matroid(self.n, self.n - self.rank, (full ^ b for b in self.bases))

    def direct_sum(self, other: Matroid) -> Matroid:
        """Direct sum; `other`'s elements are shifted up by self.n."""
        shift = self.n
        new_bases = [b1 | (b2 << shift) for b1 in self.bases for b2 in other.bases]
        return Matroid(self.n + other.n, self.rank + other.rank, new_bases)

    # -- validation -----------------------------------------------------

    def check_exchange(self) -> None:
        """Verify the basis exchange axiom; raise ExchangeViolationError
        with a witness (B1, B2, e) if it fails.

        Uses Maurer's local criterion (S. B. Maurer, "Matroid basis graphs
        I", JCT B 1973): an equal-size family is a basis family iff its
        basis graph (bases joined by a single swap) is connected and
        exchange holds for every pair B1, B2 with |B1 \\ B2| = 2.  Such a
        pair shares an (r-2)-set Z, and exchange holds for all pairs
        through Z iff the link of Z (a ~ c iff Z+a+c is a basis) is
        complete multipartite on its non-isolated vertices.  Each link is
        checked by counting its vertices' neighbourhoods, and the basis
        graph is searched through its (r-1)-sets, in O(|B|*k^2) dict
        operations, k = min(r, n-r): when the corank within the support
        (the non-loops) is below the rank, the complements of the bases
        within the support are checked instead, and the witness mapped
        back.  The witness is valid but need not be the first failing pair
        in sorted order.  The search is `exchange`'s, imported here: a family
        that the reader accepts by its hyperplanes never loads it.
        """
        from .exchange import _exchange_witness, _walk_witness

        family = self.bases
        # A loop is in no basis, so it takes part in no swap: cost is
        # independent of how many loops the ground set has.
        support = self.full_mask & ~self.loops()
        dual = support.bit_count() < 2 * self.rank
        if dual:
            family = {support ^ b for b in family}
        witness = _exchange_witness(family)
        if witness is None:
            return
        b1, b2, e = witness
        if dual:
            # Complements keep distances.  With b1 - b2 = {e, f} and
            # b2 - b1 = {c, d}, (support - b2) - f + c is the complement of
            # b1 - e + d, and (support - b2) - f + d that of b1 - e + c, so
            # f has no exchange from support - b2 toward support - b1.  A
            # witness further apart lies across a cut of the basis graph,
            # which complements keep too, so the walk is redone on the
            # bases themselves.
            rest = (b1 & ~b2) ^ (1 << e)
            b1, b2 = support ^ b2, support ^ b1
            if rest.bit_count() == 1:
                e = rest.bit_length() - 1
            else:
                b1, b2, e = _walk_witness(self.bases, b1, b2)
        raise ExchangeViolationError(bits(b1), bits(b2), e)

    # -- serialization ---------------------------------------------------

    def _lex_slots(self) -> bytes:
        """The bases' slots in the record's order: given by `_minor` to a
        deletion or contraction, else sorted once.

        All bases have `rank` elements, and for lists of equal length
        lexicographic order is descending order of the bit-reversed masks
        (see `records.lex_order`), so the masks are sorted as ints.  The
        records module is imported on a miss alone, so no hit pays for it."""
        cached = self._cache.get("lex")
        if cached is None:
            from .records import lex_order
            cached = self._cache["lex"] = lex_order(self.bases, self.n)
        return cached

    def to_dict(self) -> dict:
        """matroid-bases-v1 record, in canonical order (bases sorted
        ascending within, lexicographically across), each basis written
        out by `records.element_lists` as a new list."""
        from .records import element_lists
        return self._record(element_lists(self._lex_slots(), self.n))

    def _record(self, bases: list) -> dict:
        """`to_dict`, with `bases` the element lists in record order."""
        return {"format": "matroid-bases-v1", "n": self.n, "rank": self.rank,
                "bases": bases}


def _extensions(family) -> dict[int, int]:
    """ext[s] = the mask of the a with s + a in a family of equal-size
    masks, for each s that is a member less one element: one dict write
    per member and element."""
    ext = {}
    get = ext.get
    for b in family:
        rest = b
        while rest:
            low = rest & -rest
            rest ^= low
            s = b ^ low
            ext[s] = get(s, 0) | low
    return ext


def _paving_hyperplanes(non_bases: frozenset[int], k: int) -> frozenset[int] | None:
    """The sets H of k or more elements whose k-subsets are exactly these
    non-bases of a family of k-sets, pairwise meeting in at most k-2, if
    there are such sets, else None.  Then the family is the bases of a
    paving matroid, and the H its hyperplanes of k or more elements
    (Hartmanis 1959; Oxley, "Matroid Theory", 2.1).

    One pass maps each (k-1)-subset s of a non-basis to ext[s], the e with
    s + e a non-basis (`_extensions`).  If no two non-bases share a
    (k-1)-subset, each is its own H: a sparse paving family, uniform
    included.  Else each s with two or more in ext[s] lies in the H
    s + ext[s], which holds all its k-subsets iff every one of its
    C(|H|,k-1) (k-1)-subsets names it so; two such H then never share k-1
    elements, which would name a larger one.  A non-basis h in such an H
    has all its (k-1)-subsets in it, so h less its least element tells
    whether h is its own H."""
    ext = _extensions(non_bases)
    if len(ext) == k * len(non_bases):
        return non_bases
    named = Counter(s | x for s, x in ext.items() if x & (x - 1))
    if any(count != comb(h.bit_count(), k - 1) for h, count in named.items()):
        return None
    return frozenset(named).union(h for h in non_bases
                                  if not (x := ext[h & (h - 1)]) & (x - 1))


@lru_cache(maxsize=None)
def _k_sets(n: int, k: int) -> frozenset:
    """The masks of every k-subset of n elements, held like the Tutte
    engine's closed forms: C(n,k) masks, under twice the bases of a family
    that reads them for its non-bases."""
    return frozenset(k_subsets(k, n))


def matroid_from_dict(d: dict) -> Matroid:
    """Parse and fully validate a matroid-bases-v1 record."""
    require_record(d, "matroid-bases-v1", ("n", "rank", "bases"))
    bases = d["bases"]
    if not (isinstance(bases, list) and all(isinstance(b, list) for b in bases)):
        raise InputError("'bases' must be a list of lists of elements")
    return from_bases(d["n"], d["rank"], bases)


# -- constructors --------------------------------------------------------

def from_bases(n: int, rank: int, bases: Iterable[Iterable[int]]) -> Matroid:
    """Build a matroid from explicit bases, validating element types and
    ranges, distinctness, and the exchange axiom.  Within the "tables" size
    limit, a dense paving family (`Matroid.hyperplanes`) is a matroid's
    without Maurer's pass; every other family, and so every failure, takes
    it."""
    require_int("n", n)
    require_int("rank", rank)
    masks, family = _checked_masks(n, bases)
    # the list is packed and checked in C, its slots kept for the
    # deletion-contraction root; the family is the set's own frozenset, so
    # that a fault is named, and an exchange witness found, in its order
    # (the list's frozenset may iterate in another)
    m = object.__new__(Matroid)
    m._fill_checked(n, rank, masks, frozenset(family))
    if n > SIZE_LIMITS["tables"] or m.hyperplanes() is None:
        m.check_exchange()
    return m


def _checked_masks(n: int, bases: Iterable[Iterable[int]]) -> tuple[list[int], set[int]]:
    """The masks of `bases`, in record order and as a set: checked in bulk
    (`bitset.masks_of`, then one set), or, on a fault and for input that
    no bulk pass takes, one element at a time, which raises InputError at
    the first bad element, repeated element or repeated basis, so that
    every error names the first offender."""
    masks = masks_of(bases, n)
    if masks is not None and len(seen := set(masks)) == len(masks):
        return masks, seen
    masks, seen = [], set()
    for subset in map(tuple, bases):
        for e in subset:
            require_int("element", e)
            if not 0 <= e < n:
                raise InputError(f"element {e} outside ground set of size {n}")
        mask = mask_of(subset)
        if mask.bit_count() != len(subset):
            raise InputError(f"basis {list(subset)} repeats an element")
        if mask in seen:
            raise InputError(f"basis {bits(mask)} is listed more than once")
        seen.add(mask)
        masks.append(mask)
    return masks, seen


def uniform(k: int, n: int) -> Matroid:
    """Uniform matroid U_{k,n}: every k-subset is a basis.  The count
    C(n,k) is checked against the "bases" limit one factor at a time, so
    that a count past it is never computed in full, and then C(n,k) * n
    against the "basis-bits" limit."""
    if not 0 <= k <= n:
        raise ValueError(f"uniform({k},{n}): need 0 <= k <= n")
    count, limit = 1, SIZE_LIMITS["bases"]
    for i in range(min(k, n - k)):
        count = count * (n - i) // (i + 1)     # C(n, i+1) <= C(n, k)
        if count > limit:
            raise LimitExceededError(
                f"uniform({k},{n}): C({n},{k}) bases exceed the bases "
                f"limit {limit}")
    check_size("basis-bits", count * n)
    return Matroid(n, k, k_subsets(k, n))


def minimal(k: int, n: int) -> Matroid:
    """Minimal matroid T_{k,n}: the unique connected rank-k matroid on n
    elements with the minimum basis count k(n-k)+1.

    Graphically a (k+1)-cycle with one edge replaced by n-k parallel copies;
    here elements 0..k-1 are the cycle path and k..n-1 the parallel class.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"minimal({k},{n}): need 1 <= k <= n-1")
    count = k * (n - k) + 1
    check_size("bases", count)
    check_size("basis-bits", count * n)
    path = (1 << k) - 1
    bases = [path]
    for i in range(k):
        for p in range(k, n):
            bases.append((path ^ (1 << i)) | (1 << p))
    return Matroid(n, k, bases)


def recognize_minimal(m: Matroid) -> tuple[int, int] | None:
    """Return (k, n) if m is isomorphic to the minimal matroid T_{k,n}.

    T_{k,n} has a hub basis B* (the cycle path) such that every other basis
    is a single swap (B* \\ {i}) | {p} with p outside B*; since the basis
    count k(n-k)+1 forces all k(n-k) swaps to occur, finding any such hub
    certifies the isomorphism exactly.  No permutation search needed.
    Decided once per matroid: the split test and the trace both ask.
    """
    cache = m._cache
    if "minimal" not in cache:
        k, n, family = m.rank, m.n, m.bases
        cache["minimal"] = (k, n) if (
            1 <= k <= n - 1 and len(family) == k * (n - k) + 1
            and any(all(b == hub or (b ^ hub).bit_count() == 2 for b in family)
                    for hub in family)) else None
    return cache["minimal"]


def rank2_from_partition(class_sizes: Iterable[int]) -> Matroid:
    """Loopless rank-2 matroid with the given parallel-class sizes; bases are
    the pairs taking their two elements from different classes."""
    sizes = list(class_sizes)
    if len(sizes) < 2:
        raise ValueError("need at least 2 parallel classes for rank 2")
    if any(s < 1 for s in sizes):
        raise ValueError("every class must have at least one element")
    # each pair of elements from different classes is a basis
    n = sum(sizes)
    count = (n * n - sum(s * s for s in sizes)) // 2
    check_size("bases", count)
    check_size("basis-bits", count * n)
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    bases = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            for e in range(starts[i], starts[i + 1]):
                for f in range(starts[j], starts[j + 1]):
                    bases.append((1 << e) | (1 << f))
    return Matroid(n, 2, bases)


def graphic(g) -> Matroid:
    """Cycle matroid of a multigraph: elements are edges, bases the maximum
    spanning forests.  Graph self-loops become matroid loops."""
    check_size("spanning-forests", len(g.edges))
    rank = g.vertex_count - g.component_count()
    return Matroid(len(g.edges), rank, g.max_spanning_forests())
