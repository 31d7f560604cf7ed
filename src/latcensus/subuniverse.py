"""Counting and enumerating subuniverses (join/meet-closed subsets) of a lattice.

The empty set counts as a subuniverse; the nonempty ones are exactly the
sublattices.  A subuniverse is a bitmask over element indices, in and out
of every function here; ``core.bit_indices`` lists its members.

``count_subuniverses`` takes one of two paths, chosen from n alone.  Up to
``core.TABLE_LIMIT`` = 12 elements, ``_count_by_tables`` tests every subset
at once on truth tables (Knuth, TAOCP Vol. 4A, 7.1): one 2^n-bit int per
element, and per incomparable pair one AND-NOT that marks the subsets
missing its join or meet.  Each element added doubles that work, and wide
lattices gain least: at n <= 12 the tables were at least twice as fast as
the frontier pass on every lattice tried (M_10, n = 12: 2.4x), at n = 13
M_11 gains only 1.2x, and at n = 14 M_12 is already slower (0.9x; Python
3.11, shared 2-core VM).  A larger lattice is counted by one
level-by-level frontier pass over the whole lattice
(``_count_by_frontier``), as in frontier-based search for ZDDs (Kawahara,
Inoue, Iwashita & Minato, IEICE Trans. Fundamentals E100-A, 2017): the
elements are decided in index order and equal states merge, so a count
costs time in proportion to the widths of the levels, not to the number of
subuniverses.  Right after a cut (an element comparable to everything)
nothing above it is pending, so a level holds at most 2 states there: a
glued sum is counted block by block without splitting it or building any
table.  M_61 takes milliseconds; a wide 46-element closure-system lattice
about half a second and 27 MB, and a wide 63-element one several seconds
and 69 MB (Python 3.11, shared 2-core VM).  Closure of a given subset is
tested by ``core.unclosed_pair``, the check ``sublattice`` uses too.

Enumeration yields each subuniverse, so ``enumerate_subuniverses`` is the
one pruned depth-first scan over the whole lattice in linear-extension
order, and no count goes through it.  Only the earlier elements
incomparable to a new element can refuse it or force a join (one below it
meets it in itself, already decided, and joins it in the new element), so a
node costs one AND per distinct meet and one OR per distinct join with
those, not one test per chosen element.  The top refuses nothing, so one
leaf decides the last element below it and the top together: no call
decides the top alone (C_1, with nothing below its top, is not scanned).
The CLI renders each mask as two strings looked up by its low and high
halves (``cli._member_tables``).  The scan needs no sort: it meets
the subsets of each size in exactly the reverse of member-tuple order, so
bucketing by size and reading each bucket backwards gives the output order.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from .core import (
    ENUM_LIMIT,
    TABLE_LIMIT,
    Lattice,
    bit_indices,
    check_size,
    member_mask,
    truth_tables,
    unclosed_pair,
)


def is_subuniverse(lat: Lattice, subset: Union[int, Iterable[int]]) -> bool:
    """True iff the subset is closed under join and meet (empty set included).

    ``subset`` is a bitmask or an iterable of indices.
    """
    return unclosed_pair(lat, member_mask(lat, subset)) is None


def count_subuniverses(lat: Lattice) -> int:
    """Exact number of subuniverses, empty set included.

    A lattice with n <= TABLE_LIMIT elements is counted by truth tables
    (``_count_by_tables``), a larger one by the frontier pass
    (``_count_by_frontier``); the choice follows n alone.  Both agree with
    count_subuniverses_naive everywhere the three run.
    """
    if lat.n <= TABLE_LIMIT:
        return _count_by_tables(lat)
    return _count_by_frontier(lat)


def _count_by_tables(lat: Lattice) -> int:
    """Count by bit-parallel truth tables: every subset is tested at once.

    A subset is not closed iff it holds an incomparable pair a < b but not
    both join(a, b) and meet(a, b); comparable pairs are their own join and
    meet.  With ``T = core.truth_tables(n)``, the non-closed subsets are the OR
    over those pairs of ``T[a] & T[b] & ~(T[join] & T[meet])``, and the
    count is the number of the 2^n subsets left, the empty one included.
    """
    n = lat.n
    tables = truth_tables(n)
    full = lat.full_mask
    unclosed = 0
    for a in range(n):
        jrow, mrow = lat.join_table[a], lat.meet_table[a]
        holds_a = tables[a]
        # the b > a incomparable to a: every element below a precedes it
        for b in bit_indices(full & ~(lat.leq[a] | ((2 << a) - 1))):
            unclosed |= holds_a & tables[b] & ~(tables[jrow[b]] & tables[mrow[b]])
    return (1 << n) - unclosed.bit_count()


def _count_by_frontier(lat: Lattice) -> int:
    """Exact number of subuniverses, by one level-by-level frontier pass.

    The elements are decided in index order, a linear extension.  After
    0..e-1 are decided, the rest of the count depends on the chosen set
    only through

    - ``req``: the later elements forced in as joins of chosen ones;
    - ``kept``: the chosen elements that are meets of two elements >= e
      (only these can still be asked for: meet(e, f) <= e for f > e);
    - ``rows``: for each undecided f below the top, "blocked" when some
      chosen c has meet(f, c) outside the set, else the joins join(f, c)
      != f not already in ``req``.  Row r (for f = e + r) is bits
      r*w .. r*w + w - 1 of one int: the joins by index, and the top bit
      as the blocked flag, alone in its row.

    Each level maps a state to its count; equal states merge, so the cost
    follows the number of distinct states per level, not the number of
    subuniverses.  Only two levels are alive at once, and the old one is
    drained as the new one fills.  Right after a cut (an element comparable
    to every other) nothing above it is pending, so a level holds at most
    2 states there, and glued sums cost no more than their blocks.  The
    top never blocks and joins to itself: a last-level state counts once
    with the top in, and once more when ``req`` does not force the top.
    """
    n = lat.n
    meet_table = lat.meet_table
    top = n - 1
    w = n + 1
    cols = (1 << n) - 1
    ones = 0  # bit 0 of every row after 0: a mask times it is copied to each
    for r in range(n - 2):
        ones |= 1 << r * w
    # later[e]: the elements after e that are not above e, the only ones
    # with join(f, e) != f or meet(f, e) != e
    later = [~(lat.leq[e] | (1 << e) - 1) & cols for e in range(n)]
    # keep[e]: the elements below e that are meets of two elements >= e
    keep = [0] * n
    meets = 0
    for e in range(top - 1, 0, -1):
        for f in bit_indices(later[e]):
            meets |= 1 << meet_table[e][f]
        keep[e] = meets & ((1 << e) - 1)

    level = {(0, 0, 0): 1}
    for e in range(top):
        bit = 1 << e
        keep_next = keep[e + 1]
        row_ones = ones >> e * w  # the rows left after e
        flags = row_ones << n
        jrow = lat.join_table[e]
        mrow = meet_table[e]
        # with e chosen, row f gains join(f, e), and is blocked unless
        # meet(f, e) is chosen: the rows are grouped by that meet
        joins = 0
        by_meet: dict[int, int] = {}
        for f in bit_indices(later[e]):
            r = (f - e - 1) * w
            joins |= 1 << r + jrow[f]
            m = 1 << mrow[f]
            by_meet[m] = by_meet.get(m, 0) | 1 << r + n
        meet_rows = list(by_meet.items())
        nxt: dict[tuple[int, int, int], int] = {}
        get = nxt.get
        while level:
            (req, kept, rows), count = level.popitem()
            rest = rows >> w
            if not req & bit:  # e left out
                key = (req, kept & keep_next, rest)
                nxt[key] = get(key, 0) + count
            if rows >> n & 1:
                continue  # e is blocked: it cannot be added
            req = (req | (rows & cols)) & ~bit
            chosen = kept | bit
            rest |= joins
            for m, blocked in meet_rows:
                if not chosen & m:
                    rest |= blocked
            # clear forced joins from every row and all but the flag from
            # blocked rows, so that equal states have equal keys
            rest &= ~(req * row_ones | ((rest & flags) >> n) * cols)
            key = (req, chosen & keep_next, rest)
            nxt[key] = get(key, 0) + count
        level = nxt

    topbit = 1 << top
    return sum(count if req & topbit else 2 * count for (req, _, _), count in level.items())


def count_subuniverses_naive(lat: Lattice) -> int:
    """Independent oracle: scan all 2^n subsets and test closure directly."""
    n = lat.n
    check_size("naive scan", n, ENUM_LIMIT)
    total = 0
    for mask in range(1 << n):
        if is_subuniverse(lat, mask):
            total += 1
    return total


def enumerate_subuniverses(lat: Lattice) -> Iterator[int]:
    """Yield every subuniverse's mask once, ordered by size then member tuple.

    A pruned depth-first scan decides the elements in index order, a linear
    extension: the meet of a new element e with a chosen one lands on an
    index already decided (a missing meet prunes at once) and the join on a
    later index (a forced inclusion).  Only the earlier elements
    incomparable to e matter: one below e meets it in itself, already
    chosen, and joins it in e.  So they are grouped once by their meet and
    by their join with e: e is refused when a group holds a chosen element
    and its meet is not chosen, and a node costs one operation per distinct
    meet or join, not per chosen element.  The top's meet with a chosen
    element is that element and its join is the top, so it is never
    refused: the call that decides the last element below it also decides
    the top, and is the scan's leaf.  Each index is excluded before it
    is included.  Two subsets of equal size first differ at the smallest
    index i of their symmetric difference: the one holding i comes first as
    a member tuple but is reached second by the scan.  So within one size
    the scan order is exactly the reverse of tuple order, and the masks are
    bucketed by size and each bucket read backwards; no sort key is
    computed.
    """
    check_size("enumeration", lat.n, ENUM_LIMIT)
    top = lat.n - 1
    # (meet or join bit, group) pairs per element: its earlier incomparable
    # elements, grouped by their meet and by their join with it
    meet_rules: list[list[tuple[int, int]]] = []
    join_rules: list[list[tuple[int, int]]] = []
    for e in range(top):
        by_meet: dict[int, int] = {}
        by_join: dict[int, int] = {}
        mrow, jrow = lat.meet_table[e], lat.join_table[e]
        for c in bit_indices((1 << e) - 1 & ~lat.geq[e]):
            by_meet[1 << mrow[c]] = by_meet.get(1 << mrow[c], 0) | 1 << c
            by_join[1 << jrow[c]] = by_join.get(1 << jrow[c], 0) | 1 << c
        meet_rules.append(list(by_meet.items()))
        join_rules.append(list(by_join.items()))
    if not top:  # n = 1: no element below the top, nothing to scan
        yield from (0, 1)
        return
    last, topbit = top - 1, 1 << top
    buckets: list[list[int]] = [[] for _ in range(lat.n + 1)]

    def rec(e: int, chosen: int, size: int, required: int) -> None:
        bit = 1 << e
        if not required & bit:
            if e < last:
                rec(e + 1, chosen, size, required)
            else:  # the leaf: the top may always be added
                if not required & topbit:
                    buckets[size].append(chosen)
                buckets[size + 1].append(chosen | topbit)
        for m, group in meet_rules[e]:
            if chosen & group and not chosen & m:
                return  # a meet fell outside: no extension includes e
        for j, group in join_rules[e]:
            if chosen & group:
                required |= j
        chosen |= bit
        if e < last:
            rec(e + 1, chosen, size + 1, required)
        else:
            if not required & topbit:
                buckets[size + 1].append(chosen)
            buckets[size + 2].append(chosen | topbit)

    rec(0, 0, 0, 0)
    for bucket in buckets:
        yield from reversed(bucket)
