"""Counting and enumerating subuniverses (join/meet-closed subsets) of a lattice.

The empty set counts as a subuniverse; the nonempty ones are exactly the
sublattices.  A subuniverse is a bitmask over element indices, in and out
of every function here; ``core.bit_indices`` lists its members.  One
pruned depth-first scan (``_scan``) visits the closed subsets of an index
range in linear-extension order.  Counting splits the
lattice at its cuts (elements comparable to everything) into glued blocks,
tallies each block's closed subsets by whether they hold the block's bottom
and top, and multiplies those 2x2 tables.  A scan costs time in proportion
to its block's closed subsets, so a 2-element block (four of them) costs
constant time and chains O(n) instead of O(2^n).  Closure of a given subset
is tested by ``core.unclosed_pair``, the check ``sublattice`` uses too.
Enumeration runs the same scan over the whole lattice and needs no sort:
the scan meets the subsets of each size in exactly the reverse of
member-tuple order, so bucketing by size and reading each bucket backwards
gives the output order.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Union

from .core import (
    ENUM_LIMIT,
    EmptyGenerator,
    Lattice,
    bit_indices,
    check_size,
    glued_cuts,
    member_mask,
    unclosed_pair,
)


def is_subuniverse(lat: Lattice, subset: Union[int, Iterable[int]]) -> bool:
    """True iff the subset is closed under join and meet (empty set included).

    ``subset`` is a bitmask or an iterable of indices.
    """
    return unclosed_pair(lat, member_mask(lat, subset)) is None


def generated_sublattice(lat: Lattice, subset: Union[int, Iterable[int]]) -> int:
    """Mask of the smallest subuniverse containing the (nonempty) subset."""
    mask = member_mask(lat, subset)
    if mask == 0:
        raise EmptyGenerator("generated sublattice needs at least one generator")
    while True:
        new = mask
        elems = list(bit_indices(mask))
        for i, a in enumerate(elems):
            jrow = lat.join_table[a]
            mrow = lat.meet_table[a]
            for b in elems[i:]:
                new |= 1 << jrow[b]
                new |= 1 << mrow[b]
        if new == mask:
            return mask
        mask = new


def _scan(lat: Lattice, lo: int, hi: int, leaf: Callable[[int], object]) -> None:
    """Call ``leaf(mask)`` once for each closed subset of the indices lo..hi.

    The range must be closed under join and meet: the whole lattice, or one
    glued block between consecutive cuts.  Elements are decided in index
    order, a linear extension, so the meet of a new element with a chosen
    one lands on an index already decided (a missing meet prunes at once)
    and the join lands on a later index (a forced inclusion).
    """
    join_table = lat.join_table
    meet_table = lat.meet_table

    def rec(e: int, chosen_mask: int, chosen: list[int], required: int) -> None:
        bit = 1 << e
        if e == hi:
            # the range's top: its meet with a chosen element is that
            # element and its join is itself, so it may always be added
            if not required & bit:
                leaf(chosen_mask)
            leaf(chosen_mask | bit)
            return
        if not required & bit:
            rec(e + 1, chosen_mask, chosen, required)
        jrow = join_table[e]
        mrow = meet_table[e]
        new_required = required & ~bit
        for c in chosen:
            if not chosen_mask >> mrow[c] & 1:
                return  # a meet fell outside: no extension includes e
            j = jrow[c]
            if j != e:
                new_required |= 1 << j
        chosen.append(e)
        rec(e + 1, chosen_mask | bit, chosen, new_required)
        chosen.pop()

    rec(lo, 0, [], 0)


def _end_table(lat: Lattice, lo: int, hi: int) -> list[list[int]]:
    """Closed subsets of the block lo..hi, tallied as table[lo in][hi in]."""
    table = [[0, 0], [0, 0]]

    def tally(mask: int) -> None:
        table[mask >> lo & 1][mask >> hi & 1] += 1

    _scan(lat, lo, hi, tally)
    return table


def count_subuniverses(lat: Lattice) -> int:
    """Exact number of subuniverses, by a transfer matrix over glued blocks.

    Every element of a block lies below every element of the blocks above
    it, so a subset is closed exactly when its trace on each block is; the
    blocks share only their end cuts.  A vector indexed by whether the
    current cut is in the subset is folded through each block's 2x2 table
    of closed subsets by end pattern.  Agrees with count_subuniverses_naive
    everywhere both run.
    """
    cuts = glued_cuts(lat)
    out, into = 1, 1  # the bottom may be out of or in the subset
    for lo, hi in zip(cuts, cuts[1:]):
        t = _end_table(lat, lo, hi)
        out, into = out * t[0][0] + into * t[1][0], out * t[0][1] + into * t[1][1]
    return out + into


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

    ``_scan`` decides indices in increasing order, excluding each one
    before including it.  Two subsets of equal size first differ at the
    smallest index i of their symmetric difference: the one holding i comes
    first as a member tuple but is reached second by the scan.  So within
    one size the scan order is exactly the reverse of tuple order, and the
    masks are bucketed by size and each bucket read backwards; no sort key
    is computed.
    """
    check_size("enumeration", lat.n, ENUM_LIMIT)
    buckets: list[list[int]] = [[] for _ in range(lat.n + 1)]
    _scan(lat, 0, lat.n - 1, lambda mask: buckets[mask.bit_count()].append(mask))
    for bucket in buckets:
        yield from reversed(bucket)


def trace_count(lat: Lattice, subset: Union[int, Iterable[int]]) -> int:
    """Number of distinct intersections of the subset with subuniverses.

    For any H this satisfies |Sub(L)| <= trace_count(L, H) * 2^(n - |H|),
    since each trace has at most 2^(n-|H|) preimages.  Only the distinct
    traces are held, never the subuniverses themselves.
    """
    check_size("trace count", lat.n, ENUM_LIMIT)
    h = member_mask(lat, subset)
    traces: set[int] = set()
    _scan(lat, 0, lat.n - 1, lambda mask: traces.add(mask & h))
    return len(traces)
