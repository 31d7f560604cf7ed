"""Congruence counting for finite lattices.

The congruence lattice of a finite lattice is distributive, and its
join-irreducible members are exactly the congruences generated by single
cover pairs.  |Con(L)| therefore equals the number of down-sets of the
order on those congruences, which avoids ever materializing the full
congruence lattice.

That order is read off the lattice without computing any congruence.  Let J
be the join-irreducible elements, each p in J with its unique lower cover
p_*.  Every cover pair generates the same congruence as some (p_*, p) with
p in J, and con(p_*, p) <= con(q_*, q) holds iff p D* q, the reflexive
transitive closure of Day's dependency relation: p D q iff p != q and some
x has p <= q v x but not p <= q_* v x (Freese, Jezek & Nation, "Free
Lattices", AMS 1995, ch. 2; Freese, "Computing congruences efficiently",
Algebra Universalis 59, 2008).  So |Con(L)| is the number of subsets of J
closed under "q in S and p D q imply p in S".  One pass over the join table
per q in J finds D; no congruence is closed.  ``principal_congruence`` and
``join_irreducible_congruences`` close congruences by substitution and
return them as block tuples; the tests use them as an independent oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .core import COUNT_LIMIT, NAIVE_LIMIT, Lattice, bit_indices, check_size


def _respects_operations(lat: Lattice, cls: Sequence[int]) -> bool:
    """True iff the partition with class assignment ``cls`` has the
    substitution property for join and meet."""
    join, meet, n = lat.join_table, lat.meet_table, lat.n
    for a in range(n):
        for b in range(a + 1, n):
            if cls[a] != cls[b]:
                continue
            ja, ma, jb, mb = join[a], meet[a], join[b], meet[b]
            for z in range(n):
                if cls[ja[z]] != cls[jb[z]] or cls[ma[z]] != cls[mb[z]]:
                    return False
    return True


def is_congruence(lat: Lattice, blocks: Iterable[Iterable[int]]) -> bool:
    """Check that ``blocks`` partition the elements and respect join and meet."""
    cls = [-1] * lat.n
    for k, block in enumerate(blocks):
        for x in block:
            if not 0 <= x < lat.n or cls[x] != -1:
                return False
            cls[x] = k
    return -1 not in cls and _respects_operations(lat, cls)


def principal_congruence(lat: Lattice, a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """Smallest congruence collapsing a and b (iterated substitution
    closure), as its blocks sorted by least element."""
    lat._check(a)
    lat._check(b)
    if a == b:
        raise ValueError("principal congruence needs two distinct elements")
    n = lat.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(a, b)]
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[rx] = ry
        jx, mx = lat.join_table[x], lat.meet_table[x]
        jy, my = lat.join_table[y], lat.meet_table[y]
        for z in range(n):
            queue.append((jx[z], jy[z]))
            queue.append((mx[z], my[z]))
    blocks: dict[int, list[int]] = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    return tuple(tuple(b) for b in blocks.values())


def join_irreducible_congruences(lat: Lattice) -> list[tuple[tuple[int, ...], ...]]:
    """Distinct congruences generated by single cover pairs, in order of
    first cover."""
    return list(dict.fromkeys(principal_congruence(lat, u, v) for u, v in lat.covers))


def _count_down_sets(up_masks: list[int], down_masks: list[int]) -> int:
    memo: dict[int, int] = {0: 1}

    def rec(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        m = (mask & -mask).bit_length() - 1
        result = rec(mask & ~up_masks[m]) + rec(mask & ~down_masks[m])
        memo[mask] = result
        return result

    return rec((1 << len(up_masks)) - 1)


def _dependency_down_masks(lat: Lattice) -> list[int]:
    """For each join-irreducible q, in index order, the join-irreducibles p
    with p D* q, as bitmasks over the positions in that order."""
    join, geq, lower = lat.join_table, lat.geq, lat.lower_covers
    ji = [q for q in range(lat.n) if len(lower[q]) == 1]
    rows = []
    for q in ji:
        q_join, q_star_join = join[q], join[lower[q][0]]
        below = 0  # x = 0 puts q itself in, so the rows come out reflexive
        for x in range(lat.n):
            below |= geq[q_join[x]] & ~geq[q_star_join[x]]
        rows.append(sum(1 << k for k, p in enumerate(ji) if below >> p & 1))
    for k in range(len(rows)):  # Warshall's transitive closure
        bit = 1 << k
        for a, row in enumerate(rows):
            if row & bit:
                rows[a] = row | rows[k]
    return rows


def count_congruences(lat: Lattice) -> int:
    """|Con(L)| as the number of down-sets of the dependency preorder on the
    join-irreducibles."""
    check_size("congruence count", lat.n, COUNT_LIMIT)
    down = _dependency_down_masks(lat)
    up = [0] * len(down)
    for q, row in enumerate(down):
        for p in bit_indices(row):
            up[p] |= 1 << q
    return _count_down_sets(up, down)


def _set_partitions(n: int) -> Iterator[list[int]]:
    """All partitions of range(n) as restricted-growth class assignments."""
    cls = [0] * n

    def rec(i: int, top: int):
        if i == n:
            yield cls
            return
        for c in range(top + 2):
            cls[i] = c
            yield from rec(i + 1, max(top, c))

    yield from rec(1, 0)


def count_congruences_naive(lat: Lattice) -> int:
    """Independent oracle: test every partition for the substitution property."""
    check_size("naive congruence scan", lat.n, NAIVE_LIMIT)
    return sum(_respects_operations(lat, cls) for cls in _set_partitions(lat.n))

