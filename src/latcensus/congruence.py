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
closed under "q in S and p D q imply p in S".  J and each q_* are read off
the ``geq`` rows, and one pass over the elements incomparable to q finds
the p with p D q; no congruence is closed.  The closed subsets are counted
on truth tables over J, or by a memoized split when J is large.
``principal_congruence`` and
``join_irreducible_congruences`` close congruences by substitution and
return them as block tuples; the tests use them as an independent oracle.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .core import COUNT_LIMIT, NAIVE_LIMIT, TABLE_LIMIT, Lattice, bit_indices, check_size
from .core import truth_tables


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


def _dependency_rows(lat: Lattice) -> list[int]:
    """For each join-irreducible q, in index order, the join-irreducibles p
    with p D q or p = q, as bitmasks over the positions in that order.
    q is in J iff the rest of ``geq[q]`` has a greatest element, q_*: by the
    linear extension, the last index s there, if ``geq[s]`` is that rest.
    Only an x incomparable to q can show p D q with p != q."""
    join, leq, geq, n = lat.join_table, lat.leq, lat.geq, lat.n
    pos = [0] * n  # bit of each join-irreducible's position, 0 elsewhere
    ji = []
    for q in range(1, n):
        rest = geq[q] ^ 1 << q
        s = rest.bit_length() - 1
        if geq[s] == rest:
            pos[q] = 1 << len(ji)
            ji.append((q, s))
    rows = []
    for q, s in ji:
        q_join, qs_join = join[q], join[s]
        below = 0
        for x in bit_indices(~(leq[q] | geq[q]) & (1 << n) - 1):
            below |= geq[q_join[x]] & ~geq[qs_join[x]]
        row = pos[q]
        while below:  # inline: a bit_indices generator per row costs more here
            low = below & -below
            below ^= low
            row |= pos[low.bit_length() - 1]
        rows.append(row)
    return rows


def _count_by_tables(rows: list[int]) -> int:
    """Number of subsets of J closed under D, all tested at once on
    ``T = core.truth_tables(|J|)``: the ones not closed are the OR over q of
    ``T[q] & ~(T[p] & T[p'] & ...)`` over row q.  A subset closed under D
    is closed under D*, so no transitive closure is taken."""
    tables = truth_tables(len(rows))
    unclosed = 0
    for q, row in enumerate(rows):
        holds_row = -1
        while row:
            low = row & -row
            row ^= low
            holds_row &= tables[low.bit_length() - 1]
        unclosed |= tables[q] & ~holds_row
    return (1 << len(rows)) - unclosed.bit_count()


def _count_by_memo(rows: list[int]) -> int:
    """Number of subsets of J closed under D*, by Warshall's closure of the
    rows and ``_count_down_sets``."""
    down = list(rows)
    for k in range(len(down)):  # Warshall's transitive closure
        bit = 1 << k
        for a, row in enumerate(down):
            if row & bit:
                down[a] = row | down[k]
    up = [0] * len(down)
    for q, row in enumerate(down):
        for p in bit_indices(row):
            up[p] |= 1 << q
    return _count_down_sets(up, down)


def count_congruences(lat: Lattice) -> int:
    """|Con(L)| as the number of down-sets of the dependency preorder on the
    join-irreducibles J: on truth tables up to ``core.TABLE_LIMIT`` of them,
    by the memoized split above; the choice follows |J| alone."""
    check_size("congruence count", lat.n, COUNT_LIMIT)
    rows = _dependency_rows(lat)
    if len(rows) <= TABLE_LIMIT:
        return _count_by_tables(rows)
    return _count_by_memo(rows)


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

