"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's optimized code paths: the lattice
class oracle scans every order matrix instead of augmenting, closures are
recomputed from scratch, and random relabelings build permutations straight
from the cover relation.
"""

from __future__ import annotations

import json
import random
from itertools import combinations, permutations, product
from typing import Iterable, Iterator

from latcensus.canon import canonical_form
from latcensus.census import CensusRecord, Child
from latcensus.congruence import _count_down_sets, join_irreducible_congruences
from latcensus.core import (
    BadIndexOrder,
    Lattice,
    LatticeError,
    NotALattice,
    _finish,
    bit_indices,
    from_covers,
    mask_of,
    member_mask,
    named,
    sublattice,
)
from latcensus.subuniverse import enumerate_subuniverses


class NotAPoset(LatticeError):
    """The input relation is not reflexive/antisymmetric/transitive."""


def from_order_matrix(n: int, rows: Iterable[int]) -> Lattice:
    """Construct a lattice from up-set bitmask rows of an order relation,
    validating that the relation is a poset in linear-extension indexing
    and that it is a lattice."""
    if n < 1:
        raise NotALattice("a lattice has at least one element")
    up = list(rows)
    if len(up) != n:
        raise NotAPoset(f"expected {n} rows, got {len(up)}")
    for i, row in enumerate(up):
        if not row >> i & 1:
            raise NotAPoset(f"relation is not reflexive at {i}")
        if row & ((1 << i) - 1):
            raise BadIndexOrder(f"element {i} lies below a smaller index")
        if row >> n:
            raise NotAPoset(f"row {i} mentions indices beyond {n - 1}")
    for i in range(n):
        for j in bit_indices(up[i] ^ (1 << i)):
            if up[j] & ~up[i]:
                raise NotAPoset(f"relation is not transitive at ({i}, {j})")
    return _finish(n, up)


def dual(lat: Lattice) -> Lattice:
    """Order-reversed lattice; joins and meets swap roles."""
    n = lat.n
    return from_covers(n, [(n - 1 - j, n - 1 - i) for i, j in lat.covers])


def lower_covers(lat: Lattice) -> list[list[int]]:
    """``lower_covers(lat)[x]``: the elements x covers, in index order."""
    below: list[list[int]] = [[] for _ in range(lat.n)]
    for i, j in lat.covers:
        below[j].append(i)
    return below


def upper_covers(lat: Lattice) -> list[list[int]]:
    """``upper_covers(lat)[x]``: the elements covering x, in index order."""
    above: list[list[int]] = [[] for _ in range(lat.n)]
    for i, j in lat.covers:
        above[i].append(j)
    return above


def join_irreducibles(lat: Lattice) -> tuple[int, ...]:
    """Elements with at most one lower cover; the bottom qualifies."""
    below = lower_covers(lat)
    return tuple(u for u in range(lat.n) if len(below[u]) <= 1)


def meet_irreducibles(lat: Lattice) -> tuple[int, ...]:
    """Elements with at most one upper cover; the top qualifies."""
    above = upper_covers(lat)
    return tuple(u for u in range(lat.n) if len(above[u]) <= 1)


def isolated_characterization_holds(lat: Lattice, u: int) -> bool:
    """Whether every subuniverse stays closed when u is added or removed;
    this property characterizes the isolated elements."""
    lat._check(u)
    masks = set(enumerate_subuniverses(lat))
    bit = 1 << u
    return all(m | bit in masks and m & ~bit in masks for m in masks)


def trace_count(lat: Lattice, subset: int | Iterable[int]) -> int:
    """Number of distinct intersections of the subset with subuniverses."""
    h = member_mask(lat, subset)
    return len({m & h for m in enumerate_subuniverses(lat)})


def is_congruence(lat: Lattice, blocks: Iterable[Iterable[int]]) -> bool:
    """Whether ``blocks`` partition the elements and every two elements of
    a block have joins and meets with each z in one block."""
    block_of: dict[int, int] = {}
    for k, block in enumerate(blocks):
        for x in block:
            if not 0 <= x < lat.n or x in block_of:
                return False
            block_of[x] = k
    if len(block_of) != lat.n:
        return False
    return all(
        block_of[lat.join(a, z)] == block_of[lat.join(b, z)]
        and block_of[lat.meet(a, z)] == block_of[lat.meet(b, z)]
        for a in range(lat.n)
        for b in range(lat.n)
        if block_of[a] == block_of[b]
        for z in range(lat.n)
    )


def record_from_json_line(line: str) -> CensusRecord:
    """The census record a JSONL line was written from."""
    d = json.loads(line)
    covers = tuple(map(tuple, d["covers"]))
    return CensusRecord(d["n"], d["canon"], covers, d["sub_count"], d["class"],
                        d["antichain3"], d.get("con_count"))


def json_line_by_dumps(rec: CensusRecord) -> str:
    """The census JSONL line as ``json.dumps`` writes the record's fields:
    compact separators, ``con_count`` only when counted."""
    d: dict = {
        "n": rec.n,
        "canon": rec.canon,
        "covers": [list(c) for c in rec.covers],
        "sub_count": rec.sub_count,
    }
    if rec.con_count is not None:
        d["con_count"] = rec.con_count
    d["class"] = rec.classification
    d["antichain3"] = rec.has_antichain3
    return json.dumps(d, separators=(",", ":"))


def record_lattice(rec: CensusRecord) -> Lattice:
    """The lattice a census record describes."""
    return from_covers(rec.n, rec.covers)


def lattice_class_forms_bruteforce(n: int) -> set[bytes]:
    """Canonical forms of all n-element lattice classes, by scanning every
    reflexive upper-triangular relation, filtering posets and lattices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    forms: set[bytes] = set()
    for choice in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if choice >> k & 1:
                up[i] |= 1 << j
        try:
            lat = from_order_matrix(n, up)
        except (NotAPoset, NotALattice):
            continue
        forms.add(canonical_form(lat))
    return forms


def augmentations_unpruned(parent: Lattice) -> Iterator[Child]:
    """All one-element extensions of a lattice (with duplicates).

    ``census._augmentations`` as first written, with no rejection before the
    canonical form: every mask of the body with the bottom set is tested as
    a down-set, and every down-set passing the greatest-lower-bound
    condition gives a child.
    """
    m = parent.n
    if m == 1:
        yield Child(2, ((0, 1),))
        return
    body = m - 1  # indices 0..m-2 survive; new element m-1; new top m
    body_mask = (1 << body) - 1
    inner_covers = [(i, j) for i, j in parent.covers if j < body]
    body_maximal = [y for y in range(body) if parent.leq[y] & body_mask == 1 << y]

    for extra in range(1 << (body - 1)):
        d_mask = extra << 1 | 1
        ok = True
        for d in bit_indices(d_mask):
            if parent.geq[d] & ~d_mask:
                ok = False  # not a down-set of the body
                break
        if not ok:
            continue
        for a in range(body):
            if d_mask >> a & 1:
                continue
            below = d_mask & parent.geq[a]
            top_of = below.bit_length() - 1
            if below & ~parent.geq[top_of]:
                ok = False  # no greatest element under a inside D
                break
        if not ok:
            continue
        pairs = list(inner_covers)
        for d in bit_indices(d_mask):
            if parent.leq[d] & d_mask == 1 << d:
                pairs.append((d, body))
        for y in body_maximal:
            if not d_mask >> y & 1:
                pairs.append((y, m))
        pairs.append((body, m))
        pairs.sort()  # canonical_form's height pass needs them ordered by i
        yield Child(m + 1, tuple(pairs))


def from_covers_full_square(n: int, covers: Iterable[tuple[int, int]]) -> Lattice:
    """``core.from_covers`` as first written: the same closure, then every
    ordered pair (a, b) of the n x n square visited in row order for its
    join and meet, and the covers found in a second pass and sorted."""
    if n < 1:
        raise NotALattice("a lattice has at least one element")
    adj: list[list[int]] = [[] for _ in range(n)]
    for pair in covers:
        i, j = pair
        if not (0 <= i < j < n):
            raise BadIndexOrder(f"cover pair {pair!r} violates 0 <= i < j < {n}")
        adj[i].append(j)
    up = [1 << i for i in range(n)]
    for i in range(n - 1, -1, -1):
        row = up[i]
        for j in adj[i]:
            row |= up[j]
        up[i] = row

    down = [0] * n
    for i in range(n):
        row = up[i]
        for j in bit_indices(row):
            down[j] |= 1 << i

    join_rows = []
    meet_rows = []
    for a in range(n):
        jrow = bytearray(n)
        mrow = bytearray(n)
        up_a = up[a]
        down_a = down[a]
        for b in range(n):
            common = up_a & up[b]
            if not common:
                raise NotALattice(f"elements {a} and {b} have no common upper bound")
            m = (common & -common).bit_length() - 1
            if common & ~up[m]:
                raise NotALattice(f"elements {a} and {b} have no least upper bound")
            jrow[b] = m
            common = down_a & down[b]
            if not common:
                raise NotALattice(f"elements {a} and {b} have no common lower bound")
            m = common.bit_length() - 1
            if common & ~down[m]:
                raise NotALattice(f"elements {a} and {b} have no greatest lower bound")
            mrow[b] = m
        join_rows.append(bytes(jrow))
        meet_rows.append(bytes(mrow))

    found = []
    for a in range(n):
        for b in bit_indices(up[a] ^ (1 << a)):
            if up[a] & down[b] == (1 << a) | (1 << b):
                found.append((a, b))
    found.sort()

    return Lattice(n, tuple(up), tuple(down), tuple(join_rows), tuple(meet_rows), tuple(found))


def canonical_form_bruteforce(lat: Lattice) -> bytes:
    """``canonical_form`` by trying every permutation within each sorted
    (height, #lower covers, #upper covers) class, twins included."""
    n = lat.n
    h = [0] * n  # the longest chain from the bottom to each element
    for i, j in lat.covers:  # sorted by i, so each h[i] is final when read
        h[j] = max(h[j], h[i] + 1)
    below, above = lower_covers(lat), upper_covers(lat)
    key = [(h[x], len(below[x]), len(above[x])) for x in range(n)]
    classes: dict[tuple[int, int, int], list[int]] = {}
    for x in range(n):
        classes.setdefault(key[x], []).append(x)
    ordered = [classes[k] for k in sorted(classes)]

    covers = lat.covers
    prefix = bytes([n])
    best: bytes | None = None
    pos = [0] * n
    for combo in product(*(permutations(cls) for cls in ordered)):
        idx = 0
        for cls in combo:
            for x in cls:
                pos[x] = idx
                idx += 1
        pairs = sorted((pos[i], pos[j]) for i, j in covers)
        blob = prefix + bytes(b for pair in pairs for b in pair)
        if best is None or blob < best:
            best = blob
    assert best is not None
    return best


def classify_by_canonical_form(lat: Lattice) -> tuple:
    """``structure.classify`` as first written, as (tag, predicted_count,
    prefix, suffix): the cuts are the elements comparable to every element,
    and a single block with more than 2 elements is matched against B4 and
    N5 by canonical form, whatever its size."""
    n = lat.n
    cuts = [x for x in range(n) if all(lat.le(x, y) or lat.le(y, x) for y in range(n))]
    if len(cuts) == n:
        return "Chain", 1 << n, 0, 0
    big = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 1]
    if len(big) == 1:
        lo, hi = big[0]
        form = canonical_form(sublattice(lat, mask_of(range(lo, hi + 1))))
        for tag, name, count in (("GluedB4", "B4", 13 << n >> 4), ("GluedN5", "N5", 23 << n >> 5)):
            if form == canonical_form(named(name)):
                return tag, count, lo, n - 1 - hi
    return "Other", None, 0, 0


def find_antichain_bruteforce(lat: Lattice, k: int) -> tuple[int, ...] | None:
    """``structure.find_antichain`` as first written: the first k-subset of
    the elements comparable to fewer than all, in ``combinations`` order,
    whose members are pairwise incomparable."""
    comparable = [lat.leq[i] | lat.geq[i] for i in range(lat.n)]
    candidates = [i for i in range(lat.n) if comparable[i] != lat.full_mask]
    for combo in combinations(candidates, k):
        if all(not comparable[a] >> b & 1 for a, b in combinations(combo, 2)):
            return combo
    return None


def con_count_by_closures(lat: Lattice) -> int:
    """|Con(L)| from the congruences themselves: close every cover pair by
    substitution, order the distinct results by refinement, count down-sets."""
    ji = join_irreducible_congruences(lat)
    k = len(ji)
    block_of = [{x: set(block) for block in theta for x in block} for theta in ji]
    up = [1 << i for i in range(k)]
    down = [1 << i for i in range(k)]
    for i in range(k):
        for j in range(k):
            if i != j and all(set(b) <= block_of[j][b[0]] for b in ji[i]):
                up[i] |= 1 << j
                down[j] |= 1 << i
    return _count_down_sets(up, down)


def enumerate_output(lat: Lattice, fmt: str) -> str:
    """``latcensus enumerate`` output in format ``fmt``, rendered as it was
    first written: the closed subsets, sorted by (size, member tuple), then
    json.dumps per line, ``size k: ...`` rows, or one indent=2 payload.
    Only the set of subsets comes from the program."""
    masks = list(enumerate_subuniverses(lat))
    masks.sort(key=lambda m: (m.bit_count(), tuple(bit_indices(m))))
    subs = [list(bit_indices(m)) for m in masks]
    if fmt == "jsonl":
        return "".join(json.dumps(s) + "\n" for s in subs)
    if fmt == "table":
        rows = [f"size {len(s)}: {' '.join(map(str, s)) or '-'}" for s in subs]
        return "\n".join(rows) + "\n"
    return json.dumps({"n": lat.n, "count": len(subs), "subuniverses": subs}, indent=2) + "\n"


def diamond(k: int) -> Lattice:
    """M_k: a bottom, k pairwise incomparable atoms and a top."""
    return from_covers(k + 2, [(0, a) for a in range(1, k + 1)]
                       + [(a, k + 1) for a in range(1, k + 1)])


def random_relabeling(lat: Lattice, rng: random.Random) -> Lattice:
    """Rebuild the lattice under a random linear-extension relabeling."""
    remaining = set(range(lat.n))
    new_index = {}
    below = [set(covered) for covered in lower_covers(lat)]
    k = 0
    while remaining:
        ready = sorted(x for x in remaining if not below[x] & remaining)
        x = rng.choice(ready)
        new_index[x] = k
        k += 1
        remaining.remove(x)
    pairs = [(new_index[i], new_index[j]) for i, j in lat.covers]
    return from_covers(lat.n, pairs)


def glued_count_bruteforce(blocks: list[Lattice]) -> int:
    """Subuniverse count of the glued sum of ``blocks``, bottom to top.

    Every subset of each block is tested against the block's own join and
    meet.  The closed ones are tallied by whether they hold the block's
    bottom and top, and the tallies are chained through the shared ends.
    """
    vec = [1, 1]  # the bottom of the sum out of / in the subset
    for blk in blocks:
        n = blk.n
        table = [[0, 0], [0, 0]]
        for mask in range(1 << n):
            members = [i for i in range(n) if mask >> i & 1]
            if all(
                mask >> blk.join(a, b) & 1 and mask >> blk.meet(a, b) & 1
                for a in members
                for b in members
            ):
                table[mask & 1][mask >> (n - 1) & 1] += 1
        vec = [vec[0] * table[0][y] + vec[1] * table[1][y] for y in (0, 1)]
    return vec[0] + vec[1]


def glued_sum_by_covers(parts: list[Lattice]) -> Lattice:
    """The glued sum of ``parts`` as first built: the parts' covers, each
    part shifted so that its bottom is the previous top, closed by one
    ``from_covers``."""
    pairs: list[tuple[int, int]] = []
    shift = 0
    for part in parts:
        pairs += [(i + shift, j + shift) for i, j in part.covers]
        shift += part.n - 1
    return from_covers(shift + 1, pairs)


def closure_bruteforce(lat: Lattice, seed: set[int]) -> set[int]:
    """Fixed-point closure under join and meet, on plain sets."""
    out = set(seed)
    changed = True
    while changed:
        changed = False
        for a in list(out):
            for b in list(out):
                for c in (lat.join(a, b), lat.meet(a, b)):
                    if c not in out:
                        out.add(c)
                        changed = True
    return out


ATOM_SIZES = [
    ("C1", 1),
    ("C2", 2),
    ("C3", 3),
    ("C4", 4),
    ("C5", 5),
    ("B4", 4),
    ("N5", 5),
    ("M3", 5),
]


def random_expression(rng: random.Random, max_size: int) -> str:
    """A random lattice expression whose value has at most max_size elements."""

    def build(budget: int, depth: int) -> tuple[str, int]:
        choices = [a for a in ATOM_SIZES if a[1] <= budget]
        if budget < 4 or depth >= 4 or rng.random() < 0.4:
            return rng.choice(choices)
        if rng.random() < 0.6:
            left, ls = build(budget - 1, depth + 1)
            right, rs = build(budget - ls, depth + 1)
            return f"({left}+{right})", ls + rs - 1
        left, ls = build(budget // 2, depth + 1)
        right, rs = build(max(1, budget // max(ls, 2)), depth + 1)
        if ls * rs > budget:
            return left, ls
        return f"({left}x{right})", ls * rs

    return build(max_size, 0)[0]
