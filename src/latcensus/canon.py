"""Canonical forms for lattice isomorphism classes.

Order isomorphisms preserve height and cover degrees, so it is enough to
search relabelings whose index order refines the (height, #lower covers,
#upper covers) key.  Every such labeling is automatically a linear extension,
and the lexicographically smallest serialized cover list over the family is a
complete isomorphism invariant.

Twins, elements with the same lower covers and the same upper covers, share
a key, and are grouped by their pair of ``core.cover_masks`` bitmasks.
Swapping two twins maps the cover relation onto itself, so any two
labelings that differ only in how twins are ordered give the same cover
list.  The search therefore visits each distinct arrangement of a class's
twin groups once, with the members of a group in index order.  The minimum
over this smaller family is the minimum over the whole family: the result
is unchanged, and the diamond M_k (k atoms) costs one labeling, not k!.
A class with one element, or with one twin group, has one arrangement and
is placed once, outside the search.

The relabeled pair (i, j) is compared as the integer 64*i + j, which keeps
the byte order for the indices below 64 that occur here.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from .core import CANON_LIMIT, Lattice, NotALattice, check_size, cover_masks, from_covers


def _arrangements(groups: list[list[int]]) -> list[list[int]]:
    """Distinct orders of the members of two or more ``groups`` in which
    every group keeps its own index order, i.e. the permutations of a
    multiset.  From the last group back, each group is inserted into every
    arrangement of the groups after it, at each combination of positions."""
    if all(len(g) == 1 for g in groups):  # the common case, left to C code
        return list(map(list, permutations(g[0] for g in groups)))
    arrangements = [list(groups[-1])]
    for members in reversed(groups[:-1]):
        merged = []
        for rest in arrangements:
            for chosen in combinations(range(len(rest) + len(members)), len(members)):
                out = rest[:]
                for p, x in zip(chosen, members):  # ascending, so each lands at p
                    out.insert(p, x)
                merged.append(out)
        arrangements = merged
    return arrangements


def canonical_form(lat: Lattice) -> bytes:
    """Relabel-invariant byte string identifying the isomorphism class.

    Layout: one byte for n followed by the relabeled cover pairs in sorted
    order, two bytes each.  Only ``lat.n`` and ``lat.covers`` are read, so
    any exact cover list sorted by lower element will do, such as a
    generation child that has not been built as a ``Lattice``.
    """
    n = lat.n
    check_size("canonical form", n, CANON_LIMIT)
    covers = lat.covers
    lower, upper = cover_masks(n, covers)
    height = [0] * n
    for i, j in covers:  # sorted by i, and i < j, so heights settle in order
        if height[j] <= height[i]:
            height[j] = height[i] + 1

    # the key (height, #lower, #upper) and the index, 6 bits a field, sorted
    # once: a run of equal keys is one class, placed at the run's positions
    order = sorted([
        height[x] << 18 | lower[x].bit_count() << 12 | upper[x].bit_count() << 6 | x
        for x in range(n)
    ])
    pos = [0] * n
    choices = []  # (first position, arrangements) of the classes with a choice
    start = 0
    while start < n:
        key = order[start] >> 6
        end = start + 1
        while end < n and order[end] >> 6 == key:
            end += 1
        if end - start == 1:
            pos[order[start] & 63] = start
        else:
            members = [packed & 63 for packed in order[start:end]]
            groups: dict[tuple[int, int], list[int]] = {}
            for x in members:  # twins: same lower and same upper covers
                groups.setdefault((lower[x], upper[x]), []).append(x)
            if len(groups) > 1:
                choices.append((start, _arrangements(list(groups.values()))))
            else:
                for idx, x in enumerate(members, start):
                    pos[x] = idx
        start = end

    best: list[int] | None = None
    for combo in product(*[arrangements for _, arrangements in choices]):
        for (first, _), cls in zip(choices, combo):
            for idx, x in enumerate(cls, first):
                pos[x] = idx
        codes = [pos[i] << 6 | pos[j] for i, j in covers]
        codes.sort()
        if best is None or codes < best:
            best = codes
    assert best is not None
    blob = [n]
    for c in best:
        blob += (c >> 6, c & 63)
    return bytes(blob)


def canonical_lattice(form: bytes) -> Lattice:
    """Rebuild the canonically labeled representative from its form.

    The validating ``from_covers`` builds it, and its covers must be exactly
    the form's pairs: a list that is not a transitive reduction is refused,
    and so is a form that is empty or ends inside a pair.
    """
    if len(form) % 2 == 0:
        raise NotALattice(f"form {form.hex()!r} is empty or ends inside a cover pair")
    n = form[0]
    body = form[1:]
    pairs = tuple((body[k], body[k + 1]) for k in range(0, len(body), 2))
    lat = from_covers(n, pairs)
    if lat.covers != pairs:
        raise NotALattice(f"form {form.hex()} lists pairs that are not covers")
    return lat
