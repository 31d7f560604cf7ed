"""Structural predicates and the glued-sum shape classifier.

The extremal subuniverse counts at size n are 2^n for chains, 26*2^(n-5) for
a B4 block glued between two chains, and 23*2^(n-5) for an N5 block glued
between two chains; ``classify`` detects those shapes and attaches the
predicted count, reading the shape off the glued blocks' element and
cover counts.  Every predicate here reads the order rows, the covers or
the glued cuts of ``core``; none counts or enumerates subuniverses.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import Lattice, bit_indices, cover_masks, glued_cuts, mask_of, sublattice

CHAIN = "Chain"
GLUED_B4 = "GluedB4"
GLUED_N5 = "GluedN5"
OTHER = "Other"


def is_chain(lat: Lattice) -> bool:
    return len(glued_cuts(lat)) == lat.n


def find_antichain(lat: Lattice, k: int) -> Optional[tuple[int, ...]]:
    """Lexicographically first k-element antichain, or None.

    Only k = 2 and k = 3 are supported; the count bounds need nothing wider.
    The members are read off incomparability masks: the elements after a
    and incomparable to it are the bits above index a outside ``leq[a]``
    (every element below a has a lower index).  The answer is the first a
    with such a b, and for k = 3 the first such b with a third one, c,
    outside ``leq[b] | geq[b]`` too; no such c precedes b, or (a, c, b)
    would have been found first.
    """
    if k not in (2, 3):
        raise ValueError(f"antichain size must be 2 or 3, got {k}")
    leq, geq = lat.leq, lat.geq
    full = lat.full_mask
    for a in range(lat.n):
        after_a = full & ~((2 << a) - 1) & ~leq[a]
        for b in bit_indices(after_a):
            if k == 2:
                return (a, b)
            third = after_a & ~(leq[b] | geq[b])
            if third:
                return (a, b, (third & -third).bit_length() - 1)
    return None


def doubly_irreducibles(lat: Lattice) -> tuple[int, ...]:
    lower, upper = cover_masks(lat.n, lat.covers)
    return tuple(
        u for u in range(lat.n) if lower[u].bit_count() <= 1 and upper[u].bit_count() <= 1
    )


def isolated_elements(lat: Lattice) -> tuple[int, ...]:
    """Doubly irreducible elements comparable to every element."""
    cuts = set(glued_cuts(lat))
    return tuple(u for u in doubly_irreducibles(lat) if u in cuts)


def isolated_edges(lat: Lattice) -> tuple[tuple[int, int], ...]:
    """Cover pairs (u, v) whose ideal/filter union covers the whole lattice."""
    full = lat.full_mask
    return tuple(
        (u, v) for u, v in lat.covers if lat.geq[u] | lat.leq[v] == full
    )


class GluedDecomposition(NamedTuple):
    """Ordered indecomposable blocks whose glued sum rebuilds the lattice.

    Cut elements (comparable to everything) are shared between adjacent
    blocks, so block sizes sum to n + number of interior cuts.
    """

    cuts: tuple[int, ...]
    blocks: tuple[Lattice, ...]


def decompose_glued_sum(lat: Lattice) -> GluedDecomposition:
    """Split at every cut element into maximal glued-sum blocks.

    Cut elements are exactly the indices comparable to all others; they are
    linearly ordered, every element lies between two consecutive cuts, and
    each block occupies a contiguous index range.
    """
    cuts = glued_cuts(lat)
    blocks = []
    for lo, hi in zip(cuts, cuts[1:]):
        blocks.append(sublattice(lat, mask_of(range(lo, hi + 1))))
    return GluedDecomposition(cuts, tuple(blocks))


class Classification(NamedTuple):
    """Shape tag plus the predicted count and the chains around the core.

    ``prefix``/``suffix`` count the chain elements strictly below/above the
    core block, which is the index range prefix..n-1-suffix; they are zero
    for Chain and Other.  ``predicted_count`` is 2^n, 13*2^(n-4) or
    23*2^(n-5) for the three named shapes, None for Other.
    """

    tag: str
    predicted_count: Optional[int]
    prefix: int = 0
    suffix: int = 0


def classify(lat: Lattice) -> Classification:
    """Match the lattice against the three extremal-count shapes.

    A glued block has no cut strictly inside it, so the only such block on
    4 elements is B4, and the only ones on 5 elements are N5 (5 covers) and
    M3 (6 covers).  The shape is therefore read off the single block with
    more than 2 elements: its element and cover counts.  No lattice is
    built.
    """
    n = lat.n
    cuts = glued_cuts(lat)
    if len(cuts) == n:
        return Classification(CHAIN, 1 << n)
    big = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 1]
    if len(big) != 1:
        return Classification(OTHER, None)
    lo, hi = big[0]
    shape = (hi - lo + 1, sum(lo <= a and b <= hi for a, b in lat.covers))
    if shape == (4, 4):
        tag, count = GLUED_B4, 13 << (n - 4)
    elif shape == (5, 5):
        tag, count = GLUED_N5, 23 << (n - 5)
    else:
        return Classification(OTHER, None)
    return Classification(tag, count, prefix=lo, suffix=n - 1 - hi)
