"""Hypothesis strategies shared across the test modules."""

import random

from hypothesis import strategies as st

from latcensus.core import from_covers

ATOM_SIZES = [
    ("C1", 1),
    ("C2", 2),
    ("C3", 3),
    ("C4", 4),
    ("B4", 4),
    ("N5", 5),
    ("M3", 5),
]


GLUED_TERMS = ATOM_SIZES + [("B8", 8), ("C2xC3", 6), ("C3xC3", 9)]


@st.composite
def glued_expressions(draw, max_size: int = 16) -> str:
    """Glued sums of atoms and small products, at most max_size elements."""
    terms: list[str] = []
    size = 1
    for _ in range(draw(st.integers(1, 8))):
        fits = [t for t in GLUED_TERMS if size + t[1] - 1 <= max_size]
        if not fits:
            break
        name, k = draw(st.sampled_from(fits))
        terms.append(name)
        size += k - 1
    return "+".join(terms)


@st.composite
def sized_lattice_expressions(draw, max_size: int = 12) -> tuple[str, int]:
    """(expression, element count) pairs with at most max_size elements.

    The count is computed while the string is drawn, from the atoms' sizes,
    independently of the expression builder.
    """

    def build(budget: int, depth: int) -> tuple[str, int]:
        choices = [a for a in ATOM_SIZES if a[1] <= budget]
        if budget < 4 or depth >= 3 or draw(st.booleans()):
            return draw(st.sampled_from(choices))
        if draw(st.booleans()):
            left, ls = build(budget - 1, depth + 1)
            right, rs = build(budget - ls, depth + 1)
            return f"({left}+{right})", ls + rs - 1
        left, ls = build(budget // 2, depth + 1)
        right, rs = build(max(1, budget // max(ls, 2)), depth + 1)
        if ls * rs > budget:
            return left, ls
        return f"({left}x{right})", ls * rs

    return build(max_size, 0)


def lattice_expressions(max_size: int = 12):
    """Expression strings whose lattices have at most max_size elements."""
    return sized_lattice_expressions(max_size).map(lambda pair: pair[0])


def intersection_closed(k: int, masks, max_n: int) -> set[int]:
    """The full k-set and ``masks``, closed under intersection, as bitmasks.

    Masks are added in order; one whose closure would make the family
    larger than max_n sets is skipped.
    """
    family = {(1 << k) - 1}
    for m in masks:
        grown = family | {m & x for x in family}
        if len(grown) <= max_n:
            family = grown
    return family


def closure_covers(family: set[int]) -> tuple[int, list[tuple[int, int]]]:
    """(n, covers) of an intersection-closed family ordered by inclusion.

    The sets are indexed by (size, value), a linear extension, and x is
    covered by y when x is a proper subset of y with no member strictly
    between them.  The order comes from set inclusion alone, so
    ``from_covers`` only has to validate it.
    """
    sets = sorted(family, key=lambda s: (s.bit_count(), s))
    covers = []
    for j, y in enumerate(sets):
        below = [i for i in range(j) if sets[i] & y == sets[i]]
        for i in below:
            if not any(h != i and sets[i] & sets[h] == sets[i] for h in below):
                covers.append((i, j))
    return len(sets), covers


@st.composite
def closure_lattices(draw, max_n: int = 20):
    """Lattices of the closed sets of random closure systems on a 7-set, at
    most max_n elements.  Every lattice with at most 7 join-irreducibles
    is such a lattice (Birkhoff), so the draws include wide, indecomposable
    blocks that no expression builds."""
    size = draw(st.integers(1, max_n))
    # uniform subsets of a 7-set from a drawn seed: hypothesis's own
    # integers favour their bounds, which close to small families
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    masks = [rng.getrandbits(7) for _ in range(28)]
    return from_covers(*closure_covers(intersection_closed(7, masks, size)))
