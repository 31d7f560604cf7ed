"""Hypothesis strategies shared across the test modules."""

from hypothesis import strategies as st

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
