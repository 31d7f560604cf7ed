import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcensus.canon import canonical_form
from latcensus.census import census_records
from latcensus.core import (
    BadIndexOrder,
    ExpressionError,
    IndexOutOfRange,
    Lattice,
    LatticeError,
    NotALattice,
    SizeLimit,
    UnknownName,
    build_expression,
    chain,
    direct_product,
    from_covers,
    glued_cuts,
    glued_sum,
    named,
    sublattice,
)
from latcensus.structure import classify, decompose_glued_sum
from latcensus.verify import run_checks, spectrum
from oracles import (
    NotAPoset,
    dual,
    from_covers_full_square,
    from_order_matrix,
    glued_sum_by_covers,
    record_lattice,
)
from strategies import lattice_expressions, sized_lattice_expressions


@pytest.mark.parametrize(
    "name,size",
    [("B4", 4), ("B8", 8), ("N5", 5), ("M3", 5), ("C2xC3", 6), ("chain:1", 1), ("C7", 7)],
)
def test_named_sizes(name, size):
    assert named(name).n == size


def test_named_chain_spellings_agree():
    assert named("chain:4") == named("C4") == chain(4)


def test_named_unknown():
    with pytest.raises(UnknownName):
        named("C0")
    with pytest.raises(UnknownName):
        named("B16")


def test_from_covers_two_chain():
    two = from_covers(2, [(0, 1)])
    assert two.n == 2 and two.covers == ((0, 1),)
    assert two.le(0, 1) and not two.le(1, 0)


def test_from_covers_b4_matches_named():
    assert from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)]) == named("B4")


def test_from_covers_b8_matches_named():
    """The cube: element x is a bit triple, covered by x with one more bit."""
    pairs = [(x, x | b) for x in range(8) for b in (1, 2, 4) if not x & b]
    assert named("B8").covers == tuple(sorted(pairs))
    assert from_covers(8, pairs) == named("B8")


@pytest.mark.parametrize("name", ["B4", "B8", "N5", "M3", "C2xC3", "C6"])
def test_from_covers_roundtrip_named(name):
    lat = named(name)
    assert from_covers(lat.n, lat.covers) == lat


def test_from_covers_rejects_joinless_pair():
    with pytest.raises(NotALattice):
        from_covers(4, [(0, 1), (0, 2)])


def test_from_covers_rejects_bad_index_order():
    with pytest.raises(BadIndexOrder):
        from_covers(3, [(1, 0), (1, 2)])
    with pytest.raises(BadIndexOrder):
        from_covers(3, [(0, 3)])


def test_from_covers_size_limits():
    with pytest.raises(SizeLimit):
        from_covers(64, [(i, i + 1) for i in range(63)])
    with pytest.raises(NotALattice):
        from_covers(0, [])
    assert chain(63).n == 63


def test_oversize_chain_is_refused_before_it_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit):
            chain(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_overlong_chain_name_is_refused():
    # more digits than int() converts; C<digits> is refused, not a ValueError
    with pytest.raises(UnknownName, match="5000 digits"):
        named("C" + "7" * 5000)


def test_down_set_rows_are_a_positional_field():
    assert list(Lattice._fields) == [
        "n", "leq", "geq", "join_table", "meet_table", "covers"
    ]


@given(lattice_expressions(max_size=12))
def test_down_set_rows_transpose_the_up_set_rows(expr):
    lat = build_expression(expr)
    for i, j in itertools.product(range(lat.n), repeat=2):
        assert lat.geq[j] >> i & 1 == lat.leq[i] >> j & 1


@st.composite
def upper_triangular_relations(draw, max_n: int = 10):
    """(n, pairs i < j) with each pair drawn independently.  Some draws
    also put 0 under everything or n - 1 over everything, so that lattices
    and each of the four bound failures come up."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    relation = [pair for pair, keep in zip(pairs, chosen) if keep]
    if draw(st.booleans()):
        relation += [(0, j) for j in range(1, n)]
    if draw(st.booleans()):
        relation += [(i, n - 1) for i in range(n - 1)]
    return n, relation


def _built(build, n, pairs):
    try:
        return build(n, pairs)
    except LatticeError as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(upper_triangular_relations())
def test_from_covers_matches_the_full_square_build(relation):
    """The half-square build returns the lattice the full n x n loop builds,
    or refuses with the same exception type and message."""
    n, pairs = relation
    assert _built(from_covers, n, pairs) == _built(from_covers_full_square, n, pairs)


def test_two_maximal_lower_bounds_are_refused_as_a_missing_join():
    """3 and 4 have the maximal common lower bounds 1 and 2, so they have no
    meet; the refusal names the pair (1, 2), whose upper bounds 3 and 4 have
    no least one, and whose row comes first."""
    pairs = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
    for build in (from_covers, from_covers_full_square):
        with pytest.raises(NotALattice, match=r"^elements 1 and 2 have no least upper bound$"):
            build(6, pairs)


def test_from_covers_reduces_redundant_pairs():
    assert from_covers(3, [(0, 1), (1, 2), (0, 2)]) == chain(3)


def test_from_order_matrix_validation():
    with pytest.raises(NotAPoset):
        from_order_matrix(3, [0b011, 0b110, 0b100])  # 0<1<2 but not 0<2
    with pytest.raises(NotAPoset):
        from_order_matrix(2, [0b01, 0b00])  # not reflexive at 1
    with pytest.raises(BadIndexOrder):
        from_order_matrix(2, [0b01, 0b11])  # 1 <= 0 with larger index
    assert from_order_matrix(3, [0b111, 0b110, 0b100]) == chain(3)


def test_from_order_matrix_rejects_non_lattice():
    # 0 below 1 and 2, nothing else: 1 and 2 have no join
    with pytest.raises(NotALattice):
        from_order_matrix(3, [0b111, 0b010, 0b100])


def test_index_out_of_range():
    b4 = named("B4")
    for call in (b4.join, b4.meet, b4.le):
        with pytest.raises(IndexOutOfRange):
            call(0, 4)


def test_empty_subset_and_empty_chain_are_refused():
    with pytest.raises(NotALattice, match="^the empty subset induces no lattice$") as info:
        sublattice(named("B4"), 0)
    assert type(info.value) is NotALattice
    with pytest.raises(UnknownName, match="^chain size must be >= 1, got 0$") as info:
        chain(0)
    assert type(info.value) is UnknownName


def test_frozen_value():
    """Every declared field of the six record types is read-only."""
    b4 = named("B4")
    values = [
        b4,
        census_records(5)[0],
        classify(b4),
        decompose_glued_sum(b4),
        run_checks("main", [5])[0],
        spectrum(5),
    ]
    for value in values:
        for field in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))


def test_b4_join_meet_of_atoms():
    b4 = named("B4")
    assert b4.join(1, 2) == 3
    assert b4.meet(1, 2) == 0


def test_n5_meet_of_incomparables():
    n5 = named("N5")  # a=1, b=2, c=3
    assert n5.meet(2, 3) == 0
    assert n5.join(2, 1) == 4
    assert n5.le(1, 3)


def _check_lattice_laws(lat):
    n = lat.n
    for a in range(n):
        assert lat.join(a, a) == a and lat.meet(a, a) == a
        for b in range(n):
            assert lat.join(a, b) == lat.join(b, a)
            assert lat.meet(a, b) == lat.meet(b, a)
            assert lat.join(a, lat.meet(a, b)) == a  # absorption
            assert lat.meet(a, lat.join(a, b)) == a
            assert lat.le(a, b) == (lat.join(a, b) == b) == (lat.meet(a, b) == a)


@pytest.mark.parametrize("name", ["B4", "B8", "N5", "M3", "C2xC3", "C5"])
def test_lattice_laws_named(name):
    _check_lattice_laws(named(name))


@pytest.mark.parametrize("n", range(1, 9))
def test_lattice_laws_census(census, n):
    # order/join/meet consistency and absorption over every class, plus
    # associativity on all triples
    for rec in census(n):
        lat = record_lattice(rec)
        _check_lattice_laws(lat)
        for a, b, c in itertools.product(range(n), repeat=3):
            assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))
            assert lat.meet(lat.meet(a, b), c) == lat.meet(a, lat.meet(b, c))


def test_glued_sum_of_two_chains_is_chain():
    assert glued_sum(chain(2), chain(2)) == chain(3)


def test_glued_sum_singleton_is_neutral():
    for name in ("B4", "N5", "C4"):
        lat = named(name)
        assert glued_sum(lat, chain(1)) == lat
        assert glued_sum(chain(1), lat) == lat


def test_glued_sum_sizes():
    assert glued_sum(named("B4"), named("B4")).n == 7
    assert build_expression("B4+C2+B4").n == 8


def test_long_glued_sum_is_built_flat():
    assert build_expression("+".join(["C2"] * 62)).covers == chain(63).covers
    with pytest.raises(SizeLimit):
        build_expression("+".join(["C2"] * 63))
    n5, m3, b4 = (named(x) for x in ("N5", "M3", "B4"))
    nested = glued_sum(glued_sum(n5, m3), b4)
    assert build_expression("N5+M3+B4") == nested
    assert build_expression("N5+(M3+B4)") == nested
    assert build_expression("(C2+N5)x C2+C3") == glued_sum(
        direct_product(glued_sum(chain(2), n5), chain(2)), chain(3)
    )


@given(st.lists(lattice_expressions(max_size=10), min_size=1, max_size=6), st.booleans())
def test_glued_sum_equals_the_closure_build(exprs, fill):
    """Rows assembled from the parts' tables equal the lattice one
    from_covers closes from the shifted covers; ``fill`` tops the sum up
    with a chain to exactly the 63-element limit (the drawn parts have at
    most 55 elements together)."""
    parts = [build_expression(e) for e in exprs]
    n = sum(p.n for p in parts) - len(parts) + 1
    if fill:
        parts.append(chain(64 - n))
    glued = glued_sum(*parts)
    assert glued == glued_sum_by_covers(parts)
    assert glued.n == (63 if fill else n)


def test_oversize_glued_sum_is_refused_with_the_lattice_limit():
    big = chain(63)
    with pytest.raises(SizeLimit, match=r"^lattice bounded at n <= 63, got 64$"):
        glued_sum(big, chain(2))
    with pytest.raises(SizeLimit, match=r"^lattice bounded at n <= 63, got 621$"):
        glued_sum(*[big] * 10)


def test_glued_cuts_examples():
    assert glued_cuts(build_expression("B4+C3+N5")) == (0, 3, 4, 5, 9)
    assert glued_cuts(chain(4)) == (0, 1, 2, 3)
    assert glued_cuts(named("M3")) == (0, 4)
    assert glued_cuts(chain(1)) == (0,)


def test_glued_sum_associative_up_to_isomorphism():
    parts = [named("B4"), named("N5"), chain(3)]
    left = glued_sum(glued_sum(*parts[:2]), parts[2])
    right = glued_sum(parts[0], glued_sum(*parts[1:]))
    assert left == right  # even label-for-label here
    assert canonical_form(left) == canonical_form(right)
    assert glued_sum(*parts) == left
    assert glued_sum(parts[0]) == parts[0]
    with pytest.raises(TypeError):
        glued_sum()  # no empty sum that would build the 1-element lattice


def test_direct_product_examples():
    assert direct_product(chain(2), chain(3)) == named("C2xC3")
    assert canonical_form(direct_product(chain(2), chain(2))) == canonical_form(named("B4"))
    for name in ("B4", "N5"):
        assert direct_product(chain(1), named(name)) == named(name)
    with pytest.raises(SizeLimit):
        direct_product(chain(8), chain(8))


def test_dual_examples():
    n5 = named("N5")
    assert dual(dual(n5)) == n5
    assert dual(chain(5)) == chain(5)
    assert canonical_form(dual(n5)) == canonical_form(n5)
    b4c2 = build_expression("B4+C2")
    assert canonical_form(dual(b4c2)) == canonical_form(build_expression("C2+B4"))
    assert not dual(b4c2) == b4c2


def test_parse_precedence_and_parens():
    c2, c3 = chain(2), chain(3)
    assert build_expression("C2+C2xC3") == glued_sum(c2, direct_product(c2, c3))
    assert build_expression("(C2+C2)xC3") == direct_product(glued_sum(c2, c2), c3)
    assert build_expression("C2xC3xC2") == direct_product(direct_product(c2, c3), c2)
    assert build_expression("(C2+C3)+C4") == build_expression("C2+(C3+C4)") == chain(7)
    assert build_expression(" N5 ") == named("N5")


def test_parse_errors():
    for text in ("", "C2+", "x C2", "(C2", "C2)C3", "C2 C3", "Q5"):
        with pytest.raises(ExpressionError):
            build_expression(text)
    with pytest.raises(UnknownName):
        build_expression("C0")


@given(sized_lattice_expressions(max_size=12))
def test_expression_sizes_match_strategy(expr_and_size):
    expr, size = expr_and_size
    assert build_expression(expr).n == size


@given(lattice_expressions(max_size=12))
def test_dual_involution_property(expr):
    lat = build_expression(expr)
    assert dual(dual(lat)) == lat


@given(lattice_expressions(max_size=6), lattice_expressions(max_size=6),
       lattice_expressions(max_size=6))
def test_glued_sum_associativity_property(a, b, c):
    parts = [build_expression(e) for e in (a, b, c)]
    left = glued_sum(glued_sum(parts[0], parts[1]), parts[2])
    right = glued_sum(parts[0], glued_sum(parts[1], parts[2]))
    assert left == right
