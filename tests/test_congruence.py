import pytest
from hypothesis import given

import latcensus.congruence as con_mod
from latcensus.canon import canonical_form
from latcensus.census import enumerate_lattices
from latcensus.congruence import (
    _count_by_memo,
    _count_by_tables,
    _dependency_rows,
    count_congruences,
    count_congruences_naive,
    join_irreducible_congruences,
    principal_congruence,
)
from latcensus.core import (
    COUNT_LIMIT,
    NAIVE_LIMIT,
    TABLE_LIMIT,
    IndexOutOfRange,
    SizeLimit,
    build_expression,
    chain,
    direct_product,
    named,
)
from latcensus.structure import CHAIN, GLUED_B4, GLUED_N5
from latcensus.verify import spectrum, verify_congruence_spectrum
from oracles import con_count_by_closures, diamond, dual, is_congruence, record_lattice
from strategies import closure_lattices, lattice_expressions


def test_principal_congruence_examples():
    assert principal_congruence(chain(3), 0, 1) == ((0, 1), (2,))
    monolith = principal_congruence(named("N5"), 1, 3)  # collapse a and c
    assert monolith == ((0,), (1, 3), (2,), (4,))
    with pytest.raises(ValueError):
        principal_congruence(chain(3), 1, 1)
    with pytest.raises(IndexOutOfRange):
        principal_congruence(chain(3), 0, 5)


def test_principal_congruences_are_congruences(census):
    for n in range(2, 8):
        for rec in census(n):
            lat = record_lattice(rec)
            for a in range(n):
                for b in range(a + 1, n):
                    theta = principal_congruence(lat, a, b)
                    assert is_congruence(lat, theta)
                    assert any(a in block and b in block for block in theta)


def test_is_congruence_rejects_non_partitions():
    lat = chain(3)
    assert not is_congruence(lat, [(0, 1)])  # misses 2
    assert not is_congruence(lat, [(0, 1), (1, 2)])  # overlap
    assert is_congruence(lat, [(0, 1), (2,)])
    assert not is_congruence(named("N5"), [(0, 1), (2,), (3,), (4,)])


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("C5", 16),
        ("B4+C2", 8),
        ("C2+B4", 8),
        ("N5", 5),
        ("M3", 2),
        ("C1", 1),
        ("C2xC3", 8),
        ("(C2xC3)+C2", 16),
        ("B4", 4),
    ],
)
def test_count_congruences_examples(expr, expected):
    assert count_congruences(build_expression(expr)) == expected


@pytest.mark.parametrize("k", range(1, 13))
def test_chain_congruence_count(k):
    assert count_congruences(chain(k)) == 2 ** (k - 1)


def test_count_congruences_size_limit():
    with pytest.raises(SizeLimit):
        count_congruences(chain(21))
    with pytest.raises(SizeLimit):
        count_congruences_naive(chain(9))


@pytest.mark.parametrize("name", ["B4", "N5", "M3", "C2xC3", "B8", "C6"])
def test_downset_count_matches_naive_named(name):
    lat = named(name)
    assert count_congruences(lat) == count_congruences_naive(lat)


def _both_paths_count(lat, expected):
    """The truth-table and the memo path each give ``expected``, whatever
    the number of join-irreducibles."""
    rows = _dependency_rows(lat)
    assert _count_by_tables(rows) == expected
    assert _count_by_memo(rows) == expected


@pytest.mark.parametrize("n", range(1, NAIVE_LIMIT + 1))
def test_downset_count_matches_naive_census(census, n):
    for rec in census(n):
        lat = record_lattice(rec)
        expected = count_congruences_naive(lat)
        assert count_congruences(lat) == expected
        _both_paths_count(lat, expected)


@pytest.mark.parametrize("n", range(1, 10))
def test_count_matches_closure_oracle_on_census(n):
    for lat in enumerate_lattices(n):
        expected = con_count_by_closures(lat)
        assert count_congruences(lat) == expected
        _both_paths_count(lat, expected)


@pytest.mark.parametrize("k", range(3, 19))
def test_count_matches_closure_oracle_on_diamonds(k):
    lat = diamond(k)
    assert count_congruences(lat) == con_count_by_closures(lat) == 2  # simple
    if k >= 10:  # |J| = k crosses TABLE_LIMIT
        _both_paths_count(lat, 2)


def test_congruence_count_path_follows_the_join_irreducibles_alone(monkeypatch):
    taken = []
    monkeypatch.setattr(con_mod, "_count_by_tables", lambda rows: taken.append(("tables", len(rows))))
    monkeypatch.setattr(con_mod, "_count_by_memo", lambda rows: taken.append(("memo", len(rows))))
    for lat in (chain(13), diamond(12), chain(14), diamond(13)):
        count_congruences(lat)
    assert TABLE_LIMIT == 12
    assert taken == [("tables", 12), ("tables", 12), ("memo", 13), ("memo", 13)]


def test_dependency_rows_by_hand():
    """N5 = 0 < a < c < 1, 0 < b < 1 (a, b, c at indices 1, 2, 3) has J =
    {a, b, c}.  Collapsing 0 < a or 0 < b collapses a < c, so c D a and
    c D b; collapsing a < c collapses nothing else."""
    assert _dependency_rows(named("N5")) == [0b101, 0b110, 0b100]
    assert _dependency_rows(chain(4)) == [0b001, 0b010, 0b100]
    assert _dependency_rows(named("M3")) == [0b111, 0b111, 0b111]
    assert _dependency_rows(chain(1)) == []


PRODUCT_FACTORS = ["C2", "C3", "C4", "C5", "B4", "N5", "M3", "N5+C2", "C2+M3"]


def test_count_matches_closure_oracle_on_products():
    checked = 0
    for i, left in enumerate(PRODUCT_FACTORS):
        for right in PRODUCT_FACTORS[i:]:
            lat = direct_product(build_expression(left), build_expression(right))
            if lat.n > 20:
                continue
            assert count_congruences(lat) == con_count_by_closures(lat), (left, right)
            checked += 1
    for expr in ("C2xC2xC2", "C2xC2xC2xC2", "B4xC5", "(N5+C2)xC2", "(M3+N5)xC2"):
        lat = build_expression(expr)
        assert count_congruences(lat) == con_count_by_closures(lat), expr
        checked += 1
    assert checked >= 25


def test_count_congruences_builds_no_congruence(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("count_congruences closed a congruence")

    monkeypatch.setattr(con_mod, "principal_congruence", refuse)
    monkeypatch.setattr(con_mod, "join_irreducible_congruences", refuse)
    assert count_congruences(named("N5")) == 5
    assert count_congruences(build_expression("(C2xC3)+C2")) == 16


def test_join_irreducible_congruences_dedup():
    # collapsing either edge of B4 forces the opposite edge, so the four
    # covers give two congruences; in M3 every cover collapses everything
    assert len(join_irreducible_congruences(named("B4"))) == 2
    assert len(join_irreducible_congruences(named("M3"))) == 1
    assert join_irreducible_congruences(chain(1)) == []


@given(lattice_expressions(max_size=12))
def test_congruence_count_is_self_dual(expr):
    lat = build_expression(expr)
    assert count_congruences(lat) == count_congruences(dual(lat))


def test_con_spectrum_observed_values():
    assert spectrum(5, "con").values == (16, 8, 5, 2)
    report = spectrum(6, "con")
    assert report.values[:5] == (32, 16, 10, 8, 7)
    assert report.top_verdicts == {"top_values": True, "top_three_shapes": True}


def test_verify_congruence_spectrum_small(census):
    for n in (5, 6, 7):
        report = verify_congruence_spectrum(n)
        assert report.passed, report.failures
    with pytest.raises(ValueError):
        verify_congruence_spectrum(4)


def test_congruence_top_three_witness_shapes(census):
    records = census(6, with_con=True)
    by_tag = {CHAIN: 32, GLUED_B4: 16, GLUED_N5: 10}
    for rec in records:
        if rec.classification in by_tag:
            assert rec.con_count == by_tag[rec.classification]
        else:
            assert rec.con_count not in by_tag.values()


def test_fourth_largest_congruence_count_at_seven(census):
    records = census(7, with_con=True)
    values = sorted({rec.con_count for rec in records}, reverse=True)
    assert values[3] == 16
    witness = canonical_form(build_expression("(C2xC3)+C2")).hex()
    assert witness in {rec.canon for rec in records if rec.con_count == 16}


def test_with_con_counts_serialization(census):
    records = census(4, with_con=True)
    line = records[0].to_json_line()
    assert '"con_count":' in line and line.index('"sub_count"') < line.index(
        '"con_count"'
    ) < line.index('"class"')


@given(closure_lattices(max_n=COUNT_LIMIT))
def test_count_matches_oracles_on_closure_lattices(lat):
    oracle = count_congruences_naive if lat.n <= NAIVE_LIMIT else con_count_by_closures
    expected = oracle(lat)
    assert count_congruences(lat) == expected
    _both_paths_count(lat, expected)


@given(lattice_expressions(max_size=COUNT_LIMIT))
def test_both_congruence_paths_match_closure_oracle_on_expressions(expr):
    lat = build_expression(expr)
    _both_paths_count(lat, con_count_by_closures(lat))
