import inspect
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcensus.core import (
    TABLE_LIMIT,
    IndexOutOfRange,
    NotALattice,
    SizeLimit,
    bit_indices,
    build_expression,
    chain,
    direct_product,
    from_covers,
    glued_sum,
    mask_of,
    named,
    sublattice,
    truth_tables,
)
from latcensus.subuniverse import (
    _count_by_frontier,
    _count_by_tables,
    count_subuniverses,
    count_subuniverses_naive,
    enumerate_subuniverses,
    is_subuniverse,
)
from latcensus import subuniverse
from latcensus.census import enumerate_lattices
from oracles import (
    closure_bruteforce,
    diamond,
    dual,
    glued_count_bruteforce,
    random_relabeling,
    record_lattice,
    trace_count,
)
from strategies import (
    closure_covers,
    closure_lattices,
    glued_expressions,
    intersection_closed,
    lattice_expressions,
)

FIXTURE_COUNTS = [
    ("B4", 13),
    ("N5", 23),
    ("C2xC3", 38),
    ("B4+B4", 85),
    ("B4+C2+B4", 169),
    ("M3", 20),
    ("B8", 74),
]


@pytest.mark.parametrize("expr,expected", FIXTURE_COUNTS)
def test_fixture_counts(expr, expected):
    assert count_subuniverses(build_expression(expr)) == expected


@pytest.mark.parametrize("expr,expected", [(e, c) for e, c in FIXTURE_COUNTS if c < 100])
def test_fixture_counts_naive(expr, expected):
    assert count_subuniverses_naive(build_expression(expr)) == expected


@pytest.mark.parametrize("k", range(1, 13))
def test_chain_counts_are_powers_of_two(k):
    assert count_subuniverses(chain(k)) == 2**k


def _both_paths_equal_naive(lat):
    expected = count_subuniverses_naive(lat)
    assert _count_by_tables(lat) == expected
    assert _count_by_frontier(lat) == expected


@pytest.mark.parametrize("n", range(1, 10))
def test_both_count_paths_equal_naive_on_census_classes(n):
    for lat in enumerate_lattices(n):
        _both_paths_equal_naive(lat)


@given(lattice_expressions(max_size=12))
def test_both_count_paths_equal_naive_on_expressions(expr):
    _both_paths_equal_naive(build_expression(expr))


@given(closure_lattices(max_n=12))
def test_both_count_paths_equal_naive_on_closure_lattices(lat):
    _both_paths_equal_naive(lat)


def test_count_path_follows_the_size_alone(monkeypatch):
    taken = []
    monkeypatch.setattr(subuniverse, "_count_by_tables", lambda lat: taken.append(("tables", lat.n)))
    monkeypatch.setattr(subuniverse, "_count_by_frontier", lambda lat: taken.append(("frontier", lat.n)))
    for lat in (chain(12), diamond(10), chain(13), diamond(11)):
        count_subuniverses(lat)
    assert TABLE_LIMIT == 12
    assert taken == [("tables", 12), ("tables", 12), ("frontier", 13), ("frontier", 13)]


@pytest.mark.parametrize("n", range(7))
def test_truth_tables_bit_by_bit(n):
    tables = truth_tables(n)
    assert len(tables) == n
    for a, table in enumerate(tables):
        assert table >> (1 << n) == 0
        assert all(table >> s & 1 == s >> a & 1 for s in range(1 << n))


def test_is_subuniverse_examples():
    b4 = named("B4")
    assert not is_subuniverse(b4, {1, 2})
    assert not is_subuniverse(b4, {0, 1, 2})
    assert not is_subuniverse(b4, {1, 2, 3})
    assert is_subuniverse(b4, set())
    assert is_subuniverse(b4, {0, 1, 2, 3})
    assert is_subuniverse(b4, {1})


def test_b4_has_exactly_three_non_subuniverses():
    b4 = named("B4")
    bad = [m for m in range(16) if not is_subuniverse(b4, m)]
    assert bad == [mask_of({1, 2}), mask_of({0, 1, 2}), mask_of({1, 2, 3})]


def test_enumerate_chain2_order():
    subs = [list(bit_indices(m)) for m in enumerate_subuniverses(chain(2))]
    assert subs == [[], [0], [1], [0, 1]]


def test_enumerate_matches_count_and_is_deterministic():
    for expr in ("N5", "M3", "C2xC3", "B4+B4"):
        lat = build_expression(expr)
        first = list(enumerate_subuniverses(lat))
        assert len(first) == count_subuniverses(lat)
        assert len(set(first)) == len(first)
        assert first == list(enumerate_subuniverses(lat))
        sizes = [m.bit_count() for m in first]
        assert sizes == sorted(sizes)


@given(expr=lattice_expressions(max_size=16), seed=st.integers(0, 2**32 - 1))
def test_enumerate_order_is_size_then_member_tuple(expr, seed):
    lat = random_relabeling(build_expression(expr), random.Random(seed))
    masks = list(enumerate_subuniverses(lat))
    key = [(m.bit_count(), tuple(bit_indices(m))) for m in masks]
    assert all(a < b for a, b in zip(key, key[1:]))  # ordered, no repeats
    assert len(masks) == count_subuniverses(lat)


def _naive_enumeration(lat):
    """Independent oracle: the 2^n subsets accepted by is_subuniverse, in
    the output order (size, then member tuple)."""
    masks = [m for m in range(1 << lat.n) if is_subuniverse(lat, m)]
    return sorted(masks, key=lambda m: (m.bit_count(), tuple(bit_indices(m))))


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_equals_naive_scan_on_census_classes(n):
    for lat in enumerate_lattices(n):
        assert list(enumerate_subuniverses(lat)) == _naive_enumeration(lat)


@given(expr=lattice_expressions(max_size=12), seed=st.integers(0, 2**32 - 1))
def test_enumerate_equals_naive_scan_on_relabeled_expressions(expr, seed):
    lat = random_relabeling(build_expression(expr), random.Random(seed))
    assert list(enumerate_subuniverses(lat)) == _naive_enumeration(lat)


@given(lat=closure_lattices(max_n=12))
def test_enumerate_equals_naive_scan_on_closure_lattices(lat):
    assert list(enumerate_subuniverses(lat)) == _naive_enumeration(lat)


def test_enumerate_is_a_generator_function():
    # timing wrappers detect it as a generator function and drain it in their span
    assert inspect.isgeneratorfunction(enumerate_subuniverses)
    assert all(type(m) is int for m in enumerate_subuniverses(named("N5")))


def test_b8_size_breakdown():
    counts = Counter(m.bit_count() for m in enumerate_subuniverses(named("B8")))
    assert [counts.get(k, 0) for k in range(9)] == [1, 8, 19, 18, 15, 6, 6, 0, 1]


@pytest.mark.parametrize("expr", ["B4", "N5", "M3", "B8", "C2xC3", "M3+B4"])
def test_sublattice_and_is_subuniverse_accept_the_same_subsets(expr):
    lat = build_expression(expr)
    for mask in range(1, 1 << lat.n):
        closed = set(bit_indices(mask)) == closure_bruteforce(lat, set(bit_indices(mask)))
        assert is_subuniverse(lat, mask) == closed
        if closed:
            assert sublattice(lat, mask).n == mask.bit_count()
        else:
            with pytest.raises(NotALattice, match="not closed under join/meet"):
                sublattice(lat, mask)


def test_subset_arguments_share_one_validation():
    b4 = named("B4")
    for call in (is_subuniverse, trace_count, sublattice):
        with pytest.raises(IndexOutOfRange):
            call(b4, {0, 4})
        with pytest.raises(IndexOutOfRange):
            call(b4, 1 << 4)


def test_trace_count_examples():
    b4 = named("B4")
    total = count_subuniverses(b4)
    assert trace_count(b4, set()) == 1
    assert trace_count(b4, range(4)) == total
    t = trace_count(b4, {1, 2})
    assert t == 4 and total <= t * 2 ** (4 - 2)


@given(expr=lattice_expressions(max_size=12), seed=st.integers(0, 2**32 - 1), h=st.integers(0))
def test_trace_count_is_the_number_of_distinct_traces(expr, seed, h):
    lat = random_relabeling(build_expression(expr), random.Random(seed))
    h &= lat.full_mask
    traces = {m & h for m in range(1 << lat.n) if is_subuniverse(lat, m)}
    assert trace_count(lat, h) == len(traces)


def test_trace_bound_on_small_census(census):
    for n in (4, 5):
        for rec in census(n):
            lat = record_lattice(rec)
            total = count_subuniverses(lat)
            for size in range(min(n, 3) + 1):
                for h in itertools.combinations(range(n), size):
                    assert total <= trace_count(lat, h) * 2 ** (n - size)


def test_sublattice_bound_and_equality_unions(census):
    # count bound via any generated sublattice, and the union property
    # whenever the bound is tight
    for n in range(1, 8):
        for rec in census(n):
            lat = record_lattice(rec)
            total = count_subuniverses(lat)
            seen = set()
            for size in range(1, min(n, 3) + 1):
                for gens in itertools.combinations(range(n), size):
                    k_mask = mask_of(closure_bruteforce(lat, set(gens)))
                    if k_mask in seen:
                        continue
                    seen.add(k_mask)
                    induced = sublattice(lat, k_mask)
                    k_count = count_subuniverses(induced)
                    k_size = induced.n
                    assert total <= k_count * 2 ** (n - k_size)
                    if total == k_count * 2 ** (n - k_size):
                        _check_all_unions_closed(lat, k_mask)


def _check_all_unions_closed(lat, k_mask):
    inside = list(enumerate_subuniverses(sublattice(lat, k_mask)))
    # re-embed the induced subuniverses into ambient indices
    elems = [e for e in range(lat.n) if k_mask >> e & 1]
    for inner in inside:
        ambient = 0
        for pos, e in enumerate(elems):
            if inner >> pos & 1:
                ambient |= 1 << e
        for extra in _power_set_masks(lat.full_mask & ~k_mask):
            assert is_subuniverse(lat, ambient | extra)


def _power_set_masks(mask):
    free = [1 << e for e in range(mask.bit_length()) if mask >> e & 1]
    for choice in range(1 << len(free)):
        sub = 0
        for k, bit in enumerate(free):
            if choice >> k & 1:
                sub |= bit
        yield sub


def test_size_limits():
    big = chain(21)
    with pytest.raises(SizeLimit):
        count_subuniverses_naive(big)
    with pytest.raises(SizeLimit):
        list(enumerate_subuniverses(big))
    with pytest.raises(SizeLimit):
        trace_count(big, {0})
    assert count_subuniverses(big) == 2**21  # the optimized counter still runs


@pytest.mark.parametrize(
    "parts,expected",
    [
        (["N5"] * 15, 21172566919158272),
        (["M3"] * 7, 26165248),
        (["C2"] * 62, 2**63),
        (["C3", "B4", "C2", "C2xC3", "M3", "B8", "N5", "C4"], None),
    ],
)
def test_long_glued_sums_match_blockwise_oracle(parts, expected):
    lat = build_expression("+".join(parts))
    count = count_subuniverses(lat)
    assert count == glued_count_bruteforce([build_expression(p) for p in parts])
    if expected is not None:
        assert count == expected


@settings(max_examples=20)  # the naive oracle scans up to 2^16 subsets
@given(glued_expressions(max_size=16), st.randoms(use_true_random=False))
def test_counter_matches_naive_on_relabeled_glued_sums(expr, rng):
    # any linear extension keeps each glued block a contiguous index range
    lat = random_relabeling(build_expression(expr), rng)
    assert count_subuniverses(lat) == count_subuniverses_naive(lat)


@given(lattice_expressions(max_size=10))
def test_optimized_counter_matches_naive(expr):
    lat = build_expression(expr)
    assert count_subuniverses(lat) == count_subuniverses_naive(lat)


@given(lattice_expressions(max_size=12))
def test_count_is_self_dual(expr):
    lat = build_expression(expr)
    assert count_subuniverses(lat) == count_subuniverses(dual(lat))


@given(closure_lattices(max_n=14))
def test_counter_matches_naive_on_closure_lattices(lat):
    assert count_subuniverses(lat) == count_subuniverses_naive(lat)


def corpus_covers(seed: int) -> tuple[int, list[tuple[int, int]]]:
    """A closure lattice of 25 to 46 elements drawn from ``seed``: 64 random
    subsets of a 7-set, closed under intersection up to a drawn size."""
    rng = random.Random(seed)
    size = rng.randint(25, 46)
    masks = [rng.randrange(128) for _ in range(64)]
    return closure_covers(intersection_closed(7, masks, size))


CLOSURE_CORPUS = json.loads((Path(__file__).parent / "closure_corpus.json").read_text())


@pytest.mark.parametrize("entry", CLOSURE_CORPUS, ids=lambda e: f"seed{e['seed']}-n{e['n']}")
def test_closure_corpus_counts_are_reproduced(entry):
    """Wide indecomposable lattices whose counts were recorded by the plain
    block scan; a faster counter must reproduce them."""
    n, covers = corpus_covers(entry["seed"])
    assert (n, [list(c) for c in covers]) == (entry["n"], entry["covers"])
    assert count_subuniverses(from_covers(n, covers)) == entry["sub_count"]


@settings(max_examples=40)  # the oracle tries 2^n subsets of each block
@given(
    st.lists(st.tuples(closure_lattices(max_n=12), st.integers(1, 3)), min_size=2, max_size=3),
    st.randoms(use_true_random=False),
)
def test_counter_matches_blockwise_oracle_on_glued_closure_lattices(parts, rng):
    """Wide drawn blocks with cuts between them: the pass must carry the
    cut's state across, which glued sums of the fixed atoms test only
    through a handful of block shapes."""
    blocks = [parts[0][0]]
    for block, k in parts[1:]:
        blocks += [chain(k), block]
    lat = random_relabeling(glued_sum(*blocks), rng)
    assert count_subuniverses(lat) == glued_count_bruteforce(blocks)


def test_count_runs_without_the_scan(census, monkeypatch):
    """Counting never visits subuniverses one by one: it answers with the
    per-subuniverse scan disabled."""
    small = [(record_lattice(rec), rec.sub_count) for n in range(1, 9) for rec in census(n)]
    products = [
        (lat, count_subuniverses_naive(lat))
        for lat in (direct_product(chain(a), chain(b)) for a, b in ((2, 3), (3, 3), (2, 5), (3, 4)))
    ]
    b8 = direct_product(direct_product(chain(2), chain(2)), chain(2))
    products.append((b8, 74))

    def refuse(*args):
        raise AssertionError("the subuniverse scan was called")

    monkeypatch.setattr(subuniverse, "enumerate_subuniverses", refuse)
    for lat, expected in small + products:
        assert count_subuniverses(lat) == expected
    with pytest.raises(AssertionError, match="subuniverse scan"):
        subuniverse.enumerate_subuniverses(chain(2))
