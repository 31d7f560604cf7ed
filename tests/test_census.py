import concurrent.futures
import gc
import hashlib
import itertools
import os
import random

import pytest

from latcensus import canon as canon_mod
from latcensus.canon import _arrangements, canonical_form, canonical_lattice
from latcensus.census import (
    _analyze,
    _augmentations,
    _census_classes,
    census_jsonl,
    census_records,
    enumerate_lattices,
)
from latcensus.core import (
    GEN_LIMIT,
    Lattice,
    LatticeError,
    NotALattice,
    SizeLimit,
    build_expression,
    chain,
    direct_product,
    from_covers,
    named,
)
from latcensus.structure import CHAIN
from latcensus.verify import (
    spectrum,
    verify_antichain_bound,
    verify_gap,
    verify_top_three,
)
from oracles import (
    augmentations_unpruned,
    canonical_form_bruteforce,
    diamond,
    dual,
    json_line_by_dumps,
    lattice_class_forms_bruteforce,
    random_relabeling,
    record_from_json_line,
)

EXPECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222, 9: 1078}
SELF_DUAL_CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 7, 7: 13, 8: 36, 9: 76, 10: 232}


def test_canonical_form_basic_equalities():
    assert canonical_form(named("B4")) == canonical_form(direct_product(chain(2), chain(2)))
    assert canonical_form(named("N5")) != canonical_form(named("M3"))
    assert canonical_form(named("N5")) == canonical_form(dual(named("N5")))


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(1729)
    for expr in ("N5+C2", "B4xC2", "M3", "(C2xC3)+C2", "B4+B4"):
        lat = build_expression(expr)
        form = canonical_form(lat)
        for _ in range(10):
            assert canonical_form(random_relabeling(lat, rng)) == form


def test_canonical_form_matches_bruteforce_on_every_generation_child():
    """Every child cover list is a lattice's exact cover relation, and its
    canonical form is the brute-force form of that lattice."""
    checked = 0
    for n in range(1, 9):
        for form in _census_classes(n):
            for child in _augmentations(canonical_lattice(form)):
                lat = from_covers(child.n, child.covers)
                assert lat.covers == child.covers
                assert canonical_form(child) == canonical_form_bruteforce(lat)
                checked += 1
    assert checked == 1501


def test_generation_children_are_pinned():
    """The 1501 children of the parents of sizes 1..8, in order, pinned by
    the SHA-256 of their sizes and cover lists as the generator made them
    before its rejections were reordered."""
    children = [
        (child.n, child.covers)
        for n in range(1, 9)
        for form in _census_classes(n)
        for child in _augmentations(canonical_lattice(form))
    ]
    assert len(children) == 1501
    assert hashlib.sha256(repr(children).encode()).hexdigest() == (
        "1c3fa061adc113b878c75a506249425136fc12bf2e9a44d5d342afc99e0771c9"
    )


@pytest.mark.parametrize("n", range(2, 10))
def test_pruned_children_reach_every_class_the_unpruned_ones_reach(n):
    """Dropping children before their canonical form loses no class: the
    classes of size n are exactly the forms of every one-element extension
    of the classes of size n - 1."""
    assert set(_census_classes(n)) == {
        canonical_form(child)
        for form in _census_classes(n - 1)
        for child in augmentations_unpruned(canonical_lattice(form))
    }


def _assert_closed_under_duality(n: int) -> None:
    """The duals of the classes of size n are those classes again, and the
    pinned number of them are their own duals.  The generator inserts
    coatoms, so duality checks it from the other end: a lost class leaves
    its dual without a partner or, if self-dual, lowers the self-dual count.
    Only a class lost together with its dual escapes, and the pinned class
    counts catch that."""
    forms = _census_classes(n)
    duals = [canonical_form(dual(canonical_lattice(form))) for form in forms]
    assert sorted(duals) == sorted(forms)
    assert sum(d == form for d, form in zip(duals, forms)) == SELF_DUAL_CLASS_COUNTS[n]


@pytest.mark.parametrize("n", range(1, GEN_LIMIT + 1))
def test_census_is_closed_under_duality(n):
    _assert_closed_under_duality(n)


def test_generation_reaches_the_5994_classes_of_size_ten():
    """OEIS A006966 at n = 10, past the census limit, closed under duality,
    and the analysis of those classes pinned by the SHA-256 of its JSONL;
    the cache is cleared afterwards so no later test holds the n = 10
    forms."""
    try:
        forms = _census_classes(10)
        assert len(forms) == 5994
        _assert_closed_under_duality(10)
        text = census_jsonl([_analyze(form, True) for form in forms])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8498e2b0a1eb105c4ae23e1dd4f9bbfc231ee24a3d1e2652fec69d914acd0b51"
        )
    finally:
        _census_classes.cache_clear()


def test_census_builds_one_lattice_per_class(monkeypatch):
    """A cold census with congruences builds 1378 lattices for n <= 9: the
    300 parents of sizes 1..8, each rebuilt from its form to be augmented,
    and the 1078 classes of size 9 to be analyzed.  The cache keeps forms
    only, so a warm rerun builds the 1078 classes again and no parent."""
    built = []

    def counting_from_covers(n, covers):
        built.append(n)
        return from_covers(n, covers)

    # census builds every lattice through canon.canonical_lattice
    monkeypatch.setattr(canon_mod, "from_covers", counting_from_covers)
    _census_classes.cache_clear()
    records = census_records(9, with_con=True)
    assert len(built) == sum(EXPECTED_CLASS_COUNTS.values()) == 1378
    assert len(records) == 1078
    assert all(rec.con_count is not None for rec in records)
    built.clear()
    assert census_records(9, with_con=True) == records
    assert built == [9] * 1078


def _live_lattices() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Lattice))


def test_census_holds_no_lattice():
    """The census cache holds canonical forms, as bytes, and every lattice
    a census builds is unreachable once its records are dropped."""
    _census_classes.cache_clear()
    before = _live_lattices()
    records = census_records(9, with_con=True)
    assert len(records) == 1078
    del records
    assert _live_lattices() == before
    for n in range(1, 10):
        assert all(type(form) is bytes for form in _census_classes(n))


@pytest.mark.parametrize("n,jobs,cpus,workers", [
    (7, 10**6, 64, 4),  # 53 classes make 4 chunks
    (7, 10**6, 3, 3),
    (7, 2, 64, 2),
    (8, 10**6, 2, 2),
    (6, 10**6, 64, None),  # 15 classes, one chunk: analyzed in process
    (7, 10**6, 1, None),
])
def test_census_jobs_capped_by_cpus_and_chunks(monkeypatch, n, jobs, cpus, workers):
    """No more workers than CPUs or chunks of classes, whatever ``jobs`` asks
    for; a fake pool records the worker count and maps in process, so no
    process is started."""
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    records = census_records(n, jobs=jobs)
    assert pools == ([] if workers is None else [workers])
    assert records == census_records(n)


def test_canonical_lattice_refuses_pairs_that_are_not_covers():
    form = bytes([3, 0, 1, 0, 2, 1, 2])  # (0, 2) is implied by 0 < 1 < 2
    with pytest.raises(LatticeError, match="not covers"):
        canonical_lattice(form)


@pytest.mark.parametrize("form", [b"", b"\x02\x00", b"\x03\x00\x01\x01\x02\x00"])
def test_canonical_lattice_refuses_forms_without_whole_pairs(form):
    # empty, or a body of odd length: refused before any pair is read
    with pytest.raises(LatticeError):
        canonical_lattice(form)


def test_canonical_lattice_refuses_zero_elements():
    with pytest.raises(NotALattice, match="at least one element"):
        canonical_lattice(b"\x00")


@pytest.mark.parametrize(
    "name", ["M3", "M4", "M5", "M6", "M7", "B4xC2", "M3xC2", "C2xC2xC2", "N5xC2"]
)
def test_canonical_form_matches_bruteforce_on_twin_heavy_relabelings(name):
    lat = diamond(int(name[1:])) if name[1:].isdigit() else build_expression(name)
    rng = random.Random(name)
    form = canonical_form_bruteforce(lat)
    assert canonical_form(lat) == form
    for _ in range(10):
        relabeled = random_relabeling(lat, rng)
        assert canonical_form(relabeled) == canonical_form_bruteforce(relabeled) == form


def _group_layouts(most_groups, most_members):
    """Every list of 1..most_groups group sizes, each at least 1, that sum
    to at most most_members."""
    layouts = [[]]
    for sizes in layouts:
        if len(sizes) < most_groups:
            layouts += [sizes + [k] for k in range(1, most_members - sum(sizes) + 1)]
    return layouts[1:]


def test_arrangements_are_the_order_keeping_permutations_of_every_small_layout():
    """For every layout of up to 3 groups with up to 7 members in all, the
    arrangements are, once each, the permutations of the members that keep
    every group in its index order."""
    layouts = _group_layouts(3, 7)
    assert len(layouts) == 7 + 21 + 35
    for sizes in layouts:
        # interleaved member labels, so no group is a run of consecutive ones
        labels = random.Random(repr(sizes)).sample(range(20), sum(sizes))
        groups, start = [], 0
        for k in sizes:
            groups.append(sorted(labels[start : start + k]))
            start += k
        got = [tuple(order) for order in _arrangements(groups)]
        expected = {
            order for order in itertools.permutations(labels)
            if all([x for x in order if x in g] == g for g in groups)
        }
        assert len(got) == len(set(got)), sizes
        assert set(got) == expected, sizes


def test_canonical_form_size_limit():
    with pytest.raises(SizeLimit):
        canonical_form(chain(13))


def test_canonical_lattice_roundtrip():
    for name in ("B4", "N5", "M3", "B8", "C2xC3"):
        form = canonical_form(named(name))
        assert canonical_form(canonical_lattice(form)) == form


def test_is_isomorphic_examples():
    assert canonical_form(named("B4")) == canonical_form(build_expression("C2xC2"))
    assert canonical_form(named("N5")) == canonical_form(dual(named("N5")))
    assert canonical_form(chain(5)) != canonical_form(named("N5"))
    assert canonical_form(chain(4)) != canonical_form(chain(5))  # the size is the first byte


@pytest.mark.parametrize("n,count", sorted(EXPECTED_CLASS_COUNTS.items()))
def test_class_counts(n, count):
    assert len(list(enumerate_lattices(n))) == count


def test_enumerate_lattices_bounds():
    with pytest.raises(SizeLimit):
        list(enumerate_lattices(10))
    with pytest.raises(ValueError):
        list(enumerate_lattices(0))


def test_enumerate_emits_valid_canonical_reps_without_duplicates():
    for n in range(1, 8):
        forms = [canonical_form(lat) for lat in enumerate_lattices(n)]
        assert len(set(forms)) == len(forms)
        assert forms == sorted(forms)


@pytest.mark.parametrize("n", range(1, 7))
def test_generator_matches_bruteforce_poset_scan(n):
    ours = {canonical_form(lat) for lat in enumerate_lattices(n)}
    assert ours == lattice_class_forms_bruteforce(n)


def test_expected_small_classes():
    five = list(enumerate_lattices(5))
    expected = [chain(5), build_expression("B4+C2"), build_expression("C2+B4"),
                named("N5"), named("M3")]
    assert {canonical_form(lat) for lat in five} == {
        canonical_form(lat) for lat in expected
    }
    four = list(enumerate_lattices(4))
    assert {canonical_form(lat) for lat in four} == {
        canonical_form(chain(4)),
        canonical_form(named("B4")),
    }


def test_spectrum_small_values():
    assert spectrum(1).values == (2,)
    assert spectrum(2).values == (4,)
    assert spectrum(3).values == (8,)
    assert spectrum(4).values == (16, 13)
    assert spectrum(5).values == (32, 26, 23, 20)
    with pytest.raises(SizeLimit):
        spectrum(10)


def test_spectrum_witness_lists_partition_census(census):
    report = spectrum(6)
    assert sum(len(ws) for _, ws in report.witnesses) == len(census(6))
    assert report.top_verdicts == {
        "top_three_values": True,
        "witness_shapes": True,
        "gap": True,
    }


def test_top_three_verification_small(census):
    for n in (5, 6):
        report = verify_top_three(n, records=census(n))
        assert report.passed and not report.failures
        assert report.details["witnesses"]["first"] == (
            canonical_form(chain(n)).hex(),
        )
    report = verify_top_three(5, records=census(5))
    assert report.details["witnesses"]["third"] == (canonical_form(named("N5")).hex(),)
    assert len(report.details["witnesses"]["second"]) == 2  # B4+C2 and C2+B4


def test_gap_verification_small(census):
    for n in (5, 6):
        assert verify_gap(n, records=census(n)).passed


def test_antichain_bound_small(census):
    report = verify_antichain_bound(5, records=census(5))
    assert report.passed
    assert report.details["checked"] == 1  # only the diamond has a 3-antichain at n=5
    assert report.details["max_count"] == 20
    assert report.details["max_witnesses"] == (canonical_form(named("M3")).hex(),)


def test_fourth_largest_at_seven_is_at_least_85(census):
    values = sorted({rec.sub_count for rec in census(7)}, reverse=True)
    assert values[3] >= 85
    assert 85 in values and 76 in values
    b4b4 = canonical_form(build_expression("B4+B4")).hex()
    holders = {rec.canon for rec in census(7) if rec.sub_count == 85}
    assert b4b4 in holders


def test_verify_size_bounds():
    with pytest.raises(ValueError):
        verify_top_three(4)
    with pytest.raises(SizeLimit):
        verify_top_three(10)


def test_census_jsonl_roundtrip_and_key_order(census):
    records = census(6)
    text = census_jsonl(records)
    lines = text.strip().split("\n")
    assert len(lines) == 15
    for line, rec in zip(lines, records):
        assert line.startswith('{"n":6,"canon":"')
        assert record_from_json_line(line) == rec
    assert census_jsonl(census_records(6)) == text  # rerun is byte-identical


@pytest.mark.parametrize("n", range(1, GEN_LIMIT + 1))
def test_json_lines_equal_json_dumps(census, n):
    """Every census line, with and without ``con_count``, is the line
    ``json.dumps`` writes for the same record."""
    for with_con in (False, True):
        for rec in census(n, with_con):
            assert rec.to_json_line() == json_line_by_dumps(rec)


def test_census_records_classification_consistency(census):
    for rec in census(7):
        assert (rec.classification == CHAIN) == (rec.sub_count == 2**7)
