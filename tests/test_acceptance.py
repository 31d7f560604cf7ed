"""Acceptance suite: one test per release criterion, zero tolerance.

Each test prints a single ``criterion N: PASS`` line on success (visible with
``pytest -s`` or in the captured output summary); a failure shows up as an
ordinary assertion error.
"""

import itertools
import random
import time
from functools import reduce

import pytest

from latcensus.canon import canonical_form
from latcensus.cli import main
from latcensus.congruence import count_congruences, count_congruences_naive
from latcensus.core import build_expression, chain, glued_sum, mask_of, named, sublattice
from latcensus.structure import (
    GLUED_B4,
    GLUED_N5,
    isolated_edges,
    isolated_elements,
)
from latcensus.subuniverse import (
    count_subuniverses,
    count_subuniverses_naive,
    enumerate_subuniverses,
)
from latcensus.verify import (
    verify_antichain_bound,
    verify_congruence_spectrum,
    verify_gap,
    verify_top_three,
)
from oracles import (
    closure_bruteforce,
    isolated_characterization_holds,
    random_expression,
    record_lattice,
    trace_count,
)

FIXTURES = [
    ("B4", 13),
    ("N5", 23),
    ("C2xC3", 38),
    ("B4+B4", 85),
    ("B4+C2+B4", 169),
    ("M3", 20),
    ("B8", 74),
]


def announce(num, text):
    print(f"criterion {num}: PASS - {text}")


def test_criterion_01_fixture_counts():
    start = time.perf_counter()
    for expr, expected in FIXTURES:
        assert count_subuniverses(build_expression(expr)) == expected, expr
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"fixture counts took {elapsed:.3f}s"
    announce(1, f"seven fixture counts exact in {elapsed:.3f}s")


def test_criterion_02_chain_law():
    start = time.perf_counter()
    for k in range(1, 21):
        assert count_subuniverses(chain(k)) == 2**k, k
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"chain law took {elapsed:.3f}s"
    announce(2, f"chain counts equal 2^k for k=1..20 in {elapsed:.3f}s")


def test_criterion_03_top_three_classification(census):
    for n in range(5, 10):
        report = verify_top_three(n, records=census(n))
        assert report.passed, (n, report.failures)
        q = 1 << (n - 5)
        assert report.details["observed"] == {"first": 32 * q, "second": 26 * q, "third": 23 * q}
    assert report.details["observed"] == {"first": 512, "second": 416, "third": 368}
    announce(3, "top three values and witness shapes exact for n=5..9")


def test_criterion_04_gap(census):
    for n in range(5, 10):
        report = verify_gap(n, records=census(n))
        assert report.passed, (n, report.failures)
    announce(4, "no count value inside (23q,26q) or (26q,32q) for n=5..9")


def test_criterion_05_seven_element_comparisons(census):
    counts = [
        count_subuniverses(build_expression(e))
        for e in ("N5+C3", "B4+B4", "(C2xC3)+C2")
    ]
    assert counts == [92, 85, 76]
    assert counts[0] > counts[1] > counts[2]
    ns7 = {rec.sub_count for rec in census(7)}
    assert 85 in ns7 and 76 in ns7 and 85 > 76
    announce(5, "92 > 85 > 76 reproduced and 85 sits above 76 in the n=7 spectrum")


def test_criterion_06_antichain_bound(census):
    m3_hex = canonical_form(named("M3")).hex()
    for n in range(5, 10):
        report = verify_antichain_bound(n, records=census(n))
        assert report.passed, (n, report.failures)
        assert report.details["max_count"] == 20 << (n - 5), n  # the bound is attained
        if n == 5:
            assert report.details["max_witnesses"] == (m3_hex,)
    assert report.details["max_count"] == 320
    announce(6, "3-antichain implies count <= 20*2^(n-5); max ratio exactly 20")


def test_criterion_07_trace_and_sublattice_bounds(census):
    samples_a = samples_b = 0
    for n in range(1, 8):
        for rec in census(n):
            lat = record_lattice(rec)
            total = rec.sub_count
            for size in range(min(n, 4) + 1):
                for h in itertools.combinations(range(n), size):
                    assert total <= trace_count(lat, h) * 2 ** (n - size)
                    samples_a += 1
            seen = set()
            for size in range(1, min(n, 3) + 1):
                for gens in itertools.combinations(range(n), size):
                    samples_b += 1
                    k_mask = mask_of(closure_bruteforce(lat, set(gens)))
                    if k_mask in seen:
                        continue
                    seen.add(k_mask)
                    induced = sublattice(lat, k_mask)
                    assert total <= count_subuniverses(induced) * 2 ** (n - induced.n)
    assert samples_a + samples_b >= 1000
    _check_equality_case_both_directions(census)
    announce(
        7,
        f"trace/sublattice bounds on {samples_a}+{samples_b} samples; "
        "equality case exact in both directions",
    )


def _check_equality_case_both_directions(census):
    # forward: chains glued around B4 or N5 scale the count by 2 per element
    for name in ("B4", "N5"):
        core = named(name)
        assert isolated_elements(core) == () and isolated_edges(core) == ()
        base = count_subuniverses(core)
        for c0, c1 in itertools.product(range(1, 5), repeat=2):
            if c0 + c1 > 5:
                continue
            lat = reduce(glued_sum, (chain(c0), core, chain(c1)))
            extra = lat.n - core.n
            assert count_subuniverses(lat) == base * 2**extra
    # converse: equality plus an embedded copy forces the glued shape
    targets = [(named("B4"), 13, GLUED_B4), (named("N5"), 23, GLUED_N5)]
    for n in range(5, 9):
        for rec in census(n):
            for core, base, tag in targets:
                if rec.sub_count != base * 2 ** (n - core.n):
                    continue
                lat = record_lattice(rec)
                if _embeds(lat, core):
                    assert rec.classification == tag, rec.canon


def _embeds(lat, target):
    form = canonical_form(target)
    for mask in enumerate_subuniverses(lat):
        if mask.bit_count() == target.n and canonical_form(sublattice(lat, mask)) == form:
            return True
    return False


def test_criterion_08_isolated_characterization(census):
    for n in range(1, 8):
        for rec in census(n):
            lat = record_lattice(rec)
            isolated = set(isolated_elements(lat))
            for u in range(n):
                assert isolated_characterization_holds(lat, u) == (u in isolated)
    announce(8, "add/remove-stability matches isolated elements on n<=7 census")


def test_criterion_09_oracle_equivalence(census):
    for n in range(1, 8):
        for rec in census(n):
            lat = record_lattice(rec)
            assert count_subuniverses(lat) == count_subuniverses_naive(lat)
    rng = random.Random(0xC0FFEE)
    expressions = set()
    while len(expressions) < 100:
        expressions.add(random_expression(rng, 14))
    for expr in sorted(expressions) + ["(C5+C3)xC2"]:  # last one pins n = 14
        lat = build_expression(expr)
        assert lat.n <= 14
        assert count_subuniverses(lat) == count_subuniverses_naive(lat), expr
    for n in range(1, 7):
        for rec in census(n):
            lat = record_lattice(rec)
            assert count_congruences(lat) == count_congruences_naive(lat)
    announce(9, "optimized counters match naive scans (census and 100 random)")


def test_criterion_10_congruence_spectra(census):
    for n in (6, 7, 8, 9):
        report = verify_congruence_spectrum(n)
        assert report.passed, (n, report.failures)
        assert report.details["values_ok"] and report.details["witnesses_ok"]
    announce(10, "five largest congruence counts and top-three shapes for n=6..9")


def test_criterion_11_census_determinism(tmp_path, capsys):
    paths = [tmp_path / name for name in ("r1.jsonl", "r2.jsonl", "j4.jsonl")]
    for path, jobs in zip(paths, ("1", "1", "4")):
        assert main(["census", "--size", "7", "--jobs", jobs, "--out", str(path)]) == 0
    capsys.readouterr()
    blobs = [path.read_bytes() for path in paths]
    assert blobs[0] == blobs[1], "reruns differ"
    assert blobs[0] == blobs[2], "--jobs 4 differs from --jobs 1"
    assert len(blobs[0].decode().strip().split("\n")) == 53
    announce(11, "n=7 census JSONL byte-identical across reruns and --jobs 1 vs 4")
