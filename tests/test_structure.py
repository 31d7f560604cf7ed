import itertools
import random
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latcensus import core as core_mod
from latcensus.canon import canonical_form
from latcensus.core import SizeLimit, build_expression, chain, glued_sum, named
from latcensus.structure import (
    CHAIN,
    GLUED_B4,
    GLUED_N5,
    OTHER,
    classify,
    decompose_glued_sum,
    doubly_irreducibles,
    find_antichain,
    is_chain,
    isolated_edges,
    isolated_elements,
)
from latcensus.subuniverse import count_subuniverses
from oracles import (
    classify_by_canonical_form,
    find_antichain_bruteforce,
    isolated_characterization_holds,
    join_irreducibles,
    meet_irreducibles,
    random_relabeling,
    record_lattice,
)
from strategies import glued_expressions, lattice_expressions


def test_is_chain():
    assert is_chain(chain(5))
    assert is_chain(chain(1))
    assert not is_chain(named("B4"))
    assert not is_chain(named("N5"))


def test_find_antichain_examples():
    assert find_antichain(chain(5), 2) is None
    assert find_antichain(chain(5), 3) is None
    assert find_antichain(named("B8"), 3) == (1, 2, 4)
    n5 = named("N5")
    assert find_antichain(n5, 3) is None
    assert find_antichain(n5, 2) == (1, 2)
    assert find_antichain(named("M3"), 3) == (1, 2, 3)
    with pytest.raises(ValueError):
        find_antichain(n5, 4)


def test_find_antichain_is_lexicographically_first():
    lat = build_expression("C2+B4")  # incomparable pair sits at {2, 3}
    assert find_antichain(lat, 2) == (2, 3)


@pytest.mark.parametrize("n", range(1, 10))
def test_find_antichain_equals_bruteforce_on_census_classes(census, n):
    for rec in census(n):
        lat = record_lattice(rec)
        for k in (2, 3):
            assert find_antichain(lat, k) == find_antichain_bruteforce(lat, k)


@given(expr=lattice_expressions(max_size=16), seed=st.integers(0, 2**32 - 1))
def test_find_antichain_equals_bruteforce_on_relabeled_expressions(expr, seed):
    lat = random_relabeling(build_expression(expr), random.Random(seed))
    for k in (2, 3):
        assert find_antichain(lat, k) == find_antichain_bruteforce(lat, k)


def test_irreducibles_convention():
    c4 = chain(4)
    assert join_irreducibles(c4) == (0, 1, 2, 3)  # bottom counts
    assert meet_irreducibles(c4) == (0, 1, 2, 3)
    assert doubly_irreducibles(c4) == (0, 1, 2, 3)
    b4 = named("B4")
    assert join_irreducibles(b4) == (0, 1, 2)
    assert meet_irreducibles(b4) == (1, 2, 3)
    assert doubly_irreducibles(b4) == (1, 2)
    assert doubly_irreducibles(named("M3")) == (1, 2, 3)
    assert doubly_irreducibles(named("B8")) == ()


def test_isolated_elements_examples():
    assert isolated_elements(chain(4)) == (0, 1, 2, 3)
    assert isolated_elements(named("N5")) == ()
    assert isolated_elements(build_expression("B4+C2")) == (4,)
    assert isolated_elements(named("B4")) == ()  # bottom/top have two covers
    assert isolated_elements(build_expression("C2+M3")) == (0,)


def test_isolated_edges_examples():
    assert isolated_edges(chain(5)) == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert isolated_edges(named("B4")) == ()
    assert isolated_edges(build_expression("B4+B4")) == ()
    assert isolated_edges(build_expression("B4+C2")) == ((3, 4),)


def test_b4_and_n5_have_no_isolated_parts():
    for name in ("B4", "N5"):
        lat = named(name)
        assert isolated_elements(lat) == ()
        assert isolated_edges(lat) == ()


def test_characterization_examples():
    assert isolated_characterization_holds(chain(3), 1)
    assert not isolated_characterization_holds(named("N5"), 1)
    assert not isolated_characterization_holds(named("M3"), 1)
    with pytest.raises(SizeLimit):
        isolated_characterization_holds(chain(21), 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_characterization_matches_isolated_elements(census, n):
    for rec in census(n):
        lat = record_lattice(rec)
        isolated = set(isolated_elements(lat))
        for u in range(n):
            assert isolated_characterization_holds(lat, u) == (u in isolated)


def test_decompose_examples():
    d = decompose_glued_sum(chain(4))
    assert [b.n for b in d.blocks] == [2, 2, 2]
    assert d.cuts == (0, 1, 2, 3)
    d = decompose_glued_sum(build_expression("C2+N5+C2"))
    assert [b.n for b in d.blocks] == [2, 5, 2]
    assert canonical_form(d.blocks[1]) == canonical_form(named("N5"))
    d = decompose_glued_sum(named("M3"))
    assert len(d.blocks) == 1 and d.blocks[0] == named("M3")
    assert decompose_glued_sum(chain(1)).blocks == ()


def test_decompose_block_sizes_sum(census):
    for rec in census(6):
        lat = record_lattice(rec)
        d = decompose_glued_sum(lat)
        assert sum(b.n for b in d.blocks) == lat.n + max(len(d.cuts) - 2, 0)


@given(lattice_expressions(max_size=12))
def test_decompose_then_glue_roundtrip(expr):
    lat = build_expression(expr)
    blocks = decompose_glued_sum(lat).blocks
    if blocks:
        rebuilt = reduce(glued_sum, blocks)
        assert rebuilt == lat  # blocks keep index order, so equality is exact


@pytest.mark.parametrize(
    "expr,tag,predicted",
    [
        ("C6", CHAIN, 64),
        ("C1", CHAIN, 2),
        ("B4+C3", GLUED_B4, 52),
        ("C2+B4+C2", GLUED_B4, 52),
        ("B4", GLUED_B4, 13),
        ("C2+N5", GLUED_N5, 46),
        ("N5+C3", GLUED_N5, 92),
        ("M3", OTHER, None),
        ("B8", OTHER, None),
        ("B4+B4", OTHER, None),
        ("(C2xC3)+C2", OTHER, None),
        ("C2xC7", OTHER, None),
        ("C2+(C3xC5)+C2", OTHER, None),
    ],
)
def test_classify_examples(expr, tag, predicted):
    cls = classify(build_expression(expr))
    assert cls.tag == tag
    assert cls.predicted_count == predicted


def test_classify_witness_decomposition():
    cls = classify(build_expression("C3+B4+C2"))
    assert cls.tag == GLUED_B4
    assert (cls.prefix, cls.suffix) == (2, 1)
    assert cls._fields == ("tag", "predicted_count", "prefix", "suffix")
    chain_cls = classify(chain(6))
    assert (chain_cls.prefix, chain_cls.suffix) == (0, 0)


def _assert_classify_matches_oracle(lat):
    cls = classify(lat)
    got = (cls.tag, cls.predicted_count, cls.prefix, cls.suffix)
    assert got == classify_by_canonical_form(lat), lat


def test_classify_builds_no_lattice(census, monkeypatch):
    """With ``core._finish``, behind ``from_covers`` and ``sublattice``, patched to
    raise, ``classify`` still answers every class with n <= 8 and two
    glued sums, and agrees with the oracle computed before the patch."""
    lattices = [record_lattice(rec) for n in range(1, 9) for rec in census(n)]
    lattices += [build_expression("C2+B4+C3"), build_expression("C1+N5+C2")]
    expected = [classify_by_canonical_form(lat) for lat in lattices]

    def refuse(*args):
        raise RuntimeError("classify built a lattice")

    monkeypatch.setattr(core_mod, "_finish", refuse)
    with pytest.raises(RuntimeError):
        core_mod.sublattice(named("B4"), 0b1111)  # the patch is the one builds reach
    for lat, want in zip(lattices, expected):
        cls = classify(lat)
        assert (cls.tag, cls.predicted_count, cls.prefix, cls.suffix) == want, lat


@pytest.mark.parametrize("n", range(1, 10))
def test_classify_agrees_with_canonical_form_matcher_on_census(census, n):
    for rec in census(n):
        _assert_classify_matches_oracle(record_lattice(rec))


@given(
    expr=st.one_of(
        st.builds(
            "C{}+{}+C{}".format,
            st.integers(1, 4),
            st.sampled_from(["B4", "N5", "M3", "C2xC3", "B8", "N5+M3"]),
            st.integers(1, 4),
        ),
        glued_expressions(max_size=16),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_classify_agrees_with_canonical_form_matcher_on_relabeled_sums(expr, seed):
    lat = random_relabeling(build_expression(expr), random.Random(seed))
    _assert_classify_matches_oracle(lat)


def test_predicted_count_matches_actual_for_named_classes():
    for expr in ("C5", "B4+C3", "C2+B4", "N5+C2", "C2+N5+C3"):
        lat = build_expression(expr)
        cls = classify(lat)
        assert cls.tag in (CHAIN, GLUED_B4, GLUED_N5)
        assert cls.predicted_count == count_subuniverses(lat)


def test_glued_equality_for_blocks_without_isolated_parts():
    # gluing chains around B4 or N5 scales the count by exactly 2 per element
    for name in ("B4", "N5"):
        core = named(name)
        base = count_subuniverses(core)
        for prefix, suffix in itertools.product(range(3), repeat=2):
            lat = chain(prefix + 1)
            lat = glued_sum(lat, core)
            lat = glued_sum(lat, chain(suffix + 1))
            assert count_subuniverses(lat) == base * 2 ** (prefix + suffix)


@pytest.mark.parametrize("n", range(5, 8))
def test_classification_matches_counts_on_census(census, n):
    # the three shapes hit exactly 2^n, 26*2^(n-5), 23*2^(n-5), and no other
    # lattice does
    q = 1 << (n - 5)
    expected = {CHAIN: 32 * q, GLUED_B4: 26 * q, GLUED_N5: 23 * q}
    for rec in census(n):
        if rec.classification in expected:
            assert rec.sub_count == expected[rec.classification]
        else:
            assert rec.sub_count not in expected.values()


def test_converse_equality_forces_glued_shape(census):
    # if the count equals |Sub(K)|*2^(n-|K|) for an embedded K in {B4, N5},
    # the lattice must be chains glued around one K block
    targets = {GLUED_B4: (named("B4"), 13), GLUED_N5: (named("N5"), 23)}
    for n in range(5, 8):
        for rec in census(n):
            lat = record_lattice(rec)
            for tag, (core, base) in targets.items():
                if rec.sub_count != base * 2 ** (n - core.n):
                    continue
                if _contains_sublattice(lat, core):
                    assert rec.classification == tag


def _contains_sublattice(lat, target):
    from latcensus.subuniverse import enumerate_subuniverses
    from latcensus.core import sublattice

    forms = canonical_form(target)
    for mask in enumerate_subuniverses(lat):
        if mask.bit_count() == target.n:
            if canonical_form(sublattice(lat, mask)) == forms:
                return True
    return False
