import pytest

from latcensus import verify as verify_mod
from latcensus.structure import OTHER
from latcensus.verify import (
    run_checks,
    spectrum,
    verify_antichain_bound,
    verify_congruence_spectrum,
    verify_gap,
    verify_top_three,
)

M3 = "05000100020003010402040304"  # the one 5-element class with a 3-antichain
B4_BELOW = "0500010002010302030304"  # B4 + C2: one of the two GluedB4 classes


def _doctored(records, canon, **fields):
    """The records with the one of class ``canon`` given new ``fields``."""
    assert canon in {rec.canon for rec in records}
    return [rec._replace(**fields) if rec.canon == canon else rec for rec in records]


def test_gap_rule_is_shared_by_main_and_corollary(census):
    records = census(5)
    fake = records[0]._replace(sub_count=24)  # strictly between 23 and 26
    records = [fake] + records[1:]
    top_three = verify_top_three(5, records=records)
    gap = verify_gap(5, records=records)
    assert not top_three.passed and top_three.details["gap_ok"] is False
    assert not gap.passed
    assert fake.canon in top_three.counterexamples
    assert gap.counterexamples == [fake.canon]


def test_congruence_spectrum_at_five_skips_the_unattained_values(census):
    report = verify_congruence_spectrum(5, records=census(5, with_con=True))
    assert report.passed
    assert report.details["expected"] == [16, 8, 5, 4, 3.5]
    assert report.details["expected_present"] == [16, 8, 5]
    assert report.details["observed_top"] == [16, 8, 5]


def test_congruence_spectrum_fails_on_a_missing_reference_value(census):
    records = census(6, with_con=True)
    assert any(rec.con_count == 7 for rec in records)
    without_seven = [rec for rec in records if rec.con_count != 7]  # 7 = 3.5*2^(6-5)
    report = verify_congruence_spectrum(6, records=without_seven)
    assert not report.passed
    assert report.details["values_ok"] is False
    assert any("[7]" in line for line in report.failures)


def test_top_three_fails_on_a_witness_of_the_wrong_shape(census):
    records = _doctored(census(5), B4_BELOW, classification=OTHER)
    report = verify_top_three(5, records=records)
    assert not report.passed
    assert report.details["values_ok"] and report.details["gap_ok"]
    assert report.details["witnesses_ok"] is False
    assert report.failures == [
        f"witnesses of sub_count 26 differ from GluedB4 shapes: ['{B4_BELOW}']"
    ]
    assert report.counterexamples == [B4_BELOW]


def test_antichain_bound_fails_on_a_count_above_the_bound(census):
    records = _doctored(census(5), M3, sub_count=21)
    report = verify_antichain_bound(5, records=records)
    assert not report.passed
    assert report.details["max_count"] == 21
    assert report.failures == [f"{M3} has a 3-antichain but 21 > 20"]
    assert report.counterexamples == [M3]


def test_congruence_spectrum_fails_on_a_wrong_top_value(census):
    records = _doctored(census(5, with_con=True), M3, con_count=12)
    report = verify_congruence_spectrum(5, records=records)
    assert not report.passed
    assert report.details["observed_top"] == [16, 12, 8]
    assert report.details["values_ok"] is False and report.details["witnesses_ok"]
    assert report.failures == ["largest congruence counts [16, 12, 8] do not match [16, 8, 5]"]
    assert report.counterexamples == [M3]


@pytest.mark.parametrize("check,n,with_con", [
    (verify_top_three, 7, False),
    (verify_gap, 7, False),
    (verify_antichain_bound, 7, False),
    (verify_congruence_spectrum, 5, True),
])
def test_checks_refuse_records_that_are_not_the_census_of_n(census, check, n, with_con):
    with pytest.raises(ValueError, match=f"^no records to check at n = {n}$"):
        check(n, records=[])
    smaller = census(n - 1, with_con=with_con)
    with pytest.raises(ValueError, match=f"^record {smaller[0].canon} has n = {n - 1}, not {n}$"):
        check(n, records=smaller)
    mixed = census(n, with_con=with_con)[1:] + smaller[:1]
    with pytest.raises(ValueError, match=f"has n = {n - 1}, not {n}$"):
        check(n, records=mixed)


def test_congruence_spectrum_refuses_records_without_congruence_counts(census):
    with pytest.raises(ValueError, match=r"census_records\(n, with_con=True\)"):
        verify_congruence_spectrum(5, records=census(5))


def test_spectrum_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="bogus"):
        spectrum(5, "bogus")


def test_run_checks_refuses_an_unknown_theorem_before_any_census(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a census was built")

    monkeypatch.setattr(verify_mod, "census_records", refuse)
    with pytest.raises(ValueError, match="nope") as info:
        run_checks("nope", [5])
    for name in [*verify_mod.CHECKS, "all"]:
        assert repr(name) in str(info.value)


def test_run_checks_builds_one_census_per_size(monkeypatch):
    """Every selected check runs on the one census built for its size, and
    congruences are counted only when a selected check reads them."""
    built, seen = [], []
    census_records = verify_mod.census_records

    def recording(n, with_con=False):
        records = census_records(n, with_con=with_con)
        built.append((n, with_con, records))
        return records

    monkeypatch.setattr(verify_mod, "census_records", recording)
    for name, check in list(verify_mod.CHECKS.items()):
        def seeing(n, records=None, check=check):
            seen.append((n, records))
            return check(n, records=records)

        monkeypatch.setitem(verify_mod.CHECKS, name, seeing)

    for theorem, with_con, per_size in (("main", False, 1), ("all", True, len(verify_mod.CHECKS))):
        built.clear()
        seen.clear()
        assert len(run_checks(theorem, [5, 6])) == 2 * per_size
        assert [(n, c) for n, c, _ in built] == [(5, with_con), (6, with_con)]
        expected = [(n, records) for n, _, records in built for _ in range(per_size)]
        assert [n for n, _ in seen] == [n for n, _ in expected]
        assert all(got is want for (_, got), (_, want) in zip(seen, expected))
