from dataclasses import replace

from latcensus.congruence import with_con_counts
from latcensus.verify import verify_congruence_spectrum, verify_gap, verify_top_three


def test_gap_rule_is_shared_by_main_and_corollary(census):
    records = census(5)
    fake = replace(records[0], sub_count=24)  # strictly between 23 and 26
    records = [fake] + records[1:]
    top_three = verify_top_three(5, records=records)
    gap = verify_gap(5, records=records)
    assert not top_three.passed and top_three.details["gap_ok"] is False
    assert not gap.passed
    assert fake.canon in top_three.counterexamples
    assert gap.counterexamples == [fake.canon]


def test_congruence_spectrum_at_five_skips_the_unattained_values(census):
    report = verify_congruence_spectrum(5, records=census(5))
    assert report.passed
    assert report.details["expected"] == [16, 8, 5, 4, 3.5]
    assert report.details["expected_present"] == [16, 8, 5]
    assert report.details["observed_top"] == [16, 8, 5]


def test_congruence_spectrum_fails_on_a_missing_reference_value(census):
    records = with_con_counts(census(6))
    assert any(rec.con_count == 7 for rec in records)
    without_seven = [rec for rec in records if rec.con_count != 7]  # 7 = 3.5*2^(6-5)
    report = verify_congruence_spectrum(6, records=without_seven)
    assert not report.passed
    assert report.details["values_ok"] is False
    assert any("[7]" in line for line in report.failures)

