"""Exhaustive verdicts over the census of small lattices.

Every check takes a size n and, optionally, the census records for n, and
returns one ``Verdict``: the extremal-count classification (top three
subuniverse counts 2^n, 26*2^(n-5), 23*2^(n-5) and their witness shapes),
the gaps between those values, the 20*2^(n-5) bound for lattices with a
3-antichain, and the largest congruence counts.  ``CHECKS`` maps the CLI's
``--theorem`` names to the check functions.  ``run_checks`` is the one path
from sizes to verdicts: per size it builds one census, with congruence
counts only when a selected check reads them, and runs every selected check
on it.  ``spectrum(n, kind)`` groups one census's subuniverse or congruence
counts by value and carries the matching verdicts as a summary.  Every check
and the spectrum run at every size from 5 (1 for the spectrum) up to the
census limit ``GEN_LIMIT``.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

from .census import CensusRecord, census_records
from .core import GEN_LIMIT, LatticeError, SizeTooSmall, check_size
from .structure import CHAIN, GLUED_B4, GLUED_N5

TOP_SHAPES = (CHAIN, GLUED_B4, GLUED_N5)  # witnesses of the top three values


class UnknownTheorem(LatticeError, ValueError):
    """Theorem name that is neither a key of ``CHECKS`` nor ``"all"``."""


class Verdict(NamedTuple):
    """Outcome of one check at one size.

    ``details`` holds the check's own findings (expected and observed values,
    witnesses, partial verdicts); it is emitted between ``passed`` and
    ``failures`` in the JSON report.
    """

    check: str
    n: int
    failures: list[str]
    counterexamples: list[str]
    details: dict

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "n": self.n,
            "passed": self.passed,
            **self.details,
            "failures": self.failures,
            "counterexamples": self.counterexamples,
        }


class SpectrumReport(NamedTuple):
    """Distinct count values (descending) with witness canonical forms."""

    n: int
    kind: str  # "sub" or "con"
    values: tuple[int, ...]
    witnesses: tuple[tuple[int, tuple[str, ...]], ...]
    top_verdicts: Optional[dict[str, bool]] = None

    def to_json_dict(self) -> dict:
        d = {
            "n": self.n,
            "kind": self.kind,
            "values": list(self.values),
            "witnesses": [
                {"value": v, "canons": list(ws)} for v, ws in self.witnesses
            ],
        }
        if self.top_verdicts is not None:
            d["top_verdicts"] = self.top_verdicts
        return d


def _check_size(n: int) -> None:
    if n < 5:
        raise SizeTooSmall(f"extremal-count checks are stated for n >= 5, got {n}")
    check_size("verification", n, GEN_LIMIT)


def _checked_records(
    n: int, records: Optional[list[CensusRecord]], with_con: bool = False
) -> list[CensusRecord]:
    """The census of n, or the given records once they are checked to be
    records of n: a verdict on no records, or on another size, would pass."""
    _check_size(n)
    if records is None:
        return census_records(n, with_con=with_con)
    if not records:
        raise ValueError(f"no records to check at n = {n}")
    for rec in records:
        if rec.n != n:
            raise ValueError(f"record {rec.canon} has n = {rec.n}, not {n}")
    return records


def _top_three(n: int) -> tuple[int, int, int]:
    q = 1 << (n - 5)
    return 32 * q, 26 * q, 23 * q


def _gap_intervals(n: int) -> list[list[int]]:
    first, second, third = _top_three(n)
    return [[third, second], [second, first]]


def _check_gaps(n, records, failures, counterexamples) -> bool:
    """Record every class whose subuniverse count lies strictly inside a gap
    between the top three values; True when there is none."""
    intervals = _gap_intervals(n)
    ok = True
    for rec in records:
        if any(lo < rec.sub_count < hi for lo, hi in intervals):
            ok = False
            failures.append(
                f"{rec.canon} has {rec.sub_count} subuniverses, inside a gap"
            )
            counterexamples.append(rec.canon)
    return ok


def _check_shapes(
    records, values, field: str, failures, counterexamples
) -> tuple[bool, list[tuple[str, ...]]]:
    """Compare the classes whose ``field`` count equals each of ``values``
    with the classes of the matching ``TOP_SHAPES`` tag; returns the verdict
    and the witnesses."""
    ok = True
    witnesses = []
    for value, tag in zip(values, TOP_SHAPES):
        with_count = {rec.canon for rec in records if getattr(rec, field) == value}
        with_shape = {rec.canon for rec in records if rec.classification == tag}
        witnesses.append(tuple(sorted(with_count)))
        if with_count != with_shape:
            ok = False
            bad = sorted(with_count ^ with_shape)
            counterexamples.extend(bad)
            failures.append(
                f"witnesses of {field} {value} differ from {tag} shapes: {bad}"
            )
    return ok, witnesses


def verify_top_three(n: int, records: Optional[list[CensusRecord]] = None) -> Verdict:
    """Check the three largest count values and their witness shapes, plus the
    gaps between them, over the full census at size n."""
    records = _checked_records(n, records)
    places = ("first", "second", "third")
    expected = dict(zip(places, _top_three(n)))
    values = sorted({rec.sub_count for rec in records}, reverse=True)
    observed = {place: values[k] if k < len(values) else None
                for k, place in enumerate(places)}
    failures: list[str] = []
    counterexamples: list[str] = []

    values_ok = observed == expected
    if not values_ok:
        failures.append(
            f"top three values are {values[:3]}, expected {list(expected.values())}"
        )
    witnesses_ok, witnesses = _check_shapes(
        records, expected.values(), "sub_count", failures, counterexamples
    )
    gap_ok = _check_gaps(n, records, failures, counterexamples)
    return Verdict("top-three", n, failures, counterexamples, {
        "expected": expected,
        "observed": observed,
        "witnesses": dict(zip(places, witnesses)),
        "values_ok": values_ok,
        "witnesses_ok": witnesses_ok,
        "gap_ok": gap_ok,
    })


def verify_gap(n: int, records: Optional[list[CensusRecord]] = None) -> Verdict:
    """No n-element lattice has a subuniverse count strictly between
    23*2^(n-5) and 26*2^(n-5), or between 26*2^(n-5) and 2^n."""
    records = _checked_records(n, records)
    failures: list[str] = []
    counterexamples: list[str] = []
    _check_gaps(n, records, failures, counterexamples)
    return Verdict("gap", n, failures, counterexamples,
                   {"intervals": _gap_intervals(n)})


def verify_antichain_bound(
    n: int, records: Optional[list[CensusRecord]] = None
) -> Verdict:
    """Every n-element lattice containing a 3-antichain has at most
    20*2^(n-5) subuniverses; report the maximum attained."""
    records = _checked_records(n, records)
    bound = 20 << (n - 5)
    with_antichain = [rec for rec in records if rec.has_antichain3]
    failures: list[str] = []
    counterexamples: list[str] = []
    max_count = max((rec.sub_count for rec in with_antichain), default=0)
    max_witnesses = tuple(
        sorted(rec.canon for rec in with_antichain if rec.sub_count == max_count)
    )
    for rec in with_antichain:
        if rec.sub_count > bound:
            failures.append(
                f"{rec.canon} has a 3-antichain but {rec.sub_count} > {bound}"
            )
            counterexamples.append(rec.canon)
    return Verdict("antichain-bound", n, failures, counterexamples, {
        "bound": bound,
        "checked": len(with_antichain),
        "max_count": max_count,
        "max_witnesses": max_witnesses,
    })


def verify_congruence_spectrum(
    n: int, records: Optional[list[CensusRecord]] = None
) -> Verdict:
    """Verdicts for the five largest congruence counts at one size.

    The reference values are 16, 8, 5, 4 and 3.5 times 2^(n-5), and the
    observed top values must match them in order.  From n = 6 on every
    reference value is integral and attained, and a missing one fails the
    check; at n = 5 the fractional 3.5 and the unattained 4 are skipped (the
    top values there are 16, 8, 5, 2).  The top three witness sets must be
    exactly the chain / glued-B4 / glued-N5 classes.
    """
    records = _checked_records(n, records, with_con=True)
    if any(rec.con_count is None for rec in records):
        raise ValueError(
            "congruence checks need records with con_count; "
            "build them with census_records(n, with_con=True)"
        )

    # 16, 8, 5, 4, 3.5 in units of 2^(n-5); 3.5*2^(n-5) = 7*2^(n-6)
    scaled = [v << (n - 5) for v in (32, 16, 10, 8, 7)]
    reference = [v // 2 if v % 2 == 0 else v / 2 for v in scaled]
    expected = [v for v in reference if isinstance(v, int)]
    observed = sorted({rec.con_count for rec in records}, reverse=True)
    observed_set = set(observed)
    expected_present = [v for v in expected if v in observed_set]
    top = observed[: len(expected_present)]

    failures: list[str] = []
    counterexamples: list[str] = []
    missing = [v for v in expected if v not in observed_set] if n >= 6 else []
    if missing:
        failures.append(f"reference congruence counts {missing} are attained by no class")
    values_ok = top == expected_present and not missing
    if top != expected_present:
        failures.append(
            f"largest congruence counts {top} do not match {expected_present}"
        )
        for v in top:
            if v not in expected_present:
                counterexamples.extend(
                    sorted(rec.canon for rec in records if rec.con_count == v)
                )
    witnesses_ok, _ = _check_shapes(
        records, expected, "con_count", failures, counterexamples
    )
    return Verdict("congruence-spectrum", n, failures, counterexamples, {
        "expected": reference,
        "expected_present": expected_present,
        "observed_top": top,
        "values_ok": values_ok,
        "witnesses_ok": witnesses_ok,
    })


CHECKS: dict[str, Callable[..., Verdict]] = {
    "main": verify_top_three,
    "corollary": verify_gap,
    "lemma4": verify_antichain_bound,
    "remark1": verify_congruence_spectrum,
}


def run_checks(theorem: str, sizes: Iterable[int]) -> list[Verdict]:
    """Run the check named ``theorem``, or with ``"all"`` every check in
    ``CHECKS`` order, on one census per size.

    Congruences are counted only for ``"remark1"`` and ``"all"``.  The
    name and every size are checked before any census is built, so an
    unknown theorem (``UnknownTheorem``) or an out-of-range size fails at
    once.
    """
    if theorem != "all" and theorem not in CHECKS:
        names = ", ".join(repr(name) for name in [*CHECKS, "all"])
        raise UnknownTheorem(f"theorem must be one of {names}, got {theorem!r}")
    sizes = list(sizes)
    if not sizes:
        raise SizeTooSmall("no size to verify; the checks are stated for n >= 5")
    for n in sizes:
        _check_size(n)
    checks = list(CHECKS.values()) if theorem == "all" else [CHECKS[theorem]]
    verdicts = []
    for n in sizes:
        records = census_records(n, with_con=theorem in ("remark1", "all"))
        verdicts.extend(check(n, records=records) for check in checks)
    return verdicts


# per spectrum kind: the check on its counts, and the report's verdict keys
# mapped to the check's detail keys
_SPECTRUM_VERDICTS = {
    "sub": (verify_top_three, {
        "top_three_values": "values_ok", "witness_shapes": "witnesses_ok", "gap": "gap_ok",
    }),
    "con": (verify_congruence_spectrum, {
        "top_values": "values_ok", "top_three_shapes": "witnesses_ok",
    }),
}


def spectrum(n: int, kind: str = "sub") -> SpectrumReport:
    """All subuniverse (``kind="sub"``) or congruence (``kind="con"``) count
    values over n-element lattices, with witnesses; from n = 5 on, also the
    verdicts of the check on those counts."""
    if kind not in _SPECTRUM_VERDICTS:
        raise ValueError(f"spectrum kind must be 'sub' or 'con', got {kind!r}")
    records = census_records(n, with_con=kind == "con")
    by_value: dict[int, list[str]] = {}
    for rec in records:
        by_value.setdefault(getattr(rec, f"{kind}_count"), []).append(rec.canon)
    values = tuple(sorted(by_value, reverse=True))
    witnesses = tuple((v, tuple(sorted(by_value[v]))) for v in values)
    verdicts = None
    if n >= 5:
        check, keys = _SPECTRUM_VERDICTS[kind]
        details = check(n, records=records).details
        verdicts = {key: details[detail] for key, detail in keys.items()}
    return SpectrumReport(n, kind, values, witnesses, verdicts)
