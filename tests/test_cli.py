import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latcensus import census as census_mod
from latcensus import cli as cli_mod
from latcensus import verify as verify_mod
from latcensus.cli import ENUM_CHUNK, lattice_json, main, normalized_count
from latcensus.core import build_expression, chain
from oracles import diamond, enumerate_output, random_relabeling
from strategies import closure_lattices, lattice_expressions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_count_expr(capsys):
    payload = run_json(capsys, "count", "--expr", "N5")
    assert payload["sub_count"] == 23
    assert payload["n"] == 5
    assert payload["normalized"] == "23*2^(5-5)"


def test_count_glued_chain(capsys):
    payload = run_json(capsys, "count", "--expr", "C2+C2")
    assert payload == {"n": 3, "sub_count": 8}


def test_count_normalized_fraction(capsys):
    payload = run_json(capsys, "count", "--expr", "B4+B4")
    assert payload["normalized"] == "21.25*2^(7-5)"


def test_normalized_count_helper():
    assert normalized_count(92, 7) == "23*2^(7-5)"
    assert normalized_count(169, 8) == "21.125*2^(8-5)"
    assert normalized_count(8, 3) is None


def test_count_table_format(capsys):
    code, out, _ = run(capsys, "count", "--expr", "M3", "--format", "table")
    assert code == 0
    assert "sub_count: 20" in out


def test_info_emit_json_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "info", "--expr", "(C2xC3)+C2", "--emit-json")
    assert code == 0
    path = tmp_path / "lat.json"
    path.write_text(out)
    direct = run_json(capsys, "count", "--expr", "(C2xC3)+C2")
    via_file = run_json(capsys, "count", "--file", str(path))
    assert direct == via_file
    assert via_file["sub_count"] == 76


@pytest.mark.parametrize("k", [18, 40, 61])
def test_count_file_on_wide_diamonds(capsys, tmp_path, k):
    """M_k has 2^k + 3k + 3 subuniverses; counting them must not visit
    each one (M_40 alone has about 10^12)."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps(lattice_json(diamond(k))))
    payload = run_json(capsys, "count", "--file", str(path))
    assert (payload["n"], payload["sub_count"]) == (k + 2, 2**k + 3 * k + 3)


def test_info_fields(capsys):
    payload = run_json(capsys, "info", "--expr", "B4+C2")
    assert payload["n"] == 5
    assert payload["is_chain"] is False
    assert payload["class"] == "GluedB4"
    assert payload["isolated_elements"] == [4]
    assert payload["antichain3"] is None
    assert payload["bottom"] == 0 and payload["top"] == 4


def test_classify_output(capsys):
    payload = run_json(capsys, "classify", "--expr", "C2+N5+C2")
    assert payload["class"] == "GluedN5"
    assert payload["predicted_count"] == 23 * 2 ** (7 - 5)
    assert payload["chain_prefix"] == 1 and payload["chain_suffix"] == 1


# ``classify`` bytes as the version that built each core block wrote them
CLASSIFY_BYTES = {
    "C2+B4+C3": """{
  "n": 7,
  "class": "GluedB4",
  "predicted_count": 104,
  "chain_prefix": 1,
  "chain_suffix": 2,
  "core_size": 4,
  "normalized": "26*2^(7-5)"
}
""",
    "C1+N5+C2": """{
  "n": 6,
  "class": "GluedN5",
  "predicted_count": 46,
  "chain_prefix": 0,
  "chain_suffix": 1,
  "core_size": 5,
  "normalized": "23*2^(6-5)"
}
""",
}


@pytest.mark.parametrize("expr", sorted(CLASSIFY_BYTES))
def test_classify_bytes_are_pinned(capsys, expr):
    assert run(capsys, "classify", "--expr", expr) == (0, CLASSIFY_BYTES[expr], "")


def test_classify_and_info_on_large_core(capsys):
    # a 14-element core can be neither B4 nor N5, so it is never canonicalized
    payload = run_json(capsys, "classify", "--expr", "C2xC7")
    assert payload == {"n": 14, "class": "Other", "predicted_count": None}
    assert run_json(capsys, "info", "--expr", "C2xC7")["class"] == "Other"


def test_enumerate_formats(capsys):
    payload = run_json(capsys, "enumerate", "--expr", "C2")
    assert payload["subuniverses"] == [[], [0], [1], [0, 1]]
    code, out, _ = run(capsys, "enumerate", "--expr", "C2", "--format", "jsonl")
    assert code == 0
    assert [json.loads(line) for line in out.strip().split("\n")] == [
        [], [0], [1], [0, 1]
    ]


ENUM_FORMATS = ("json", "jsonl", "table")


def _enumerate_text(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["enumerate", *argv]) == 0
    return out.getvalue()


def _assert_same_text(got: str, want: str, what: str) -> None:
    # not a plain ==: pytest would diff outputs of up to a megabyte on failure
    if got != want:
        pairs = zip(got.splitlines(), want.splitlines())
        line = next((i for i, (g, w) in enumerate(pairs) if g != w), "end")
        pytest.fail(f"{what}: output differs from the oracle at line {line}")


def _assert_enumerate_matches_oracle(lat, path):
    path.write_text(json.dumps(lattice_json(lat)))
    for fmt in ENUM_FORMATS:
        got = _enumerate_text(["--file", str(path), "--format", fmt])
        _assert_same_text(got, enumerate_output(lat, fmt), fmt)


@pytest.mark.parametrize("k", range(3, 13))
def test_enumerate_bytes_match_oracle_on_diamonds(tmp_path, k):
    _assert_enumerate_matches_oracle(diamond(k), tmp_path / "m.json")


@pytest.mark.parametrize("expr", ["C2xC2xC4", "C3xC4", "C2xC8", "C4xC5", "C3xC6", "C2xC2xC5"])
def test_enumerate_bytes_match_oracle_on_relabeled_chain_products(tmp_path, expr):
    rng = random.Random(expr)
    lat = random_relabeling(build_expression(expr), rng)
    _assert_enumerate_matches_oracle(lat, tmp_path / "p.json")


@given(expr=lattice_expressions(max_size=16), seed=st.integers(0, 2**32 - 1))
def test_enumerate_bytes_match_oracle_on_random_lattices(tmp_path_factory, expr, seed):
    lat = random_relabeling(build_expression(expr), random.Random(seed))
    _assert_enumerate_matches_oracle(lat, tmp_path_factory.mktemp("enum") / "l.json")


@given(lat=closure_lattices(max_n=20))
def test_enumerate_bytes_match_oracle_on_closure_lattices(tmp_path_factory, lat):
    _assert_enumerate_matches_oracle(lat, tmp_path_factory.mktemp("enum") / "l.json")


@given(lat=closure_lattices(max_n=20))
def test_classify_and_info_answer_closure_lattices(tmp_path_factory, lat):
    path = tmp_path_factory.mktemp("closure") / "l.json"
    path.write_text(json.dumps(lattice_json(lat)))
    for command in ("classify", "info"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main([command, "--file", str(path)]) == 0, err.getvalue()
        assert json.loads(out.getvalue())["n"] == lat.n


# SHA-256 prefixes of the output as first released
@pytest.mark.parametrize(
    "expr,fmt,digest",
    [
        ("C2xC2xC4", "jsonl", "12cfa38f0ffc25dc"),
        ("C2xC2xC4", "table", "a9a09cc1d3c12b83"),
        ("C2xC2xC4", "json", "d12133100adf3654"),
        ("M3+B4", "jsonl", "7e41f4cbb75a87e5"),
        ("M3+B4", "table", "38c87d788a884bbf"),
        ("M3+B4", "json", "995bc149951fe40a"),
        ("N5xC2", "jsonl", "e2dff8d6d8e0908e"),
        ("N5xC2", "table", "54f2944c3301277d"),
        ("N5xC2", "json", "7099cece01af9c7e"),
        # measured before the scan was folded into enumerate_subuniverses
        ("B8+N5", "jsonl", "b8826423af31f8d3"),
        ("B8+N5", "table", "093cc7315777b8ce"),
        ("B8+N5", "json", "e5112302fe0a72a2"),
        ("C2xC3xC3", "jsonl", "fa129cbde2bd2a56"),
        ("C2xC3xC3", "table", "55cf44e7ccdd236f"),
        ("C2xC3xC3", "json", "89f53661eb8d126c"),
        ("M3+B4+N5", "jsonl", "dc11856186f52415"),
        ("M3+B4+N5", "table", "23aacc186d41a6e6"),
        ("M3+B4+N5", "json", "06fd4c7942d010ac"),
        # measured before the scan grouped earlier elements by meet and join
        ("C4xC5", "jsonl", "586323c472fd6c62"),
        ("C4xC5", "table", "eae814e202bd278c"),
        ("C4xC5", "json", "3d925ef7ca663377"),
    ],
)
def test_enumerate_bytes_are_pinned(expr, fmt, digest):
    text = _enumerate_text(["--expr", expr, "--format", fmt])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# M_14 under a fixed relabeling: 14 atoms whose pairwise meets and joins are
# the same two elements; measured as for C4xC5 above
@pytest.mark.parametrize(
    "fmt,digest",
    [("jsonl", "0e8144ed54646bb5"), ("table", "667d2bb2ff10c882"), ("json", "ea319304dc5715c4")],
)
def test_enumerate_file_bytes_are_pinned(tmp_path, fmt, digest):
    path = tmp_path / "m14.json"
    path.write_text(json.dumps(lattice_json(random_relabeling(diamond(14), random.Random(14)))))
    text = _enumerate_text(["--file", str(path), "--format", fmt])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("limit", [8, 25])
def test_enumerate_follows_any_enum_limit(monkeypatch, limit):
    # the two half-width member tables are built from the limit
    monkeypatch.setattr(cli_mod, "ENUM_LIMIT", limit)
    cli_mod._member_tables.cache_clear()
    try:
        for expr in ("C2xC4", "M3+B4"):  # 8 elements each
            lat = build_expression(expr)
            for fmt in ENUM_FORMATS:
                text = _enumerate_text(["--expr", expr, "--format", fmt])
                _assert_same_text(text, enumerate_output(lat, fmt), f"{expr} {fmt}")
        low, high, half = cli_mod._member_tables(" ")
        mask = 1 | 1 << (limit - 1)
        assert low[mask & (1 << half) - 1] + high[mask >> half] == f" 0 {limit - 1}"
    finally:
        cli_mod._member_tables.cache_clear()


# C1: the top is element 0, so the scan is skipped; C2: its one element
# below the top is decided in the leaf; N5xC4 (20 elements, 3508
# subuniverses): members on both sides of the member tables' split
@pytest.mark.parametrize("expr", ["C1", "C2", "N5xC4"])
def test_enumerate_bytes_match_oracle_on_leaf_and_split_cases(tmp_path, expr):
    _assert_enumerate_matches_oracle(build_expression(expr), tmp_path / "l.json")


def test_parser_builds_no_member_table():
    # the member tables are built by the first enumerate, never at start-up
    proc = _python(
        "-c",
        "import latcensus.cli as c; c.build_parser(); "
        "print(c._member_tables.cache_info().currsize)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


class _WriteLog:
    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def test_enumerate_streams_in_bounded_chunks():
    sink = _WriteLog()
    with contextlib.redirect_stdout(sink):
        assert main(["enumerate", "--expr", "C16", "--format", "jsonl"]) == 0
    lines = 2**16  # one per subuniverse of C16
    assert ENUM_CHUNK < lines and len(sink.writes) > lines // ENUM_CHUNK
    assert max(w.count("\n") for w in sink.writes) <= ENUM_CHUNK
    _assert_same_text("".join(sink.writes), enumerate_output(chain(16), "jsonl"), "C16")


def test_enumerate_refusal_leaves_out_file_untouched(capsys, tmp_path):
    path = tmp_path / "keep.txt"
    path.write_bytes(b"earlier output\n")
    code, out, err = run(capsys, "enumerate", "--expr", "C21", "--out", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert path.read_bytes() == b"earlier output\n"


def test_con_count(capsys):
    payload = run_json(capsys, "con-count", "--expr", "C5")
    assert payload["con_count"] == 16
    assert payload["normalized"] == "16*2^(5-5)"


def test_spectrum_json(capsys):
    payload = run_json(capsys, "spectrum", "--size", "5")
    assert payload["values"] == [32, 26, 23, 20]
    assert payload["top_verdicts"]["gap"] is True
    payload = run_json(capsys, "spectrum", "--size", "5", "--kind", "con")
    assert payload["values"] == [16, 8, 5, 2]


def test_census_output(capsys, tmp_path):
    out_path = tmp_path / "c5.jsonl"
    code, _, _ = run(capsys, "census", "--size", "5", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 5
    assert all(json.loads(line)["n"] == 5 for line in lines)


def test_census_with_con(capsys):
    code, out, _ = run(capsys, "census", "--size", "4", "--with-con")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert {row["con_count"] for row in rows} == {8, 4}


def test_census_table_is_pinned(capsys):
    code, out, _ = run(capsys, "census", "--size", "5", "--with-con", "--format", "table")
    assert code == 0
    assert out == (
        "05000100020003010402040304  sub=20 con=2  Other  3-antichain\n"
        "0500010002010302030304  sub=26 con=8  GluedB4\n"
        "0500010002010302040304  sub=23 con=5  GluedN5\n"
        "0500010102010302040304  sub=26 con=8  GluedB4\n"
        "050001010202030304  sub=32 con=16  Chain\n"
    )


@pytest.mark.parametrize("jobs", ["0", "-5", "two"])
def test_census_refuses_jobs_that_are_not_a_positive_integer(capsys, jobs):
    with pytest.raises(SystemExit) as err:
        main(["census", "--size", "5", "--jobs", jobs])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--jobs" in captured.err


def test_census_rerun_and_jobs_identical(capsys, tmp_path):
    paths = [tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl")]
    for path, jobs in zip(paths, ("1", "1", "2")):
        code, _, _ = run(
            capsys, "census", "--size", "6", "--jobs", jobs, "--out", str(path)
        )
        assert code == 0
    blobs = [path.read_bytes() for path in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_census_with_con_identical_for_any_jobs(capsys):
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "census", "--size", "7", "--with-con", "--jobs", jobs)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0].encode()).hexdigest().startswith("49f954db50d4e9f1")


def test_verify_main_passes(capsys):
    payload = run_json(capsys, "verify", "--theorem", "main", "--size", "5")
    assert payload["passed"] is True
    assert payload["observed"] == {"first": 32, "second": 26, "third": 23}


def test_verify_range(capsys):
    payload = run_json(capsys, "verify", "--theorem", "corollary", "--max-n", "6")
    assert payload["passed"] is True
    assert [r["n"] for r in payload["reports"]] == [5, 6]


def test_verify_lemma4_and_remark1(capsys):
    payload = run_json(capsys, "verify", "--theorem", "lemma4", "--size", "6")
    assert payload["passed"] is True and payload["max_count"] == 40
    payload = run_json(capsys, "verify", "--theorem", "remark1", "--size", "6")
    assert payload["passed"] is True


def test_verify_failure_exits_one(capsys, monkeypatch):
    failing = verify_mod.Verdict(
        "top-three", 5, failures=["fabricated failure"], counterexamples=["00"],
        details={},
    )
    monkeypatch.setitem(verify_mod.CHECKS, "main", lambda n, records: failing)
    code, out, err = run(capsys, "verify", "--theorem", "main", "--size", "5")
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert "fabricated failure" in err


def test_verify_refuses_an_unknown_theorem_before_any_census(capsys, monkeypatch):
    """The parser takes any ``--theorem``; ``run_checks`` refuses a name it
    does not know with one error line listing every name, and exit 2."""
    def no_census(*args, **kwargs):
        raise AssertionError("census built for an unknown theorem")

    monkeypatch.setattr(census_mod, "census_records", no_census)
    monkeypatch.setattr(verify_mod, "census_records", no_census)
    code, out, err = run(capsys, "verify", "--theorem", "nope", "--size", "5")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    for name in ("main", "corollary", "lemma4", "remark1", "all", "nope"):
        assert repr(name) in err


def test_verify_help_describes_every_theorem(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--theorem THEOREM" in text
    for name in [*verify_mod.CHECKS, "all"]:
        assert f" {name}: " in text, name


def test_verify_needs_a_size(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "main")
    assert code == 2 and "verify needs --size or --max-n" in err


def test_verify_all_runs_every_check_per_size(capsys):
    payload = run_json(capsys, "verify", "--theorem", "all", "--max-n", "8")
    assert payload["passed"] is True
    reports = payload["reports"]
    assert len(reports) == 16
    assert [(r["n"], r["check"]) for r in reports[:4]] == [
        (5, "top-three"), (5, "gap"), (5, "antichain-bound"), (5, "congruence-spectrum"),
    ]
    assert [r["n"] for r in reports] == [n for n in range(5, 9) for _ in range(4)]
    six = reports[4:8]
    for theorem, report in zip(("main", "corollary", "lemma4", "remark1"), six):
        assert run_json(capsys, "verify", "--theorem", theorem, "--size", "6") == report
    nine = run_json(capsys, "verify", "--theorem", "all", "--max-n", "9")
    assert nine["passed"] is True and len(nine["reports"]) == 20
    assert nine["reports"][:16] == reports


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "main", "--max-n", "4"],
    ["verify", "--theorem", "remark1", "--max-n", "4"],
    ["verify", "--theorem", "lemma4", "--max-n", "3"],
    ["verify", "--theorem", "all", "--max-n", "4"],
])
def test_verify_empty_range_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "n >= 5" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "main", "--size", "4"],
    ["verify", "--theorem", "remark1", "--size", "4"],
    ["verify", "--theorem", "all", "--size", "4"],
    ["census", "--size", "0"],
    ["census", "--size", "-1"],
    ["spectrum", "--size", "0"],
    ["spectrum", "--kind", "con", "--size", "0"],
    ["spectrum", "--size", "10"],
    ["spectrum", "--kind", "con", "--size", "10"],
])
def test_out_of_range_sizes_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "all", "--max-n", "10"],
    ["verify", "--theorem", "main", "--max-n", "10"],
    ["verify", "--theorem", "lemma4", "--size", "10"],
    ["verify", "--theorem", "remark1", "--max-n", "10"],
])
def test_verify_refuses_out_of_limit_sizes_before_any_census(capsys, monkeypatch, argv):
    def no_census(*args, **kwargs):
        raise AssertionError("census built for a request that is refused")

    monkeypatch.setattr(census_mod, "census_records", no_census)
    monkeypatch.setattr(verify_mod, "census_records", no_census)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "verification bounded at n <=" in err


@pytest.mark.parametrize("argv,text", [
    (["--help"], "list all subuniverses (n <= 17)"),
    (["census", "--help"], "lattice size, 1..11"),
    (["spectrum", "--help"], "lattice size, 1..11"),
    (["verify", "--help"], "single census size to check, 5..11"),
    (["verify", "--help"], "up to this, at most 11"),
])
def test_help_reads_the_size_limits(capsys, monkeypatch, argv, text):
    monkeypatch.setattr(cli_mod, "ENUM_LIMIT", 17)
    monkeypatch.setattr(cli_mod, "GEN_LIMIT", 11)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert text in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("n,digest", [
    (7, "49f954db50d4e9f10abc6f91caeb5668a77022a146360ac59faa504440b2819b"),
    (8, "9e3ba2bb500e65007cef119c569a83f111087d9e6bbb80cc577362b3d3ddfce4"),
    (9, "4c747cac454a3e0393fe4849f2da733e90b6bfd7bce9e72a477019f18bc401c9"),
])
def test_census_with_con_bytes_are_pinned(capsys, n, digest):
    code, out, _ = run(capsys, "census", "--size", str(n), "--with-con")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of stdout for the verdict and spectrum runs, measured before the
# verify layer was collapsed onto one census per size
@pytest.mark.parametrize("argv,digest", [
    ("verify --theorem all --max-n 9",
     "6ca668306df96f8afa05b4016aa65ed816d0c137d49d855ad8676732ca21589a"),
    ("spectrum --size 9", "c947643a20451a3680356fd6aeed6fb67e52f61b4ba37396bc652f16f11ea345"),
    ("spectrum --size 9 --kind con",
     "37d147732532dc9aad744d40f256137b387ba2a0889034b6b9dcd667dacad369"),
    ("spectrum --size 8 --format table",
     "2a0ccf7a885e19dcd5f571cf7d10cbcca85b1d0f39c1a6c0e74f6f02f0b2d704"),
    ("spectrum --size 8 --kind con --format table",
     "3abde7ae279eaaf382fd24a78757e6e54062e9c62490ae21fbcd9b09f71958b6"),
])
def test_verify_and_spectrum_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _python(*args):
    """Run a fresh interpreter that imports latcensus from this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_python_dash_m_runs_the_cli():
    proc = _python("-m", "latcensus", "count", "--expr", "C5")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"n": 5, "sub_count": 32, "normalized": "32*2^(5-5)"}


def test_importing_the_cli_loads_no_process_pool():
    """No process pool is loaded at all, and neither ``dataclasses`` nor the
    modules it pulls in are loaded beyond what a bare interpreter has."""
    code = (
        "import sys; bare = set(sys.modules); import latcensus.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules], "
        "[m for m in ('dataclasses', 'inspect', 'ast') if m in sys.modules and m not in bare])"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] []\n"


# After each step, in one process: the lazy modules whose code has not run.
# ``type`` reads no attribute, so checking does not run a module.
_LAZY_PROBE = """
import contextlib, io, json, sys, types
import latcensus.cli

def unexecuted():
    return [m for m in ("canon", "census", "verify")
            if type(sys.modules["latcensus." + m]) is not types.ModuleType]

steps = [["import"]] + [argv.split() for argv in sys.argv[1:]]
seen = [unexecuted()]
for argv in steps[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert latcensus.cli.main(argv) == 0, argv
    seen.append(unexecuted())
print(json.dumps([[argv[0], names] for argv, names in zip(steps, seen)]))
"""


def test_per_lattice_commands_run_no_census_code():
    """``canon``, ``census`` and ``verify`` run on first use: no command on
    one lattice runs them, ``census`` runs the first two, ``verify`` all."""
    per_lattice = ["count", "enumerate", "classify", "con-count", "info"]
    proc = _python(
        "-c", _LAZY_PROBE,
        *[f"{command} --expr N5+B4" for command in per_lattice],
        "census --size 5", "verify --theorem main --size 5",
    )
    assert proc.returncode == 0, proc.stderr
    lazy = ["canon", "census", "verify"]
    assert json.loads(proc.stdout) == [
        ["import", lazy], *[[command, lazy] for command in per_lattice],
        ["census", ["verify"]], ["verify", []],
    ]


def test_build_parser_is_shared_until_a_printed_limit_changes(monkeypatch):
    parser = cli_mod.build_parser()
    assert cli_mod.build_parser() is parser
    monkeypatch.setattr(cli_mod, "ENUM_LIMIT", cli_mod.ENUM_LIMIT + 1)
    enum_patched = cli_mod.build_parser()
    assert enum_patched is not parser and cli_mod.build_parser() is enum_patched
    monkeypatch.setattr(cli_mod, "GEN_LIMIT", cli_mod.GEN_LIMIT + 1)
    assert cli_mod.build_parser() is not enum_patched


@pytest.mark.parametrize("command,name,key", [
    ("count", "count_subuniverses", "sub_count"),
    ("con-count", "count_congruences", "con_count"),
])
def test_count_commands_call_the_counter_patched_after_the_parser(
    capsys, monkeypatch, command, name, key
):
    run_json(capsys, command, "--expr", "C3")  # the shared parser exists from here on
    seen = []

    def stub(lat):
        seen.append(lat.n)
        return 7

    monkeypatch.setattr(cli_mod, name, stub)
    assert run_json(capsys, command, "--expr", "C3")[key] == 7
    assert seen == [3]


def test_input_errors_exit_two(capsys, tmp_path):
    for argv in (
        ["count", "--expr", "Q5"],
        ["count", "--expr", "C2+"],
        ["count", "--expr", "C8xC8"],
        ["count", "--file", str(tmp_path / "missing.json")],
        ["census", "--size", "11"],
        ["count", "--expr", "C3000000"],
        ["count", "--expr", "C" + "7" * 5000],  # more digits than int() converts
        ["count", "--expr", "(" * 2000 + "C2" + ")" * 2000],  # too deep to recurse
        ["count", "--expr", "x".join(["C2"] * 3000)],  # oversize long before the end
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:") and len(err.splitlines()) == 1, argv
    bad = tmp_path / "bad.json"
    bad.write_text('{"covers": []}')
    code, _, err = run(capsys, "count", "--file", str(bad))
    assert code == 2 and "expected an object" in err


def test_long_flat_expressions_are_answered(capsys):
    # products and glued sums fold in loops, so length alone never recurses
    for expr, n in (("x".join(["C1"] * 3000), 1), ("+".join(["C2"] * 62), 63)):
        payload = run_json(capsys, "count", "--expr", expr)
        assert (payload["n"], payload["sub_count"]) == (n, 2**n)


@pytest.mark.parametrize("data", [
    b'{"n": "3", "covers": [[0, 1], [1, 2]]}',
    b'{"n": 3, "covers": "ab"}',
    b'{"n": 3, "covers": [[0, 1, 2]]}',
    b'{"n": 3, "covers": [[0.5, 1]]}',
    b'{"n": 3, "covers": [null]}',
    b'{"n": 3, "covers": [[0]]}',
    b'{"n": true, "covers": []}',
    b'{"n": 2, "covers": [[false, true]]}',
    b'{"n": 3, "covers": [[0, 1], [1, 2]]',
    b'{"n": 1' + b'0' * 5000 + b', "covers": []}',
    b'[' * 100000 + b']' * 100000,
    b'\xff{"n": 1, "covers": []}',
], ids=[
    "n-string", "covers-string", "triple", "float", "null", "single", "n-bool",
    "bool-pair", "truncated", "5001-digits", "deep-nesting", "not-utf8",
])
def test_malformed_lattice_file_exits_two(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "count", "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12,
)
_COVER_LISTS = st.lists(st.lists(st.integers(-1, 9), min_size=0, max_size=3), max_size=12)


@given(n=st.integers(-1, 12) | _JSON_VALUES, covers=_COVER_LISTS | _JSON_VALUES)
def test_any_json_lattice_file_exits_zero_or_two(tmp_path_factory, n, covers):
    path = tmp_path_factory.mktemp("fuzz") / "lattice.json"
    path.write_text(json.dumps({"n": n, "covers": covers}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["con-count", "--file", str(path)])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert code == 0 or err.getvalue().startswith("error:")


def test_exactly_one_input_source(capsys):
    with pytest.raises(SystemExit) as err:
        main(["count", "--expr", "C2", "--file", "x.json"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["count"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "main", "--size", "5", "--max-n", "6"],
    ["verify", "--theorem", "all", "--max-n", "6", "--size", "5"],
])
def test_verify_size_and_max_n_together_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with argument" in captured.err
