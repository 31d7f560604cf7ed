"""Command-line front end.

Subcommands: count, enumerate, classify, info, census, spectrum, verify,
con-count.  Lattice inputs come from an expression string (--expr) or a JSON
file (--file) holding {"n": ..., "covers": [[i, j], ...]}.  Exit status is 0
on success, 1 when a verification check fails (the counterexample is in the
report), 2 on input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import Callable, Iterator, Optional, TextIO

from . import census as census_mod
from . import structure
from . import verify as verify_mod
from .congruence import count_congruences
from .core import (
    ENUM_LIMIT,
    GEN_LIMIT,
    Lattice,
    LatticeError,
    build_expression,
    from_covers,
)
from .subuniverse import count_subuniverses, enumerate_subuniverses

ENUM_CHUNK = 8192  # subuniverses rendered per write by ``enumerate``


def normalized_count(count: int, n: int) -> Optional[str]:
    """Render a count as 'q*2^(n-5)' with q an exact decimal, for n >= 5."""
    if n < 5:
        return None
    k = n - 5
    digits = str(count * 5**k)
    if k:
        digits = digits.rjust(k + 1, "0")
        whole, frac = digits[:-k], digits[-k:].rstrip("0")
        q = whole + ("." + frac if frac else "")
    else:
        q = digits
    return f"{q}*2^({n}-5)"


def load_lattice_file(path: str) -> Lattice:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise LatticeError(f"{path}: not readable as JSON: {exc}") from None
    if not isinstance(data, dict) or "n" not in data or "covers" not in data:
        raise LatticeError(f"{path}: expected an object with 'n' and 'covers'")
    n, covers = data["n"], data["covers"]
    if type(n) is not int:  # also refuses true and false
        raise LatticeError(f"{path}: 'n' must be an integer, got {type(n).__name__}")
    if not isinstance(covers, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(type(x) is int for x in pair)
        for pair in covers
    ):
        raise LatticeError(f"{path}: 'covers' must be a list of [i, j] integer pairs")
    return from_covers(n, [tuple(pair) for pair in covers])


def lattice_json(lat: Lattice) -> dict:
    return {"n": lat.n, "covers": [list(c) for c in lat.covers]}


def _input_lattice(args) -> Lattice:
    if args.expr is not None:
        return build_expression(args.expr)
    return load_lattice_file(args.file)


@contextlib.contextmanager
def _output(out: Optional[str]) -> Iterator[TextIO]:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, out: Optional[str]) -> None:
    with _output(out) as fh:
        fh.write(text)


def _emit_payload(payload: dict, args) -> None:
    if getattr(args, "format", "json") == "table":
        lines = []
        for key, value in payload.items():
            lines.append(f"{key}: {json.dumps(value)}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(payload, indent=2) + "\n", args.out)


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="lattice expression, e.g. '(C2xC3)+C2'")
    group.add_argument("--file", help="path to a lattice JSON file")


def _add_output_flags(parser: argparse.ArgumentParser, formats=("json", "table")) -> None:
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--format", choices=formats, default=formats[0])


def _emit_count(args, key: str, count: Callable[[Lattice], int]) -> int:
    """``count`` and ``con-count``: the payload holds count(lattice) under key."""
    lat = _input_lattice(args)
    value = count(lat)
    payload = {"n": lat.n, key: value}
    norm = normalized_count(value, lat.n)
    if norm:
        payload["normalized"] = norm
    _emit_payload(payload, args)
    return 0


# The counters are looked up on this module when a command runs, not bound
# when the shared parser is built, so a name patched here later still runs.
def cmd_count(args) -> int:
    return _emit_count(args, "sub_count", count_subuniverses)


def cmd_con_count(args) -> int:
    return _emit_count(args, "con_count", count_congruences)


@functools.lru_cache(maxsize=None)
def _member_tables(sep: str) -> tuple[list[str], list[str], int]:
    """(low, high, half): low[m & (1 << half) - 1] + high[m >> half] lists
    mask m's members in increasing order, each written as sep + decimal.

    low covers the lowest half = (ENUM_LIMIT + 1) // 2 bits and high the
    rest.  Each is built by doubling, adding member i's piece to a copy of
    every entry, once per process and separator.
    """
    half = (ENUM_LIMIT + 1) // 2
    tables = []
    for members in (range(half), range(half, ENUM_LIMIT)):
        table = [""]
        for i in members:
            piece = f"{sep}{i}"
            table += [s + piece for s in table]
        tables.append(table)
    return tables[0], tables[1], half


def _enumerate_layout(
    fmt: str, n: int, count: int
) -> tuple[str, Callable[[list[int]], list[str]], str, str]:
    """(head, render, sep, tail): ``enumerate`` writes head, then the texts
    render(chunk) makes for each chunk of masks, all joined by sep, then
    tail.  These are the bytes of json.dumps of the member lists: one list
    per line for jsonl, one indent=2 payload for json."""
    low, high, half = _member_tables({"json": ",\n      ", "jsonl": ", ", "table": " "}[fmt])
    cut = (1 << half) - 1
    if fmt == "json":
        head = f'{{\n  "n": {n},\n  "count": {count},\n  "subuniverses": [\n'
        return head, lambda ms: [
            f"    [{(low[m & cut] + high[m >> half])[1:]}\n    ]" if m else "    []" for m in ms
        ], ",\n", "\n  ]\n}\n"
    if fmt == "jsonl":
        return "", lambda ms: [
            f"[{(low[m & cut] + high[m >> half])[2:]}]" for m in ms
        ], "\n", "\n"
    return "", lambda ms: [
        f"size {m.bit_count()}: {(low[m & cut] + high[m >> half])[1:] or '-'}" for m in ms
    ], "\n", "\n"


def cmd_enumerate(args) -> int:
    lat = _input_lattice(args)
    # drained before --out is opened, so that a refused size leaves it alone
    masks = list(enumerate_subuniverses(lat))
    head, render, sep, tail = _enumerate_layout(args.format, lat.n, len(masks))
    with _output(args.out) as fh:
        prefix = head
        for start in range(0, len(masks), ENUM_CHUNK):
            fh.write(prefix + sep.join(render(masks[start : start + ENUM_CHUNK])))
            prefix = sep
        fh.write(tail)
    return 0


def cmd_classify(args) -> int:
    lat = _input_lattice(args)
    cls = structure.classify(lat)
    payload = {"n": lat.n, "class": cls.tag, "predicted_count": cls.predicted_count}
    if cls.tag in (structure.GLUED_B4, structure.GLUED_N5):
        payload["chain_prefix"] = cls.prefix
        payload["chain_suffix"] = cls.suffix
        payload["core_size"] = lat.n - cls.prefix - cls.suffix
    if cls.predicted_count is not None:
        norm = normalized_count(cls.predicted_count, lat.n)
        if norm:
            payload["normalized"] = norm
    _emit_payload(payload, args)
    return 0


def cmd_info(args) -> int:
    lat = _input_lattice(args)
    if args.emit_json:
        _emit(json.dumps(lattice_json(lat)) + "\n", args.out)
        return 0
    antichain = structure.find_antichain(lat, 3)
    payload = {
        "n": lat.n,
        "covers": [list(c) for c in lat.covers],
        "bottom": 0,
        "top": lat.n - 1,
        "is_chain": structure.is_chain(lat),
        "class": structure.classify(lat).tag,
        "doubly_irreducible": list(structure.doubly_irreducibles(lat)),
        "isolated_elements": list(structure.isolated_elements(lat)),
        "isolated_edges": [list(e) for e in structure.isolated_edges(lat)],
        "antichain3": list(antichain) if antichain else None,
    }
    _emit_payload(payload, args)
    return 0


def cmd_census(args) -> int:
    records = census_mod.census_records(args.size, jobs=args.jobs, with_con=args.with_con)
    if args.format == "table":
        rows = [
            f"{rec.canon}  sub={rec.sub_count}"
            + (f" con={rec.con_count}" if rec.con_count is not None else "")
            + f"  {rec.classification}"
            + ("  3-antichain" if rec.has_antichain3 else "")
            for rec in records
        ]
        _emit("\n".join(rows) + "\n", args.out)
    else:
        _emit(census_mod.census_jsonl(records), args.out)
    return 0


def cmd_spectrum(args) -> int:
    report = verify_mod.spectrum(args.size, args.kind)
    if args.format == "table":
        rows = [f"{value}: {len(ws)} classes" for value, ws in report.witnesses]
        _emit("\n".join(rows) + "\n", args.out)
    else:
        _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    if args.size is not None:
        sizes = [args.size]
    elif args.max_n is not None:
        sizes = list(range(5, args.max_n + 1))
    else:
        raise LatticeError("verify needs --size or --max-n")
    reports = verify_mod.run_checks(args.theorem, sizes)
    if len(reports) == 1:
        payload = reports[0].to_json_dict()
    else:
        payload = {
            "passed": all(r.passed for r in reports),
            "reports": [r.to_json_dict() for r in reports],
        }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if all(r.passed for r in reports):
        return 0
    for report in reports:
        for line in report.failures:
            print(f"FAIL n={report.n}: {line}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, shared by every ``main`` call and rebuilt
    only when a limit its help text prints changes.  Callers must not
    mutate it."""
    return _parser(ENUM_LIMIT, GEN_LIMIT)


@functools.lru_cache(maxsize=1)
def _parser(enum_limit: int, gen_limit: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcensus",
        description="Count lattice subuniverses and verify extremal-count "
        "classifications over an exhaustive census of small lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the per-lattice commands: (name, help, output formats, handler)
    for name, help_text, formats, fn in (
        ("count", "number of subuniverses of one lattice", ("json", "table"), cmd_count),
        ("con-count", "number of congruences of one lattice", ("json", "table"), cmd_con_count),
        ("enumerate", f"list all subuniverses (n <= {enum_limit})", ("json", "jsonl", "table"),
         cmd_enumerate),
        ("classify", "match against the extremal-count shapes", ("json", "table"), cmd_classify),
        ("info", "structural facts about one lattice", ("json", "table"), cmd_info),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_input_flags(p)
        _add_output_flags(p, formats)
        p.set_defaults(fn=fn)
    p.add_argument(  # info's, the last in the table
        "--emit-json",
        action="store_true",
        help="print the lattice in the JSON file format and nothing else",
    )

    p = sub.add_parser("census", help="all isomorphism classes of a given size")
    p.add_argument("--size", type=int, required=True, help=f"lattice size, 1..{gen_limit}")
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="parallel analysis workers, at least 1 and at most one per CPU",
    )
    p.add_argument("--with-con", action="store_true", help="include congruence counts")
    _add_output_flags(p, formats=("jsonl", "table"))
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("spectrum", help="distinct count values with witnesses")
    p.add_argument("--size", type=int, required=True, help=f"lattice size, 1..{gen_limit}")
    p.add_argument("--kind", choices=("sub", "con"), default="sub")
    _add_output_flags(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("verify", help="run an exhaustive verification check")
    p.add_argument(
        "--theorem",
        required=True,
        help="main: top-three counts and witness shapes; lemma4: the "
        "3-antichain bound; corollary: gaps between the top counts; "
        "remark1: largest congruence counts and shapes; all: every check "
        "on one census per size",
    )
    sizes = p.add_mutually_exclusive_group()  # neither: cmd_verify refuses
    sizes.add_argument("--size", type=int, help=f"single census size to check, 5..{gen_limit}")
    sizes.add_argument(
        "--max-n", type=int, help=f"check every size from 5 up to this, at most {gen_limit}"
    )
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LatticeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
