"""Build latbench/refs.json: the reference outputs the runner checks against.

    python3 latbench/record_refs.py

The census reference is the SHA-256 of ``census --size 9 --with-con``.  The
count_block pool is a fixed list of indecomposable lattices (direct products of
chains, diamonds M_k and union-closed families with no interior cut
element).  Every run relabels all of them by its seed, so the references
below hold for every seed.  They are recorded from the program in the
checkout (sub_count, the set of subuniverses, con_count and the classify
outcome) and cross-checked against the program's naive oracles wherever
those run within their limits, and against this benchmark's own subset
scan for n <= NAIVE_OWN.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
REFS_FILE = Path(__file__).resolve().parent / "refs.json"
CENSUS_ARGV = ["census", "--size", "9", "--with-con", "--jobs", "1"]
POOL_SEED = 20181227
NAIVE_SUB = 20  # program's count_subuniverses_naive, 2^n subsets (its own limit)
NAIVE_OWN = 14  # inputs.closed_masks, 2^n subsets

PRODUCTS = [(2, 3), (2, 4), (3, 3), (2, 5), (2, 2, 2), (2, 2, 3), (3, 4), (2, 6),
            (2, 7), (3, 5), (2, 2, 4), (4, 4), (2, 8), (3, 6), (2, 2, 5), (4, 5)]
# classify on M_k (n = k + 2 <= 12) runs canonical_form over k! orderings:
# M_9 takes about 4.3 s and stays in as the slowest op.  M_10 is left out
# because its one op (about 45 s) outlasts a whole 40-second run.  Above 12
# elements classify is refused instead.
DIAMONDS = [3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14]
UNION_CLOSED = 14


def candidates() -> list[tuple[str, int, list]]:
    out = [("C" + "xC".join(map(str, p)), *inputs.chain_product(*p)) for p in PRODUCTS]
    out += [(f"M{k}", *inputs.diamond(k)) for k in DIAMONDS]
    rng = random.Random(POOL_SEED)
    seen = set()
    while len(out) < len(PRODUCTS) + len(DIAMONDS) + UNION_CLOSED:
        n, covers = inputs.union_closed(rng, rng.choice((4, 5, 6)), rng.randint(3, 7))
        key = (n, tuple(covers))
        if not 8 <= n <= 20 or key in seen or inputs.cut_elements(n, covers) != [0, n - 1]:
            continue
        seen.add(key)
        out.append((f"U{len(seen)}", n, covers))
    return out


def census_ref(cli) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if cli.main(CENSUS_ARGV) != 0:
            raise SystemExit("census run failed")
    text = out.getvalue()
    return {"argv": CENSUS_ARGV, "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "lines": text.count("\n")}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import latcensus
    from latcensus import cli

    census = census_ref(cli)

    pool = []
    for name, n, covers in candidates():
        if inputs.cut_elements(n, covers) != [0, n - 1]:
            raise SystemExit(f"{name}: not a single glued-sum block")
        lat = latcensus.from_covers(n, covers)
        subs = [s.mask for s in latcensus.enumerate_subuniverses(lat)]
        ref = {
            "sub_count": latcensus.count_subuniverses(lat),
            "enum_digest": inputs.masks_digest(subs),
            "con_count": latcensus.count_congruences(lat),
            # one indecomposable block that is neither B4 nor N5
            "class": "Other",
        }
        checked = []
        if ref["sub_count"] != len(subs):
            raise SystemExit(f"{name}: count {ref['sub_count']} != {len(subs)} listed")
        if n <= NAIVE_SUB:
            if latcensus.count_subuniverses_naive(lat) != ref["sub_count"]:
                raise SystemExit(f"{name}: count_subuniverses_naive disagrees")
            checked.append("count_subuniverses_naive")
        if n <= NAIVE_OWN:
            if inputs.masks_digest(inputs.closed_masks(n, covers)) != ref["enum_digest"]:
                raise SystemExit(f"{name}: the subset scan disagrees")
            checked.append("latbench.inputs.closed_masks")
        if n <= latcensus.congruence.NAIVE_LIMIT:
            if latcensus.count_congruences_naive(lat) != ref["con_count"]:
                raise SystemExit(f"{name}: count_congruences_naive disagrees")
            checked.append("count_congruences_naive")
        try:
            tag = latcensus.classify(lat).tag
        except latcensus.SizeLimit:
            tag = None
        if tag not in (None, "Other"):
            raise SystemExit(f"{name}: classify says {tag}")
        ref["seed_classify"] = "refused" if tag is None else tag
        ref["oracles"] = checked
        pool.append({"name": name, "n": n, "covers": covers, "ref": ref})
        print(f"{name:8s} n={n:2d} sub={ref['sub_count']:7d} con={ref['con_count']:5d} "
              f"classify={ref['seed_classify']} checked={','.join(checked) or '-'}")
    entries = ",\n  ".join(json.dumps(e) for e in pool)
    REFS_FILE.write_text(
        f'{{"census": {json.dumps(census)},\n "pool_seed": {POOL_SEED},\n'
        f' "pool": [\n  {entries}\n ]}}\n'
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
