"""Seeded inputs and independent reference values for the benchmark.

Nothing here imports latcensus: the small lattice helpers below rebuild the
order, joins and meets from cover pairs on their own, so the references they
produce do not share code with the program under test.

A lattice is handled as (n, covers) with indices in a linear extension
(0 is the bottom, n - 1 the top), the same convention the program's
``--file`` format uses.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

# Atoms of the glued sums and their cover pairs.  Chains are glued as runs
# of 2-element edges.
GLUED_BLOCKS = {
    "N5": (5, [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)]),
    "M3": (5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
    "B4": (4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    "(C2xC3)": (6, [(0, 1), (1, 2), (0, 3), (1, 4), (2, 5), (3, 4), (4, 5)]),
}
EDGE = (2, [(0, 1)])

# count_glued mix per pass: every 4-block op uses all four atoms once and
# the separators (1, 1, 2); every 3-block op omits one atom and uses two of
# the separator lengths, each of the 12 combinations equally often.  Fixing
# these multisets keeps the scan cost of a pass within a few percent for
# every seed, while the seed picks the order of the blocks, the separators
# and the outer chains.  100 ops leave ten above the 90th percentile.
GLUED_FOUR_OPS = 16
GLUED_THREE_OPS = 84


def up_sets(n: int, covers) -> list[int]:
    """Up-set bitmask of each element, from the cover pairs."""
    up = [1 << i for i in range(n)]
    for i in range(n - 1, -1, -1):
        for a, b in covers:
            if a == i:
                up[i] |= up[b]
    return up


def down_sets(up: list[int]) -> list[int]:
    n = len(up)
    return [sum(1 << j for j in range(n) if up[j] >> i & 1) for i in range(n)]


def covers_of(up: list[int]) -> list[tuple[int, int]]:
    """Transitive reduction of the order given by up-sets."""
    down = down_sets(up)
    return sorted(
        (a, b)
        for a in range(len(up))
        for b in range(len(up))
        if a != b and up[a] >> b & 1 and up[a] & down[b] == (1 << a) | (1 << b)
    )


def join_meet(n: int, covers):
    """Join and meet tables; raises ValueError when the order is no lattice."""
    up = up_sets(n, covers)
    down = down_sets(up)
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            common = up[a] & up[b]
            j = (common & -common).bit_length() - 1
            common_down = down[a] & down[b]
            m = common_down.bit_length() - 1
            if j < 0 or m < 0 or common & ~up[j] or common_down & ~down[m]:
                raise ValueError(f"elements {a}, {b} have no join or meet")
            join[a][b], meet[a][b] = j, m
    return join, meet


def cut_elements(n: int, covers) -> list[int]:
    """Elements comparable to every element (the glued-sum cut points)."""
    up = up_sets(n, covers)
    down = down_sets(up)
    full = (1 << n) - 1
    return [x for x in range(n) if up[x] | down[x] == full]


def closed_masks(n: int, covers) -> list[int]:
    """Every join/meet-closed subset, the empty one included, by a plain
    scan of all 2^n subsets.  Meant for small n only."""
    join, meet = join_meet(n, covers)
    out = []
    for mask in range(1 << n):
        elems = [i for i in range(n) if mask >> i & 1]
        if all(
            mask >> join[a][b] & 1 and mask >> meet[a][b] & 1
            for a, b in combinations(elems, 2)
        ):
            out.append(mask)
    return out


def end_table(n: int, covers) -> list[list[int]]:
    """table[x][y]: closed subsets with the bottom in (x = 1) or out (x = 0)
    and the top in (y = 1) or out (y = 0)."""
    table = [[0, 0], [0, 0]]
    for mask in closed_masks(n, covers):
        table[mask & 1][mask >> (n - 1) & 1] += 1
    return table


def glued_count(parts: list[str]) -> int:
    """Subuniverse count of the glued sum of ``parts`` (atom names or
    ``C<k>``), by the transfer matrix over the glued blocks.

    In a glued sum every element of a lower block lies below every element
    of a higher one, so a subset is closed exactly when its trace on each
    block is closed; the blocks only share their cut elements.
    """
    tables = {name: end_table(*blk) for name, blk in GLUED_BLOCKS.items()}
    edge = end_table(*EDGE)
    vec = [1, 1]  # the lattice bottom may be in or out
    for part in parts:
        if part.startswith("C"):
            steps = [edge] * (int(part[1:]) - 1)
        else:
            steps = [tables[part]]
        for t in steps:
            vec = [vec[0] * t[0][y] + vec[1] * t[1][y] for y in (0, 1)]
    return vec[0] + vec[1]


def glued_size(parts: list[str]) -> int:
    sizes = [int(p[1:]) if p.startswith("C") else GLUED_BLOCKS[p][0] for p in parts]
    return sum(sizes) - (len(sizes) - 1)


def glued_lattice(parts: list[str]) -> tuple[int, list[tuple[int, int]]]:
    """The glued sum as (n, covers), built here without the program."""
    covers: list[tuple[int, int]] = []
    base = 0
    for part in parts:
        if part.startswith("C"):
            k, pairs = int(part[1:]), [(i, i + 1) for i in range(int(part[1:]) - 1)]
        else:
            k, pairs = GLUED_BLOCKS[part]
        covers += [(a + base, b + base) for a, b in pairs]
        base += k - 1
    return base + 1, covers


def glued_inputs(seed: int) -> list[dict]:
    """One count_glued pass: 100 ``count --expr`` ops with their expected
    subuniverse counts."""
    rng = random.Random(f"count_glued:{seed}")
    atoms = list(GLUED_BLOCKS)
    specs = []
    for _ in range(GLUED_FOUR_OPS):
        specs.append((atoms, (1, 1, 2)))
    pairs = [(1, 2), (1, 3), (2, 3)]
    for k in range(GLUED_THREE_OPS):
        omitted = atoms[k % len(atoms)]
        specs.append(([a for a in atoms if a != omitted], pairs[k % len(pairs)]))
    rng.shuffle(specs)
    ops = []
    for blocks, seps in specs:
        blocks = rng.sample(blocks, len(blocks))
        seps = rng.sample(seps, len(seps))
        parts = [f"C{rng.randint(1, 4)}"]
        for i, block in enumerate(blocks):
            if i:
                parts.append(f"C{seps[i - 1]}")
            parts.append(block)
        parts.append(f"C{rng.randint(1, 4)}")
        parts = [p for p in parts if p != "C1"]  # C1 is the unit of '+'
        ops.append(
            {
                "argv": ["count", "--expr", "+".join(parts)],
                "check": "count",
                "expect": {"n": glued_size(parts), "sub_count": glued_count(parts)},
                "parts": parts,
            }
        )
    return ops


def chain_product(*lengths: int) -> tuple[int, list[tuple[int, int]]]:
    """Direct product of chains, indexed lexicographically."""
    elems = [()]
    for k in lengths:
        elems = [e + (i,) for e in elems for i in range(k)]
    index = {e: i for i, e in enumerate(elems)}
    covers = []
    for e in elems:
        for d in range(len(e)):
            if e[d] + 1 < lengths[d]:
                f = e[:d] + (e[d] + 1,) + e[d + 1 :]
                covers.append((index[e], index[f]))
    return len(elems), sorted(covers)


def diamond(k: int) -> tuple[int, list[tuple[int, int]]]:
    """M_k: a bottom, k pairwise incomparable atoms, and a top."""
    return k + 2, [(0, a) for a in range(1, k + 1)] + [(a, k + 1) for a in range(1, k + 1)]


def union_closed(rng: random.Random, ground: int, gens: int):
    """Lattice of the union-closure of ``gens`` random subsets (plus the
    empty set), ordered by inclusion."""
    family = {0}
    for _ in range(gens):
        s = rng.randrange(1, 1 << ground)
        family |= {s | f for f in family}
    members = sorted(family, key=lambda s: (bin(s).count("1"), s))
    up = [
        sum(1 << j for j, t in enumerate(members) if s & ~t == 0) for s in members
    ]
    return len(members), covers_of(up)


def relabel(n: int, covers, rng: random.Random):
    """Random linear-extension relabeling.  Returns the new cover pairs and
    ``perm`` with perm[new index] = old index."""
    below = {x: set() for x in range(n)}
    for a, b in covers:
        below[b].add(a)
    placed: set[int] = set()
    perm = []
    while len(perm) < n:
        ready = [x for x in range(n) if x not in placed and below[x] <= placed]
        x = rng.choice(ready)
        perm.append(x)
        placed.add(x)
    new = {old: i for i, old in enumerate(perm)}
    return sorted((new[a], new[b]) for a, b in covers), perm


def masks_digest(masks) -> str:
    """Order-free digest of a set of subuniverses given as bitmasks."""
    text = "\n".join(str(m) for m in sorted(masks))
    return hashlib.sha256(text.encode()).hexdigest()


def block_inputs(seed: int, pool: list[dict], workdir) -> list[dict]:
    """One count_block pass: every pool block, relabeled by the seed and
    written as a lattice file, then count, enumerate, con-count and
    classify on it."""
    rng = random.Random(f"count_block:{seed}")
    order = list(range(len(pool)))
    rng.shuffle(order)
    ops = []
    for k, idx in enumerate(order):
        entry = pool[idx]
        covers, perm = relabel(entry["n"], entry["covers"], rng)
        path = workdir / f"block{k:03d}.json"
        path.write_text(json.dumps({"n": entry["n"], "covers": covers}))
        where = ["--file", str(path)]
        ref = entry["ref"]
        ops += [
            {"argv": ["count", *where], "check": "count",
             "expect": {"n": entry["n"], "sub_count": ref["sub_count"]}},
            {"argv": ["enumerate", *where, "--format", "jsonl"], "check": "enumerate",
             "perm": perm, "expect": {"count": ref["sub_count"], "digest": ref["enum_digest"]}},
            {"argv": ["con-count", *where], "check": "con-count",
             "expect": {"n": entry["n"], "con_count": ref["con_count"]}},
            {"argv": ["classify", *where], "check": "classify",
             "expect": {"n": entry["n"], "class": ref["class"], "predicted_count": None},
             "refused_at_seed": ref["seed_classify"] == "refused"},
        ]
    return ops


def inputs_digest(ops: list[dict], workdir) -> str:
    """Digest of what the program sees: argv, with file arguments replaced
    by the file contents."""
    h = hashlib.sha256()
    for op in ops:
        for arg in op["argv"]:
            if arg.startswith(str(workdir)):
                with open(arg, "rb") as fh:
                    h.update(fh.read())
            else:
                h.update(arg.encode())
            h.update(b"\0")
    return h.hexdigest()
