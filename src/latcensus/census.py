"""Isomorph-free generation of small lattices and the per-class census records.

Every lattice with n+1 elements arises from one with n elements by removing
the top, inserting one new maximal element whose down-set satisfies a
greatest-lower-bound condition, and re-adjoining the top.  Walking that
augmentation from the singleton lattice and rejecting duplicates by
canonical form yields exactly one representative per isomorphism class:
1, 1, 1, 2, 5, 15, 53, 222, 1078 classes for n = 1..9.

Most duplicates are dropped before any canonical form is taken, following
McKay's canonical construction path ("Isomorph-free exhaustive generation",
J. Algorithms 1998): a child is kept only when its new element is a coatom
of largest key (down-set size, number of lower covers), and only one
down-set per orbit of the parent's twin swaps is tried.  For n <= 9 that is
1502 canonical forms for 1378 classes, against 3557 without the two
rejections.  A child stays a cover list (``Child``) until its canonical form
is known: the augmentation appends exactly the new cover pairs, so no
closure, validation or operation table is built for it.  The census holds
canonical forms only: a class lattice is built from its form by the
validating ``from_covers`` where it is used, as a parent or for analysis,
and dropped.  Every duplicate child has the same relabeled cover list as
that lattice, so it is validated by isomorphism.

Each class is analyzed into a ``CensusRecord`` (subuniverse count, shape,
3-antichain, and on request the congruence count) and written as one JSONL
line; the verdicts over these records live in ``verify``.
"""

from __future__ import annotations

import os
from functools import lru_cache, partial
from typing import Iterator, NamedTuple, Optional

from .canon import canonical_form, canonical_lattice
from .congruence import count_congruences
from .core import GEN_LIMIT, Lattice, SizeTooSmall, bit_indices, check_size, cover_masks
from .structure import classify, find_antichain
from .subuniverse import count_subuniverses

CHUNK = 16  # classes per task handed to an analysis worker


class Child(NamedTuple):
    """A generated lattice before it is accepted: its size and its exact
    cover relation, sorted, in linear-extension indexing.  ``canonical_form``
    reads only these two fields."""

    n: int
    covers: tuple[tuple[int, int], ...]


def _augmentations(parent: Lattice) -> Iterator[Child]:
    """One-element extensions of a lattice, pruned to those that can be the
    canonical deletion of their class; some classes still come twice.

    The new element lands just below a re-added top: strip the parent's top,
    pick a down-set D of the remainder that contains the bottom and has a
    greatest element inside every principal ideal it meets, attach the new
    element above D, and close with a fresh top.  The covers of the child
    are the parent's covers inside the body, (d, new) for the maximal d of
    D, (y, top) for the body-maximal y outside D, and (new, top).

    Two rejections drop children before any canonical form is taken.  The
    new element is a coatom of the child, and deleting a coatom always
    leaves a lattice, so every class has a child made by inserting its
    coatom of largest key (down-set size, number of lower covers): a child
    in which some other coatom has a strictly larger key is dropped.  That
    test comes first, against the largest-key coatom outside D, and on the
    down-set sizes alone before D's maximal elements are listed; the
    greatest-lower-bound condition is tested on what is left.  Swapping two
    twins of the parent (same lower and same upper covers) is an
    automorphism, so D is kept only when it meets each twin group in a
    prefix of the group's index order.  Twins are keyed by their pair of
    ``core.cover_masks`` bitmasks, the pair ``canonical_form`` groups by.
    """
    m = parent.n
    if m == 1:
        yield Child(2, ((0, 1),))
        return
    body = m - 1  # indices 0..m-2 survive; new element m-1; new top m
    body_mask = (1 << body) - 1
    leq = parent.leq
    geq = parent.geq
    lower, upper = cover_masks(m, parent.covers)
    inner_covers = [(i, j) for i, j in parent.covers if j < body]
    coatoms = [  # the body-maximal y with their keys
        (y, (geq[y].bit_count(), lower[y].bit_count()))
        for y in range(body)
        if leq[y] & body_mask == 1 << y
    ]
    # largest key first: the first one outside D has the largest key there
    ranked = sorted(coatoms, key=lambda coatom: coatom[1], reverse=True)

    # down-sets of the body that contain the bottom, built in index order:
    # x may join once everything below it, and its previous twin, is in
    last_twin: dict[tuple[int, int], int] = {}
    down_sets = [1]
    for x in range(1, body):
        need = geq[x] ^ 1 << x
        twins = (lower[x], upper[x])
        if twins in last_twin:
            need |= 1 << last_twin[twins]
        last_twin[twins] = x
        down_sets += [d | 1 << x for d in down_sets if d & need == need]

    for d_mask in down_sets:
        size = d_mask.bit_count() + 1
        # (0, 0), below every key, when D holds every coatom
        rival = next((key for y, key in ranked if not d_mask >> y & 1), (0, 0))
        if rival[0] > size:
            continue  # a coatom outside D has a larger down-set
        maximal = [(d, body) for d in bit_indices(d_mask) if leq[d] & d_mask == 1 << d]
        if rival > (size, len(maximal)):
            continue  # another coatom of the child has a larger key
        for a in bit_indices(body_mask & ~d_mask):
            below = d_mask & geq[a]
            if below & ~geq[below.bit_length() - 1]:
                break  # D has no greatest element under a
        else:
            pairs = inner_covers + maximal
            pairs += [(y, m) for y, _ in coatoms if not d_mask >> y & 1]
            pairs.append((body, m))
            pairs.sort()  # canonical_form's height pass needs them ordered by i
            yield Child(m + 1, tuple(pairs))


@lru_cache(maxsize=None)
def _census_classes(n: int) -> tuple[bytes, ...]:
    """The canonical forms of all n-element lattice classes, sorted.  Each
    parent of size n - 1 is rebuilt from its form, augmented and dropped."""
    if n == 1:
        seen = {canonical_form(Child(1, ()))}
    else:
        seen = {
            canonical_form(child)
            for form in _census_classes(n - 1)
            for child in _augmentations(canonical_lattice(form))
        }
    return tuple(sorted(seen))


def _check_census_size(n: int) -> None:
    if n < 1:
        raise SizeTooSmall(f"lattice size must be >= 1, got {n}")
    check_size("census generation", n, GEN_LIMIT)


def enumerate_lattices(n: int) -> Iterator[Lattice]:
    """One canonically labeled representative per isomorphism class, in
    canonical-form order, each built from its form as it is yielded."""
    _check_census_size(n)
    for form in _census_classes(n):
        yield canonical_lattice(form)


class CensusRecord(NamedTuple):
    """One isomorphism class: canonical form, covers, counts, classification."""

    n: int
    canon: str
    covers: tuple[tuple[int, int], ...]
    sub_count: int
    classification: str
    has_antichain3: bool
    con_count: Optional[int] = None

    def to_json_line(self) -> str:
        """The record as one compact JSON object: the keys in this order,
        ``con_count`` only when counted.  Every field is an int, a bool, a
        hex string or a fixed shape tag, so nothing needs escaping."""
        covers = ",".join([f"[{i},{j}]" for i, j in self.covers])
        con = "" if self.con_count is None else f',"con_count":{self.con_count}'
        return (
            f'{{"n":{self.n},"canon":"{self.canon}","covers":[{covers}],'
            f'"sub_count":{self.sub_count}{con},"class":"{self.classification}",'
            f'"antichain3":{"true" if self.has_antichain3 else "false"}}}'
        )


def _analyze(form: bytes, with_con: bool = False) -> CensusRecord:
    lat = canonical_lattice(form)
    return CensusRecord(
        n=lat.n,
        canon=form.hex(),
        covers=lat.covers,
        sub_count=count_subuniverses(lat),
        classification=classify(lat).tag,
        has_antichain3=find_antichain(lat, 3) is not None,
        con_count=count_congruences(lat) if with_con else None,
    )


def census_records(n: int, jobs: int = 1, with_con: bool = False) -> list[CensusRecord]:
    """Analyzed census for size n, sorted by canonical form.

    Each class lattice is built from its form, analyzed (``with_con`` adds
    ``con_count``) and dropped.  ``jobs`` > 1 hands the forms to worker
    processes, at most one per CPU and per chunk of ``CHUNK`` classes, and
    runs in process when that leaves one; the output is the same for any
    ``jobs``.
    """
    _check_census_size(n)
    forms = _census_classes(n)
    analyze = partial(_analyze, with_con=with_con)
    workers = min(jobs, os.cpu_count() or 1, -(-len(forms) // CHUNK))
    if workers <= 1:
        return list(map(analyze, forms))
    # imported only where a pool starts, so no other run loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(analyze, forms, chunksize=CHUNK))


def census_jsonl(records: list[CensusRecord]) -> str:
    return "".join(rec.to_json_line() + "\n" for rec in records)
