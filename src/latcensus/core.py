"""Finite bounded lattices with bitmask order rows and precomputed operation tables.

Elements are the indices 0..n-1 in a fixed linear extension: whenever i is
below j in the order, i < j as integers.  Index 0 is therefore the bottom and
index n-1 the top.  The order relation is stored as one bitmask row per
element (bit j of ``leq[i]`` set iff i <= j), so order queries, upper-bound
intersections and subset tests are single integer operations.  Named
lattices and expression strings are built here too: ``build_expression``
parses a string straight into its lattice, with no tree in between.

Every size limit of the package is defined here, in one table, and every
refusal goes through ``check_size``.  The element count is capped at 63 so
that subuniverse counts (at most 2^n) stay inside an unsigned 64-bit range.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Union

# Size limits: the largest n each operation accepts.
MAX_ELEMENTS = 63  # any lattice: 2^n subuniverses fit an unsigned 64-bit range
GEN_LIMIT = 9  # census and every verdict over it: census --size 10 --with-con takes 0.97 s
CANON_LIMIT = 12  # canonical form: each twin-group arrangement per (height, covers) class
ENUM_LIMIT = 20  # enumeration, naive scan: up to 2^n subsets each
COUNT_LIMIT = 20  # congruence count: down-sets of up to n - 1 join-irreducibles
NAIVE_LIMIT = 8  # naive congruence oracle: Bell(8) = 4140 partitions
# 2^k-bit truth tables up to k = TABLE_LIMIT, k the elements of a subuniverse
# count or the join-irreducibles of a congruence count; above it the frontier
# pass and the down-set memo.  Each k doubles the work: subuniverses of M_10
# (n = 12) 2.4x faster, M_12 (n = 14) 0.9x; congruences of M_12 1.3x, M_14 0.8x
TABLE_LIMIT = 12


class LatticeError(Exception):
    """Base class for all construction and query errors."""


class NotALattice(LatticeError):
    """Some pair of elements lacks a unique least upper or greatest lower bound."""


class BadIndexOrder(LatticeError):
    """Element indices do not form a linear extension (need i < j for i below j)."""


class SizeLimit(LatticeError):
    """Input exceeds a documented size bound."""


def check_size(what: str, n: int, limit: int) -> None:
    """Refuse a size above ``limit`` with ``SizeLimit``; ``what`` names the
    operation in the message."""
    if n > limit:
        raise SizeLimit(f"{what} bounded at n <= {limit}, got {n}")


class SizeTooSmall(LatticeError, ValueError):
    """Size below the smallest one an operation is stated for."""


class UnknownName(LatticeError):
    """Name not present in the registry of named lattices."""


class IndexOutOfRange(LatticeError):
    """Element index outside 0..n-1."""


class ExpressionError(LatticeError):
    """Malformed lattice expression string."""


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def truth_tables(n: int) -> tuple[int, ...]:
    """``T[a]`` for a in 0..n-1: the 2^n-bit int whose bit s is set iff
    subset s (a mask over n variables) contains a.

    Bit s of T[a] is bit a of s, so T[a] is 2^a zeros then 2^a ones,
    repeated 2^(n-a-1) times: one block times the repunit of its width.
    """
    all_subsets = (1 << (1 << n)) - 1
    tables = []
    for a in range(n):
        width = 1 << a
        tables.append(all_subsets // ((1 << 2 * width) - 1) * (((1 << width) - 1) << width))
    return tuple(tables)


def cover_masks(n: int, covers: Iterable[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Per-element cover bitmasks ``(lower, upper)``: bit i of ``lower[x]``
    is set iff (i, x) is a cover pair, bit j of ``upper[x]`` iff (x, j) is.
    Reads any exact cover list, such as ``lat.covers``."""
    lower = [0] * n
    upper = [0] * n
    for i, j in covers:
        lower[j] |= 1 << i
        upper[i] |= 1 << j
    return lower, upper


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


class Lattice(NamedTuple):
    """Immutable finite lattice on indices 0..n-1 in linear-extension order.

    ``leq[i]`` is the bitmask of the up-set of i and ``geq[i]`` that of its
    down-set (the transpose); ``join_table`` and ``meet_table`` are n rows of
    n precomputed indices; ``covers`` is the transitive reduction as a sorted
    tuple of (lower, upper) pairs.  An instance holds exactly these six
    fields: a ``NamedTuple`` has no ``__dict__``, so it caches nothing.
    Per-element covers come from ``cover_masks(lat.n, lat.covers)``.
    """

    n: int
    leq: tuple[int, ...]
    geq: tuple[int, ...]
    join_table: tuple[bytes, ...]
    meet_table: tuple[bytes, ...]
    covers: tuple[tuple[int, int], ...]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def _check(self, a: int) -> None:
        if not 0 <= a < self.n:
            raise IndexOutOfRange(f"element index {a} outside 0..{self.n - 1}")

    def le(self, a: int, b: int) -> bool:
        """True iff a <= b in the lattice order."""
        self._check(a)
        self._check(b)
        return bool(self.leq[a] >> b & 1)

    def join(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self.join_table[a][b]

    def meet(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self.meet_table[a][b]

    def __repr__(self) -> str:
        return f"Lattice(n={self.n}, covers={list(self.covers)})"


def _finish(n: int, up: list[int]) -> Lattice:
    """Build the validated Lattice from closed up-set rows.

    Raises NotALattice when some pair has no common upper bound, no least
    one, or no common lower bound (this also covers the missing-bottom/top
    cases: a shared bound failure always shows up on some pair).  A pair
    with no greatest lower bound is never the first failure, so it has no
    check of its own (see the comment at the meet).  Only the pairs a < b are
    visited, in row order, and each fills both halves of the tables.  A pair
    and its mirror have the same bounds, and a comparable pair a < b has
    meet a and join b, so the first failure, and its message, is the one a
    visit of the whole square in row order meets first.  The covers are the
    comparable pairs with nothing strictly between, found in sorted order.
    """
    down = [0] * n
    for i in range(n):
        row = up[i]
        bit = 1 << i
        while row:
            low = row & -row
            down[low.bit_length() - 1] |= bit
            row ^= low

    join_rows = [bytearray(n) for _ in range(n)]
    meet_rows = [bytearray(n) for _ in range(n)]
    covers = []
    for a in range(n):
        jrow = join_rows[a]
        mrow = meet_rows[a]
        jrow[a] = mrow[a] = a
        up_a = up[a]
        down_a = down[a]
        for b in range(a + 1, n):
            if up_a >> b & 1:  # a below b
                jrow[b] = join_rows[b][a] = b
                mrow[b] = meet_rows[b][a] = a
                if up_a & down[b] == (1 << a) | (1 << b):
                    covers.append((a, b))
                continue
            common = up_a & up[b]
            if not common:
                raise NotALattice(f"elements {a} and {b} have no common upper bound")
            m = (common & -common).bit_length() - 1
            if common & ~up[m]:
                raise NotALattice(f"elements {a} and {b} have no least upper bound")
            jrow[b] = join_rows[b][a] = m
            common = down_a & down[b]
            if not common:
                raise NotALattice(f"elements {a} and {b} have no common lower bound")
            # the largest-index common lower bound m is the meet: were some
            # common lower bound not below m, a maximal one x above it would
            # be incomparable to m, and x and m would share the upper bounds
            # a and b with no least one, a refusal raised by row min(x, m) < a
            mrow[b] = meet_rows[b][a] = common.bit_length() - 1

    return Lattice(
        n,
        tuple(up),
        tuple(down),
        tuple(map(bytes, join_rows)),
        tuple(map(bytes, meet_rows)),
        tuple(covers),
    )


def from_covers(n: int, covers: Iterable[tuple[int, int]]) -> Lattice:
    """Construct a lattice from its element count and covering pairs.

    Pairs must satisfy 0 <= i < j < n (linear-extension indexing); the order
    is the reflexive-transitive closure of the pairs.  Redundant pairs are
    tolerated: the stored ``covers`` are recomputed as the transitive
    reduction of the closure.
    """
    if n < 1:
        raise NotALattice("a lattice has at least one element")
    check_size("lattice", n, MAX_ELEMENTS)
    adj: list[list[int]] = [[] for _ in range(n)]
    for pair in covers:
        i, j = pair
        if not (0 <= i < j < n):
            raise BadIndexOrder(f"cover pair {pair!r} violates 0 <= i < j < {n}")
        adj[i].append(j)
    up = [1 << i for i in range(n)]
    for i in range(n - 1, -1, -1):
        row = up[i]
        for j in adj[i]:
            row |= up[j]
        up[i] = row
    return _finish(n, up)


# glued_sum's byte tables, built once: _INDICES[a:b] is the index run
# a..b-1, _BYTE[i] is index i alone, and _SHIFT[s] translates every index
# below 256 - s to index + s
_INDICES = bytes(range(256))
_BYTE = tuple(_INDICES[i : i + 1] for i in range(MAX_ELEMENTS))
_SHIFT = tuple(_INDICES[s:] + bytes(s) for s in range(MAX_ELEMENTS))


def glued_sum(first: Lattice, *rest: Lattice) -> Lattice:
    """Stack the parts from bottom to top, built from the parts' own tables.

    The top of each part is identified with the bottom of the next, so
    glued_sum(K, L) has n = |K| + |L| - 1 elements, and glued_sum(K) is K.
    Associative, not commutative.  A part shifted to start at index s keeps
    its order and operations; everything below s lies under all of it and
    everything past its top above, so each row is the part's row, shifted,
    between a head and a tail.  No closure is computed.
    """
    if not rest:
        return first
    parts = (first, *rest)
    n = sum(part.n for part in parts) - len(parts) + 1
    check_size("lattice", n, MAX_ELEMENTS)
    full = (1 << n) - 1
    leq: list[int] = []
    geq: list[int] = []
    join_rows: list[bytes] = []
    meet_rows: list[bytes] = []
    covers: list[tuple[int, int]] = []
    s = 0
    for k, part in enumerate(parts):
        end = s + part.n  # one past the part's top
        above = full >> end << end
        below = (1 << s) - 1
        joins_above = _INDICES[end:n]  # x v y = y above the part
        meets_below = _INDICES[:s]  # x ^ y = y below it
        # a part's indices are below 63, so index + s stays inside a byte
        shift = _SHIFT[s]
        # the bottom of every part after the first is the previous top
        for x in range(0 if k == 0 else 1, part.n):
            own = _BYTE[s + x]  # x v y = x below the part, x ^ y = x above it
            leq.append(part.leq[x] << s | above)
            geq.append(part.geq[x] << s | below)
            join_rows.append(own * s + part.join_table[x].translate(shift) + joins_above)
            meet_rows.append(meets_below + part.meet_table[x].translate(shift) + own * (n - end))
        covers += [(i + s, j + s) for i, j in part.covers]
        s = end - 1
    return Lattice(n, tuple(leq), tuple(geq), tuple(join_rows), tuple(meet_rows), tuple(covers))


def glued_cuts(lat: Lattice) -> tuple[int, ...]:
    """Indices of the elements comparable to every element, ascending.

    These cut the lattice into its glued-sum blocks.  In any linear
    extension the block between consecutive cuts lo and hi is exactly the
    index range lo..hi, and joins and meets of its elements stay inside it.
    """
    full = lat.full_mask
    leq = lat.leq
    geq = lat.geq
    return tuple(x for x in range(lat.n) if leq[x] | geq[x] == full)


def direct_product(left: Lattice, right: Lattice) -> Lattice:
    """Componentwise-order product, re-indexed lexicographically.

    The pair (i, j) gets index i*|right| + j, which is a linear extension of
    the product order.
    """
    n = left.n * right.n
    w = right.n
    _, left_up = cover_masks(left.n, left.covers)
    _, right_up = cover_masks(w, right.covers)
    pairs = []
    for i in range(left.n):
        base = i * w
        for j in range(w):
            a = base + j
            pairs += [(a, base + j2) for j2 in bit_indices(right_up[j])]
            pairs += [(a, i2 * w + j) for i2 in bit_indices(left_up[i])]
    return from_covers(n, pairs)


def member_mask(lat: Lattice, members: Union[int, Iterable[int]]) -> int:
    """Bitmask of a subset given as a bitmask or an iterable of indices.

    Raises IndexOutOfRange if the subset mentions an index outside the
    lattice.
    """
    mask = members if isinstance(members, int) else mask_of(members)
    if mask < 0 or mask & ~lat.full_mask:
        raise IndexOutOfRange("subset mentions indices outside the lattice")
    return mask


def unclosed_pair(lat: Lattice, mask: int) -> Optional[tuple[int, int]]:
    """First pair a < b of members whose join or meet falls outside the
    subset, or None when the subset is closed under join and meet."""
    elems = list(bit_indices(mask))
    for i, a in enumerate(elems):
        jrow = lat.join_table[a]
        mrow = lat.meet_table[a]
        for b in elems[i + 1 :]:
            if not (mask >> jrow[b] & 1 and mask >> mrow[b] & 1):
                return a, b
    return None


def sublattice(lat: Lattice, members: Union[int, Iterable[int]]) -> Lattice:
    """Induced lattice on a join/meet-closed subset of elements.

    ``members`` is a bitmask or an iterable of indices.  The subset keeps its
    relative index order (still a linear extension).  Raises NotALattice if
    the subset is not closed under the ambient join and meet, so the induced
    tables are guaranteed to be restrictions of the ambient ones.
    """
    mask = member_mask(lat, members)
    if not mask:
        raise NotALattice("the empty subset induces no lattice")
    pair = unclosed_pair(lat, mask)
    if pair is not None:
        raise NotALattice(f"subset is not closed under join/meet at {pair}")
    elems = list(bit_indices(mask))
    pos = {e: k for k, e in enumerate(elems)}
    k = len(elems)
    up = [0] * k
    for a in elems:
        row = lat.leq[a] & mask
        bits = 0
        for b in bit_indices(row):
            bits |= 1 << pos[b]
        up[pos[a]] = bits
    return _finish(k, up)


def chain(k: int) -> Lattice:
    """The k-element chain."""
    if k < 1:
        raise UnknownName(f"chain size must be >= 1, got {k}")
    # the pairs are generated lazily, so from_covers refuses an oversize k
    # before any of them is built
    return from_covers(k, ((i, i + 1) for i in range(k - 1)))


_FIXED_BUILDERS = {
    "B4": lambda: direct_product(chain(2), chain(2)),
    "B8": lambda: direct_product(named("B4"), chain(2)),
    # pentagon: 0 < a < c < 1 on one side, 0 < b < 1 on the other
    "N5": lambda: from_covers(5, [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)]),
    "M3": lambda: from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
    "C2xC3": lambda: direct_product(chain(2), chain(3)),
}

_CHAIN_RE = re.compile(r"(?:chain:|C)([0-9]+)$")


@lru_cache(maxsize=None)
def named(name: str) -> Lattice:
    """Look up a lattice by registry key.

    Keys: ``chain:k`` (equivalently ``Ck``) for k >= 1, and B4, B8, N5, M3,
    C2xC3.
    """
    key = name.strip()
    if key in _FIXED_BUILDERS:
        return _FIXED_BUILDERS[key]()
    m = _CHAIN_RE.match(key)
    if m:
        digits = m.group(1)
        try:
            k = int(digits)
        except ValueError:  # more digits than int() converts
            raise UnknownName(f"chain size has {len(digits)} digits, too many to read") from None
        if k >= 1:
            return chain(k)
    raise UnknownName(f"no lattice named {name!r}")


# --- expressions ---------------------------------------------------------
#
# Grammar (whitespace insensitive):
#   expr   := term  ('+' term)*          glued sum, left associative
#   term   := factor ('x' factor)*       direct product, binds tighter
#   factor := atom | '(' expr ')'
#   atom   := C<k> | B4 | B8 | N5 | M3

_TOKEN_RE = re.compile(r"\s*(C[0-9]+|B4|B8|N5|M3|[+x()])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"cannot read expression at: {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise ExpressionError("empty expression")
    return tokens


def build_expression(text: str) -> Lattice:
    """Build the lattice an expression string denotes.

    The recursive descent returns lattices, not a tree: an atom is looked
    up when it is read, a term folds its products left to right, and a run
    of '+' is glued by one glued_sum.  So an error in building (an
    unknown name, a size over the limit) can be raised before a syntax
    error later in the text.  Parentheses nested too deeply for the
    recursion raise ExpressionError.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def factor() -> Lattice:
        tok = peek()
        if tok is None:
            raise ExpressionError("expression ends where an atom was expected")
        if tok == "(":
            take()
            lat = expr()
            if peek() != ")":
                raise ExpressionError("missing closing parenthesis")
            take()
            return lat
        if tok in ("+", "x", ")"):
            raise ExpressionError(f"unexpected {tok!r}")
        return named(take())

    def term() -> Lattice:
        lat = factor()
        while peek() == "x":
            take()
            lat = direct_product(lat, factor())
        return lat

    def expr() -> Lattice:
        parts = [term()]
        while peek() == "+":
            take()
            parts.append(term())
        return glued_sum(*parts)

    try:
        lat = expr()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
    if pos != len(tokens):
        raise ExpressionError(f"trailing input after expression: {tokens[pos:]}")
    return lat
