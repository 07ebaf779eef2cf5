"""Finite groups as dense multiplication tables on element indices 0..n-1."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import wraps
from operator import countOf
from pathlib import Path
from typing import Iterable, Sequence

# Every element index fits in a byte, so a row or an element set is ``bytes``
# and each operation on it is one C-level ``translate``, ``find`` or slice.
MAX_ORDER = 256
_INDICES = bytes(range(MAX_ORDER))  # as a lookup, the identity map


def check_order(n: int) -> int:
    """n, or the ValueError of an order above ``MAX_ORDER``: constructors
    call it before they build a table of n rows."""
    if n > MAX_ORDER:
        raise ValueError(f"group order {n} exceeds the order cap {MAX_ORDER}")
    return n


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A group of order n <= ``MAX_ORDER`` on indices 0..n-1 with the
    identity pinned at 0.

    ``table[a]`` is row a as ``bytes``, so ``table[a][b]`` is the product
    a*b; ``inverse`` is ``bytes`` too, ``inverse[a]`` the inverse of ``a``;
    ``element_orders[a]`` is the least k >= 1 with a^k = identity; and
    ``packed`` is the rows end to end, one ``bytes`` object (column c is its
    stride slice ``[c::n]``).  All are built at construction and never
    mutated.  Derived structure goes into a private store that ``per_group``
    functions fill lazily and that dies with the group: the squares,
    inverses and non-involutions, the lattice, the bitmask of G' and the
    least-conjugate class map, one coset decomposition of G per subgroup,
    Sylow 2-subgroups and overgroups, normalizers and the extraspecial
    classification.  Each stored value is written once and never changes,
    so threads sharing a group at worst compute one value twice.
    """

    order: int
    table: tuple[bytes, ...]
    inverse: bytes
    element_orders: tuple[int, ...]
    packed: bytes
    name: str | None = None
    _store: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_table(
        cls, rows: Sequence[Sequence[int]], *, name: str | None = None
    ) -> FiniteGroup:
        """Build a validated group from a multiplication table.

        The table is reindexed so the identity sits at index 0, then checked
        for the Latin-square property, two-sided inverses and associativity.
        """
        n = check_order(len(rows))
        if n == 0:
            raise ValueError("group table must be non-empty")
        rows = _canonicalize_rows(_packed_rows(rows))
        inverse, packed = _validate_rows(rows)
        table = tuple(rows)
        orders = tuple(_order_of(table, g) for g in range(n))
        return cls(n, table, inverse, orders, packed, name)

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"FiniteGroup({label}, order={self.order})"


class Subgroup:
    """A subgroup of one ambient group: ``mask`` has bit g set for each
    member g, and ``members`` holds them as ``bytes``, in increasing order,
    as the builders (``generate`` and the lattice) pack them.

    The mask is the identity: equality, hashing and per-group store keys use
    it alone, so equal subgroups built apart share stored results.  Every
    subgroup records ``generators`` that generate it: the structure
    operators test them in place of its members.  Never mutated.
    """

    __slots__ = ("mask", "members", "generators", "_elements")

    def __init__(self, mask: int, members: bytes, generators: tuple[int, ...]) -> None:
        self.mask = mask
        self.members = members
        self.generators = generators
        self._elements = None

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, g: int) -> bool:
        return g >= 0 and self.mask >> g & 1 == 1

    def __iter__(self):
        return iter(self.members)

    @property
    def elements(self) -> frozenset[int]:
        """The members as a frozenset, for callers outside the library,
        which never reads it: built from ``members`` on the first read and
        kept, so callers holding many element sets share one per subgroup."""
        if self._elements is None:
            self._elements = frozenset(self.members)
        return self._elements

    def indices(self) -> list[int]:
        """Sorted element indices, the JSON exchange format for subgroups."""
        return list(self.members)

    def __repr__(self) -> str:
        return f"Subgroup({self.indices()})"


def bitmask(elems: Iterable[int]) -> int:
    """The element set as an int with bit g set for each member g."""
    return sum(1 << g for g in elems)


_MISSING = object()


def per_group(fn):
    """Memoize ``fn(G, *args)`` in G's store, keyed on the function object
    and the arguments after G: each value is computed once per group and
    lives exactly as long as the group does.  Arguments are positional only,
    so each value has one key."""

    @wraps(fn)
    def memoized(G: FiniteGroup, *args):
        key = (fn, args)
        store = G._store
        value = store.get(key, _MISSING)
        if value is _MISSING:
            value = store[key] = fn(G, *args)
        return value

    return memoized


def trivial_subgroup() -> Subgroup:
    return Subgroup(1, b"\0", ())


@per_group
def full_subgroup(G: FiniteGroup) -> Subgroup:
    """G as a subgroup of itself, once per group, with the generators ``generate`` picks."""
    return generate(G, G.elements())


def _lookup(q: bytes) -> bytes:
    """``q`` padded to a 256-byte table: ``p.translate(_lookup(q))`` is
    q[p[y]] for every y."""
    return q.ljust(MAX_ORDER, b"\0")


def _distinct(seq: bytes) -> bytes:
    """The distinct entries of ``seq``, increasing: the key of an element set."""
    return _INDICES.translate(None, _INDICES.translate(None, seq))


def _zeros(members: bytes) -> bytes:
    """A lookup 0 exactly at ``members``, else the identity (but 0 -> 1)."""
    return bytes.maketrans(b"\0" + members, b"\1" + bytes(len(members)))


@per_group
def _lookups(G: FiniteGroup) -> tuple[bytes, bytes, bytes]:
    """The lookups of g -> g^2 (the diagonal of ``G.packed``) and g -> g^-1,
    and the packed {g : g^2 != 1}; O(n), once per group."""
    n = G.order
    square = G.packed[:: n + 1]
    others = bytes(g for g in range(n) if square[g])
    return _lookup(square), _lookup(G.inverse), others


def _ints(values: Sequence, what: str) -> Sequence:
    """``values``, or ValueError naming the first entry whose type is not
    exactly ``int`` (so bools, floats, strings and int subclasses fail)."""
    if countOf(map(type, values), int) != len(values):
        v = next(v for v in values if type(v) is not int)
        raise ValueError(f"{what} entry {v!r} is not an integer")
    return values


def _indices(G: FiniteGroup, values: Iterable, what: str) -> tuple:
    """``values`` as a tuple of indices of G's elements, or the ValueError
    of ``_ints`` or of the first entry outside 0..n-1."""
    values = _ints(tuple(values), what)
    for g in values:
        if not 0 <= g < G.order:
            raise ValueError(f"{what} entry {g} out of range for order {G.order}")
    return values


def _packed_rows(rows: Sequence[Sequence[int]]) -> list[bytes]:
    """The rows as ``bytes``, each checked for its length, exact-int entries
    and range."""
    n = len(rows)
    ident = _INDICES[:n]
    out = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"table row {i} has length {len(row)}, expected {n}")
        # a bytes row holds only ints 0-255, so only the range is left to check
        if type(row) is not bytes:
            _ints(row, f"table row {i}")
        try:
            packed = bytes(row)
        except ValueError:  # an entry below 0 or above 255
            packed = None
        if packed is None or packed.translate(None, ident):
            v = next(v for v in row if not 0 <= v < n)
            raise ValueError(f"table entry {v} out of range [0, {n - 1}]")
        out.append(packed)
    return out


def _canonicalize_rows(rows: list[bytes]) -> list[bytes]:
    """Reindex so the two-sided identity lands at index 0: the first e whose
    row and column equal the identity permutation moves to the front, and
    each index v < e moves up to v + 1."""
    n = len(rows)
    ident, flat = _INDICES[:n], b"".join(rows)
    e = next((e for e in range(n) if rows[e] == ident and flat[e::n] == ident), None)
    if e is None:
        raise ValueError("table has no two-sided identity element")
    if e == 0:
        return rows
    front = lambda seq: seq[e : e + 1] + seq[:e] + seq[e + 1 :]
    renamed = _lookup(ident[1 : e + 1] + ident[:1] + ident[e + 1 :])
    return [front(row).translate(renamed) for row in front(rows)]


def _validate_rows(rows: list[bytes]) -> tuple[bytes, bytes]:
    """Check the group axioms; return the inverses and the rows end to end
    (``FiniteGroup.packed``).  The caller has already put a verified
    two-sided identity at index 0 (``_canonicalize_rows``).

    Associativity uses Light's test (Clifford & Preston, *The Algebraic
    Theory of Semigroups* I, 1961): the set of a with (xa)y = x(ay) for all
    x, y contains the identity and is closed under products, so checking the
    generators of ``_right_generators`` as the middle factor covers every
    element.  Composing row a with row x gives x(ay) for every y at once.
    """
    n = len(rows)
    ident = _INDICES[:n]
    if any(ident.translate(None, row) for row in rows):
        raise ValueError("some row is not a permutation of the elements")
    flat = b"".join(rows)
    if any(ident.translate(None, flat[c::n]) for c in range(n)):
        raise ValueError("some column is not a permutation of the elements")
    inverse = bytes(row.index(0) for row in rows)
    if any(rows[b][x] != 0 for x, b in enumerate(inverse)):
        raise ValueError("missing two-sided inverses")
    lookups = list(map(_lookup, rows))
    for a in _right_generators(rows):
        lefts = map(rows.__getitem__, flat[a::n])
        rights = map(rows[a].translate, lookups)
        for x, (left, right) in enumerate(zip(lefts, rights)):
            if left != right:
                y = next(y for y in range(n) if left[y] != right[y])
                raise ValueError(f"associativity fails at triple ({x}, {a}, {y})")
    return inverse, flat


def _right_generators(rows: list) -> list[int]:
    """A greedy generating set: every element is a left-associated product
    of its members.  Each is the least element not yet reached from the
    identity by right multiplication with those before it.  The table need
    not be associative, so no subgroup closure is used."""
    n = len(rows)
    seen = [True] + [False] * (n - 1)
    reached, gens = [0], []
    for g in range(n):
        if seen[g]:
            continue
        gens.append(g)
        done = len(reached)
        for i, x in enumerate(reached):
            row = rows[x]
            for a in gens[-1:] if i < done else gens:
                y = row[a]
                if not seen[y]:
                    seen[y] = True
                    reached.append(y)
    return gens


def _order_of(table: tuple[bytes, ...], g: int) -> int:
    k, x = 1, g
    while x != 0:
        x = table[x][g]
        k += 1
    return k


def load_group(source: str | Path | dict) -> FiniteGroup:
    """Load a group from a JSON document (multiplication table or permutations).

    Accepted shapes: ``{"name"?, "order", "table"}`` with element indices, or
    ``{"name"?, "degree", "generators"}`` with 0-based permutation image
    arrays.  Tables may carry the identity anywhere; indices are canonicalized.
    """
    if isinstance(source, dict):
        doc = source
    else:
        doc = json.loads(Path(source).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("group document must be a JSON object")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError("group name must be a string")
    for key in ("order", "degree"):
        if key in doc and type(doc[key]) is not int:
            raise ValueError(f"group {key} must be an integer, got {doc[key]!r}")
    if "table" in doc:
        rows = _list_rows(doc["table"], "table row")
        if "order" in doc and doc["order"] != len(rows):
            raise ValueError(
                f"declared order {doc['order']} does not match table size {len(rows)}"
            )
        return FiniteGroup.from_table(rows, name=name)
    if "generators" in doc:
        gens = _list_rows(doc["generators"], "generator")
        G = group_from_permutations(gens, degree=doc.get("degree"), name=name)
        if "order" in doc and doc["order"] != G.order:
            raise ValueError(
                f"declared order {doc['order']} does not match group order {G.order}"
            )
        return G
    raise ValueError("group document needs either a 'table' or 'generators' key")


def _list_rows(value, what: str) -> list[list]:
    """A JSON list of lists, or ValueError; the constructors check entries."""
    if not isinstance(value, list):
        raise ValueError(f"the {what}s must form a list, got {type(value).__name__}")
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ValueError(f"{what} {i} must be a list of integers")
    return value


def group_from_permutations(
    generators: Sequence[Sequence[int]],
    *,
    degree: int | None = None,
    name: str | None = None,
) -> FiniteGroup:
    """Group generated by permutations given as 0-based image arrays.

    Elements are enumerated by breadth-first closure under composition and
    then indexed lexicographically by image tuple, which puts the identity
    first; the resulting indices are reproducible across runs.  The product
    a*b applies a first, then b.  Each generator s gets its map a -> a*s;
    every element b other than the identity is c*s for some c reached before
    it, and its column (a*b for all a) is s's map applied to the column of c.
    """
    if degree is not None and degree < 0:
        raise ValueError(f"permutation degree must be non-negative, got {degree}")
    gens: list[tuple[int, ...]] = []
    for i, images in enumerate(generators):
        perm = _ints(tuple(images), f"generator {i}")
        if degree is None:
            degree = len(perm)
        if len(perm) != degree:
            raise ValueError(
                f"generator {i} has degree {len(perm)}, expected {degree}"
            )
        if sorted(perm) != list(range(degree)):
            raise ValueError(f"generator {i} is not a permutation of 0..{degree - 1}")
        gens.append(perm)
    if not gens:
        return FiniteGroup.from_table([[0]], name=name)
    ident = tuple(range(degree))
    perms = [ident]  # in breadth-first order of discovery
    found = {ident: 0}
    products: list[list[int]] = [[] for _ in gens]  # [j][i]: perms[i] * gens[j]
    links = []  # (r, c, j) with perms[r] = perms[c] * gens[j], c found before r
    for c, p in enumerate(perms):
        for j, q in enumerate(gens):
            r = tuple(map(q.__getitem__, p))
            k = found.setdefault(r, len(perms))
            if k == len(perms):
                if k >= MAX_ORDER:
                    raise ValueError(f"permutation closure exceeds the order cap {MAX_ORDER}")
                perms.append(r)
                links.append((k, c, j))
            products[j].append(k)
    n = len(perms)
    order = sorted(range(n), key=perms.__getitem__)
    index = sorted(range(n), key=order.__getitem__)  # the inverse of order
    times = [_lookup(bytes([index[prod[i]] for i in order])) for prod in products]
    columns = [_INDICES[:n]] + [None] * (n - 1)
    for r, c, j in links:
        columns[index[r]] = columns[index[c]].translate(times[j])
    flat = b"".join(columns)
    return FiniteGroup.from_table([flat[a::n] for a in range(n)], name=name)


def group_to_json(G: FiniteGroup) -> dict:
    """Serializable group-file document (table form, identity at index 0)."""
    doc: dict = {}
    if G.name is not None:
        doc["name"] = G.name
    doc["order"] = G.order
    doc["table"] = [list(row) for row in G.table]
    return doc


def closure_elements(G: FiniteGroup, gens: Iterable[int]) -> frozenset[int]:
    """Element set of the subgroup generated by ``gens``."""
    return generate(G, gens).elements


def generate(G: FiniteGroup, gens: Iterable[int], K: Subgroup | None = None) -> Subgroup:
    """The subgroup generated by K (default: trivial) and ``gens``, recording
    K's generators, then each g of ``gens`` outside the span J of those before
    it, joined by Dimino's coset extension (Butler, LNCS 559, 1991): a product
    r s of a coset representative r and a recorded s outside the union so far
    adds its whole right coset J r s.  The union ends closed under right
    multiplication by every recorded generator, so it is the join."""
    K = trivial_subgroup() if K is None else K
    t = G.table
    mask, elems, used = K.mask, list(K.members), K.generators
    for g in gens:
        if mask >> g & 1:
            continue
        used += (g,)
        span, reps = elems, [0]
        elems = list(span)
        for r in reps:
            row = t[r]
            for s in used:
                x = row[s]
                if not mask >> x & 1:
                    reps.append(x)
                    for k in span:
                        y = t[k][x]
                        elems.append(y)
                        mask |= 1 << y
    return Subgroup(mask, _distinct(bytes(elems)), used)


def closure(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Least subgroup containing ``gens``; the empty list gives the trivial one."""
    return generate(G, _indices(G, gens, "generator list"))


def subgroup_as_group(G: FiniteGroup, H: Subgroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Reindex a subgroup as a standalone group.

    Returns the subgroup's own multiplication table plus the map from new
    indices back to the ambient group's element indices.
    """
    old = H.members
    renamed = bytes.maketrans(old, _INDICES[: len(old)])
    rows = [old.translate(_lookup(G.table[a])).translate(renamed) for a in old]
    label = f"{G.name}<{len(old)}>" if G.name else None
    return FiniteGroup.from_table(rows, name=label), tuple(old)
