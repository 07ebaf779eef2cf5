"""Finite groups as dense multiplication tables on element indices 0..n-1."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import wraps
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

DEFAULT_MAX_ORDER = 256
MAX_ORDER_ENV = "PCL_MAX_ORDER"


def order_cap() -> int:
    """Maximum supported group order; ``PCL_MAX_ORDER`` overrides the default."""
    raw = os.environ.get(MAX_ORDER_ENV)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_ORDER_ENV} must be an integer, got {raw!r}.") from exc
    if value <= 0:
        raise ValueError(f"{MAX_ORDER_ENV} must be positive, got {value}.")
    return value


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A group of order n on indices 0..n-1 with the identity pinned at 0.

    ``table[a][b]`` is the product a*b, ``inverse[a]`` the inverse of ``a``,
    and ``element_orders[a]`` the least k >= 1 with a^k = identity.  All
    tables are precomputed at construction and never mutated.  Derived
    structure goes into a private store that ``per_group`` functions fill
    lazily and that dies with the group; a stored value never changes, so
    threads sharing a group at worst compute one value twice.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    element_orders: tuple[int, ...]
    name: str | None = None
    _store: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_table(
        cls,
        rows: Sequence[Sequence[int]],
        *,
        name: str | None = None,
        max_order: int | None = None,
    ) -> FiniteGroup:
        """Build a validated group from a multiplication table.

        The table is reindexed so the identity sits at index 0, then checked
        for the Latin-square property, two-sided inverses and associativity.
        """
        cap = order_cap() if max_order is None else max_order
        n = len(rows)
        if n == 0:
            raise ValueError("group table must be non-empty")
        if n > cap:
            raise ValueError(f"group order {n} exceeds the configured cap {cap}")
        norm = _coerce_rows(rows)
        norm = _canonicalize_rows(norm)
        _validate_rows(norm)
        table = tuple(tuple(row) for row in norm)
        inverse = tuple(row.index(0) for row in norm)
        orders = tuple(_order_of(table, g) for g in range(n))
        return cls(order=n, table=table, inverse=inverse, element_orders=orders, name=name)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def power(self, g: int, k: int) -> int:
        """g**k for any integer k (negative exponents use the inverse)."""
        if k < 0:
            g, k = self.inverse[g], -k
        acc = 0
        for _ in range(k):
            acc = self.table[acc][g]
        return acc

    def conjugate(self, g: int, x: int) -> int:
        """x^-1 * g * x."""
        t = self.table
        return t[t[self.inverse[x]][g]][x]

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"FiniteGroup({label}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as a frozen set of element indices of one ambient group.

    Equality and hashing use the element set only; ``generators`` records how
    the subgroup was built, when known.
    """

    elements: frozenset[int]
    generators: tuple[int, ...] | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, g: int) -> bool:
        return g in self.elements

    def __iter__(self):
        return iter(sorted(self.elements))

    def indices(self) -> list[int]:
        """Sorted element indices, the JSON exchange format for subgroups."""
        return sorted(self.elements)

    def bitmask(self) -> int:
        return bitmask(self.elements)

    def __repr__(self) -> str:
        return f"Subgroup({self.indices()})"


def bitmask(elems: Iterable[int]) -> int:
    """The element set as an int with bit g set for each member g."""
    return sum(1 << g for g in elems)


def per_group(fn):
    """Memoize ``fn(G, *args, **kwargs)`` in G's store, keyed on the function
    object and the arguments after G: each value is computed once per group
    and lives exactly as long as the group does."""

    @wraps(fn)
    def memoized(G: FiniteGroup, *args, **kwargs):
        key = (fn, args, tuple(kwargs.items()))
        store = G._store
        if key not in store:
            store[key] = fn(G, *args, **kwargs)
        return store[key]

    return memoized


def trivial_subgroup() -> Subgroup:
    return Subgroup(frozenset({0}), generators=())


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(frozenset(range(G.order)))


def _coerce_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(rows)
    out: list[list[int]] = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"table row {i} has length {len(row)}, expected {n}")
        coerced = [int(v) for v in row]
        for v in coerced:
            if not 0 <= v < n:
                raise ValueError(f"table entry {v} out of range [0, {n - 1}]")
        out.append(coerced)
    return out


def _find_identity(rows: list[list[int]]) -> int | None:
    n = len(rows)
    ident = list(range(n))
    for e in range(n):
        if rows[e] == ident and all(rows[x][e] == x for x in range(n)):
            return e
    return None


def _canonicalize_rows(rows: list[list[int]]) -> list[list[int]]:
    """Reindex so the two-sided identity lands at index 0."""
    e = _find_identity(rows)
    if e is None:
        raise ValueError("table has no two-sided identity element")
    if e == 0:
        return rows
    old = [e] + [i for i in range(len(rows)) if i != e]
    pos = {o: i for i, o in enumerate(old)}
    return [[pos[rows[a][b]] for b in old] for a in old]


def _validate_rows(rows: list[list[int]]) -> None:
    """Check the group axioms exhaustively; identity must already sit at 0."""
    n = len(rows)
    t = np.array(rows, dtype=np.intp)
    ar = np.arange(n)
    if not np.array_equal(t[0], ar) or not np.array_equal(t[:, 0], ar):
        raise ValueError("identity axiom violated at index 0")
    if not (np.sort(t, axis=1) == ar).all():
        raise ValueError("some row is not a permutation of the elements")
    if not (np.sort(t, axis=0) == ar[:, None]).all():
        raise ValueError("some column is not a permutation of the elements")
    inv = np.argmax(t == 0, axis=1)
    if not (t[ar, inv] == 0).all() or not (t[inv, ar] == 0).all():
        raise ValueError("missing two-sided inverses")
    for a in range(n):
        left = t[t[a]]
        right = t[a][t]
        if not np.array_equal(left, right):
            b, c = (int(v) for v in np.argwhere(left != right)[0])
            raise ValueError(f"associativity fails at triple ({a}, {b}, {c})")


def _order_of(table: tuple[tuple[int, ...], ...], g: int) -> int:
    k, x = 1, g
    while x != 0:
        x = table[x][g]
        k += 1
    return k


def load_group(
    source: str | Path | dict,
    *,
    max_order: int | None = None,
) -> FiniteGroup:
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
        rows = _int_rows(doc["table"], "table row")
        if "order" in doc and doc["order"] != len(rows):
            raise ValueError(
                f"declared order {doc['order']} does not match table size {len(rows)}"
            )
        return FiniteGroup.from_table(rows, name=name, max_order=max_order)
    if "generators" in doc:
        gens = _int_rows(doc["generators"], "generator")
        degree = doc.get("degree")
        return group_from_permutations(gens, degree=degree, name=name, max_order=max_order)
    raise ValueError("group document needs either a 'table' or 'generators' key")


def _int_rows(value, what: str) -> list[list[int]]:
    """A JSON list of lists of integers (bools excluded), or ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"the {what}s must form a list, got {type(value).__name__}")
    for i, row in enumerate(value):
        if not isinstance(row, list) or not set(map(type, row)) <= {int}:
            raise ValueError(f"{what} {i} must be a list of integers")
    return value


def group_from_permutations(
    generators: Sequence[Sequence[int]],
    *,
    degree: int | None = None,
    name: str | None = None,
    max_order: int | None = None,
) -> FiniteGroup:
    """Group generated by permutations given as 0-based image arrays.

    Elements are enumerated by breadth-first closure under composition and
    then indexed lexicographically by image tuple, which puts the identity
    first; the resulting indices are reproducible across runs.
    """
    cap = order_cap() if max_order is None else max_order
    gens: list[tuple[int, ...]] = []
    for i, images in enumerate(generators):
        perm = tuple(int(v) for v in images)
        if degree is None:
            degree = len(perm)
        if len(perm) != degree:
            raise ValueError(
                f"generator {i} has degree {len(perm)}, expected {degree}"
            )
        if sorted(perm) != list(range(degree)):
            raise ValueError(f"generator {i} is not a permutation of 0..{degree - 1}")
        gens.append(perm)
    if degree is None:
        degree = 1
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(q[p[i]] for i in range(degree))
                if r not in seen:
                    if len(seen) >= cap:
                        raise ValueError(
                            f"permutation closure exceeds the configured cap {cap}"
                        )
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    elements = sorted(seen)
    index = {p: i for i, p in enumerate(elements)}
    rows = [
        [index[tuple(q[p[i]] for i in range(degree))] for q in elements]
        for p in elements
    ]
    return FiniteGroup.from_table(rows, name=name, max_order=cap)


def group_to_json(G: FiniteGroup) -> dict:
    """Serializable group-file document (table form, identity at index 0)."""
    doc: dict = {}
    if G.name is not None:
        doc["name"] = G.name
    doc["order"] = G.order
    doc["table"] = [list(row) for row in G.table]
    return doc


def element_order(G: FiniteGroup, g: int) -> int:
    """Least k >= 1 with g^k = identity."""
    if not 0 <= g < G.order:
        raise ValueError(f"element index {g} out of range for order {G.order}")
    return G.element_orders[g]


def omega1(G: FiniteGroup, within: Iterable[int] | None = None) -> frozenset[int]:
    """Elements of order at most 2 (identity included) inside ``within``."""
    domain = G.elements() if within is None else within
    t = G.table
    return frozenset(g for g in domain if t[g][g] == 0)


def squares(G: FiniteGroup) -> frozenset[int]:
    """Non-identity elements expressible as y^2 (the identity is excluded)."""
    t = G.table
    return frozenset(t[g][g] for g in G.elements()) - {0}


def closure_elements(G: FiniteGroup, gens: Iterable[int]) -> frozenset[int]:
    """Element set of the subgroup generated by ``gens``."""
    table = G.table
    gl = [g for g in gens if g != 0]
    members = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            row = table[x]
            for g in gl:
                y = row[g]
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(members)


def closure(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Least subgroup containing ``gens``; the empty list gives the trivial one."""
    gen_list = []
    for g in gens:
        if not 0 <= g < G.order:
            raise ValueError(f"generator index {g} out of range for order {G.order}")
        gen_list.append(g)
    return Subgroup(closure_elements(G, gen_list), generators=tuple(gen_list))


def subgroup_from_elements(G: FiniteGroup, elems: Iterable[int]) -> Subgroup:
    """Wrap an element set as a Subgroup, verifying the subgroup axioms."""
    members = frozenset(int(g) for g in elems)
    for g in members:
        if not 0 <= g < G.order:
            raise ValueError(f"element index {g} out of range for order {G.order}")
    if 0 not in members:
        raise ValueError("subgroup must contain the identity")
    t = G.table
    for a in members:
        for b in members:
            if t[a][b] not in members:
                raise ValueError("element set is not closed under the product")
    return Subgroup(members)


def conjugate_subgroup(G: FiniteGroup, H: Subgroup, x: int) -> Subgroup:
    """The conjugate {x^-1 h x : h in H}."""
    if not 0 <= x < G.order:
        raise ValueError(f"element index {x} out of range for order {G.order}")
    return Subgroup(frozenset(G.conjugate(h, x) for h in H.elements))


def commutator(G: FiniteGroup, x: int, y: int) -> int:
    """x^-1 y^-1 x y."""
    t = G.table
    return t[t[t[G.inverse[x]][G.inverse[y]]][x]][y]


def subgroup_as_group(
    G: FiniteGroup, H: Subgroup, *, name: str | None = None
) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Reindex a subgroup as a standalone group.

    Returns the subgroup's own multiplication table plus the map from new
    indices back to the ambient group's element indices.
    """
    old = sorted(H.elements)
    pos = {o: i for i, o in enumerate(old)}
    rows = [[pos[G.table[a][b]] for b in old] for a in old]
    label = name if name is not None else (f"{G.name}<{len(old)}>" if G.name else None)
    return FiniteGroup.from_table(rows, name=label), tuple(old)
