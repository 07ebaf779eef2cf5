"""Independent brute-force oracles used to freeze expected values, and
structure helpers that only the tests use.

The oracles deliberately avoid the library's own algorithms: subgroups come
from exhaustive subset scans, transversals from cartesian products over
cosets, perfect codes from every pair of vertices, right cosets from every
product, associativity from every triple, normalizers, centralizers,
commutativity and maximal abelian subgroups from every member, elements of
order at most 2 from the table's diagonal, element orders from repeated
products in the table, Sylow growth steps from whole normalizers,
coset-criterion counterexamples from a scan of every x, permutation tables
from composing every pair of a closure grown by squaring, the tables of
the cyclic, dihedral and dicyclic groups and of direct and central
products from one call per product (the constructors before they built
whole rows), the deciding
clause of the Sylow-extraspecial classification from brute normalizers and
commutativity, and counts from closed formulas, so a bug in the fast path
cannot hide in the oracle as well.  Closures come from every product of a
member and a generator; elements of order 4 and the squares of the
closed-form test for abelian groups (H is a code iff H meets G^2 in H^2)
are read off the table's diagonal.

The helpers below them (the join-every-cyclic lattice, squares, bitmasks
and ``Subgroup`` builds from element sets, checked and conjugate
subgroups, conjugates and commutators, derived and Frattini subgroups,
abelian invariants, the symplectic form of an extraspecial group,
conjugacy class sizes and the small-order isomorphism search) are
not oracles in that sense:
``join_every_cyclic_lattice`` calls ``generate``,
``derived_subgroup`` calls ``closure_elements``,
``frattini_subgroup`` calls ``all_subgroups``, ``isomorphic_small`` and
``symplectic_form`` call ``generate``, ``abelian_invariants`` calls
``is_abelian_subgroup``, ``extraspecial_by_definition`` calls
``subgroup_as_group``, ``build_family`` and ``derived_subgroup``, and
``reduction_statements`` evaluates the Sylow reduction's four statements
with ``square_coset_condition`` and ``omega_coset_sets``.
``connection_set_from_transversal`` checks that T holds 1 and proves the
rest by the library's graph check of H in Cay(G, T minus 1).
``reference_normalizer`` grows a normalizer by a walk of G with
``generate``, so that the generators it records are those the library
must record.
``first_light_failure`` checks associativity triple by triple but takes its
middle factors from ``_right_generators``: which failing triple comes first
depends on them.  So does ``reference_table``, the per-entry table
validator that the packed-row one in ``FiniteGroup.from_table`` must match
message for message.  ``permutation_groups``, the hypothesis strategy of
random groups that the property tests share, builds each with
``group_from_permutations``, and ``corpus_products`` with ``direct_product``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cache, reduce
from itertools import product
from operator import itemgetter
from typing import Iterable, Sequence

from hypothesis import strategies as st

from perfcode.codes import (
    _as_elements,
    is_perfect_code_in_cayley_graph,
    omega_coset_sets,
    square_coset_condition,
    sylow_reduction,
)
from perfcode.construct import direct_product
from perfcode.corpus import builtin_corpus
from perfcode.extraspecial import Family, _central_involution, build_family, is_extraspecial
from perfcode.group import (
    FiniteGroup,
    Subgroup,
    _right_generators,
    closure_elements,
    full_subgroup,
    generate,
    group_from_permutations,
    per_group,
    subgroup_as_group,
)
from perfcode.subgroups import _prime_factors, all_subgroups, is_abelian_subgroup, sylow_2_subgroup

DEFAULT_ISOMORPHISM_CAP = 64


@st.composite
def permutation_groups(draw, min_degree: int = 1, max_degree: int = 5):
    """The group that 1-3 random permutations of degree ``min_degree`` to
    ``max_degree`` generate: random groups for the property tests."""
    degree = draw(st.integers(min_value=min_degree, max_value=max_degree))
    count = draw(st.integers(min_value=1, max_value=3))
    return group_from_permutations([draw(st.permutations(range(degree))) for _ in range(count)])


@cache
def _corpus_pairs(max_order: int, abelian: bool) -> tuple[tuple[FiniteGroup, FiniteGroup], ...]:
    groups = [e.group for e in builtin_corpus()]
    if abelian:
        groups = [G for G in groups if brute_is_abelian(G, G.elements())]
    return tuple((A, B) for A in groups for B in groups if A.order * B.order <= max_order)


@st.composite
def corpus_products(draw, max_order: int = 64, abelian: bool = False):
    """The direct product of two built-in corpus groups (abelian ones only
    when ``abelian``) whose orders multiply to at most ``max_order``."""
    A, B = draw(st.sampled_from(_corpus_pairs(max_order, abelian)))
    return direct_product(A, B)


def brute_subgroups(G: FiniteGroup) -> list[frozenset[int]]:
    """All subgroups by scanning every subset containing the identity.

    Exponential; keep to order <= 16.
    """
    n = G.order
    if n > 16:
        raise ValueError("brute subgroup scan is limited to order <= 16")
    t = G.table
    found = []
    others = list(range(1, n))
    for mask in range(1 << (n - 1)):
        subset = {0}
        for bit, g in enumerate(others):
            if mask >> bit & 1:
                subset.add(g)
        if all(t[a][b] in subset for a in subset for b in subset):
            found.append(frozenset(subset))
    return found


def brute_closure(G: FiniteGroup, elems: Iterable[int]) -> frozenset[int]:
    """The subgroup ``elems`` generate: the identity and ``elems``, then
    every product of a member and one of ``elems`` until none is new (in a
    finite group inverses are positive powers)."""
    t, gens = G.table, tuple(elems)
    found = {0, *gens}
    frontier = list(found)
    for a in frontier:
        for g in gens:
            if t[a][g] not in found:
                found.add(t[a][g])
                frontier.append(t[a][g])
    return frozenset(found)


def has_element_of_order_4(G: FiniteGroup) -> bool:
    """Some g with g^2 != 1 = g^4, read off the table's diagonal."""
    t = G.table
    return any(t[g][g] != 0 and t[t[g][g]][t[g][g]] == 0 for g in G.elements())


def abelian_square_test(G: FiniteGroup, members) -> bool:
    """H meets the squares G^2 exactly in its own squares H^2, read off the
    table's diagonal: for abelian G, whether H is a perfect code."""
    t = G.table
    squares_of_g = {t[g][g] for g in G.elements()}
    return {h for h in members if h in squares_of_g} == {t[h][h] for h in members}


def brute_inverse_closed_transversal_exists(G: FiniteGroup, H: Subgroup) -> bool:
    """Try every choice of one representative per right coset."""
    t = G.table
    inv = G.inverse
    blocks: list[list[int]] = []
    seen: set[int] = set()
    for g in range(G.order):
        if g in seen:
            continue
        block = sorted(t[h][g] for h in H.elements)
        seen.update(block)
        blocks.append(block)
    size = 1
    for block in blocks:
        size *= len(block)
        if size > 200_000:
            raise ValueError("transversal oracle would enumerate too many tuples")
    for combo in product(*blocks):
        chosen = set(combo)
        if all(inv[g] in chosen for g in chosen):
            return True
    return False


def brute_first_transversal(G: FiniteGroup, H: Subgroup) -> tuple[int, ...] | None:
    """The first inverse-closed right transversal in lexicographic order over
    the right cosets in order of their least elements, each coset listing
    its involutions (and 1) first, then the rest, each part increasing."""
    t, inv = G.table, G.inverse
    cosets = brute_right_cosets(G, H.elements)
    blocks = [sorted(c, key=lambda g: (t[g][g] != 0, g)) for c in cosets]
    for combo in product(*blocks):
        chosen = set(combo)
        if all(inv[g] in chosen for g in chosen):
            return combo
    return None


def connection_set_from_transversal(G: FiniteGroup, H: Subgroup, T: Iterable[int]) -> frozenset[int]:
    """S = T minus the identity, the Cayley graph admitting H as a code.  The
    graph check proves T = T^-1, TH = G and |T| |H| = |G|, so HT = G too."""
    reps = frozenset(_as_elements(G, T))
    if 0 not in reps:
        raise ValueError("transversal must contain the identity")
    if not is_perfect_code_in_cayley_graph(G, reps - {0}, H):
        raise ValueError("representatives do not form a right transversal")
    return reps - {0}


def brute_is_perfect_code(G: FiniteGroup, S, C) -> bool:
    """C is a perfect code of Cay(G, S), where x ~ y iff y x^-1 lies in S:
    no two code words are adjacent and every other vertex is adjacent to
    exactly one, checked over every pair of vertices.  O(|G| |C|)."""
    t, inv = G.table, G.inverse
    S, C = frozenset(S), frozenset(C)

    def adjacent(x: int, y: int) -> bool:
        return t[y][inv[x]] in S

    if any(adjacent(a, b) for a in C for b in C if a != b):
        return False
    return all(sum(adjacent(c, g) for c in C) == 1 for g in G.elements() if g not in C)


def brute_right_cosets(G: FiniteGroup, members, within=None) -> list[list[int]]:
    """The distinct sets Hg for g in within (default: G), each sorted, in
    order of their least element."""
    domain = G.elements() if within is None else within
    cosets = {frozenset(G.table[h][g] for h in members) for g in domain}
    return sorted(sorted(c) for c in cosets)


def is_associative(rows) -> bool:
    """(xy)z = x(yz) for every triple, checked one by one in O(n^3)."""
    n = len(rows)
    return all(
        rows[rows[x][y]][z] == rows[x][rows[y][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def first_light_failure(rows) -> tuple[int, int, int] | None:
    """The first triple (x, a, y) with (xa)y != x(ay), for a over the
    generators ``_right_generators`` picks, then x, then y: the order in
    which ``FiniteGroup.from_table`` reports associativity failures.  The
    identity must sit at 0.  O(|gens| n^2)."""
    n = len(rows)
    for a in _right_generators(rows):
        for x in range(n):
            for y in range(n):
                if rows[rows[x][a]][y] != rows[x][rows[a][y]]:
                    return x, a, y
    return None


Rows = list[tuple[int, ...]]


def reference_table(rows) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The canonical table and the inverses that the per-entry reference
    validator below gives ``rows``, or the ValueError it raises first.  The
    order checks of ``from_table`` (non-empty, within the cap) come before
    it and are not repeated here."""
    norm = _canonicalize_rows(_coerce_rows(rows))
    inverse = _validate_rows(norm)
    return tuple(norm), inverse


# The reference validator: every entry is visited by Python-level code
# (tuples, sets, ``itemgetter`` relabelling), as ``FiniteGroup.from_table``
# did before it packed rows into bytes.  Only ``_right_generators`` is
# shared, because it fixes which failing triple is reported first.


def _int_tuple(values: Iterable[int], what: str) -> tuple[int, ...]:
    """``values`` as a tuple, or ValueError naming the first entry whose
    type is not exactly ``int`` (so bools, floats and strings fail)."""
    out = tuple(values)
    if not set(map(type, out)) <= {int}:
        v = next(v for v in out if type(v) is not int)
        raise ValueError(f"{what} entry {v!r} is not an integer")
    return out


def _coerce_rows(rows: Sequence[Sequence[int]]) -> Rows:
    n = len(rows)
    valid = set(range(n))
    out: Rows = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"table row {i} has length {len(row)}, expected {n}")
        row = _int_tuple(row, f"table row {i}")
        if not valid.issuperset(row):
            v = next(v for v in row if v not in valid)
            raise ValueError(f"table entry {v} out of range [0, {n - 1}]")
        out.append(row)
    return out


def _find_identity(rows: Rows) -> int | None:
    n = len(rows)
    ident = tuple(range(n))
    for e in range(n):
        if rows[e] == ident and all(rows[x][e] == x for x in range(n)):
            return e
    return None


def _canonicalize_rows(rows: Rows) -> Rows:
    """Reindex so the two-sided identity lands at index 0."""
    e = _find_identity(rows)
    if e is None:
        raise ValueError("table has no two-sided identity element")
    if e == 0:
        return rows
    return _relabel(rows, [e] + [i for i in range(len(rows)) if i != e])


def _relabel(table: Sequence[Sequence[int]], old: list[int]) -> Rows:
    """The products among the elements ``old`` of ``table``, which must be
    closed under them, with ``old[i]`` renamed i."""
    pos = dict(zip(old, range(len(old))))
    if len(old) == 1:
        return [(pos[table[old[0]][old[0]]],)]
    pick = itemgetter(*old)
    return [itemgetter(*pick(table[a]))(pos) for a in old]


def _validate_rows(rows: Rows) -> tuple[int, ...]:
    """Check the group axioms; return the inverses.  The caller has already
    put a verified two-sided identity at index 0 (``_canonicalize_rows``).

    Associativity uses Light's test (Clifford & Preston, *The Algebraic
    Theory of Semigroups* I, 1961): the set of a with (xa)y = x(ay) for all
    x, y contains the identity and is closed under products, so checking the
    generators of ``_right_generators`` as the middle factor covers every
    element.  Every index fits in a byte, and translating row a through
    row x, padded to a 256-byte table, gives x(ay) for every y in one C call.
    """
    n = len(rows)
    if any(len(set(row)) != n for row in rows):
        raise ValueError("some row is not a permutation of the elements")
    if any(len(set(col)) != n for col in zip(*rows)):
        raise ValueError("some column is not a permutation of the elements")
    inverse = tuple(row.index(0) for row in rows)
    if any(rows[b][x] != 0 for x, b in enumerate(inverse)):
        raise ValueError("missing two-sided inverses")
    by_index = list(map(bytes, rows))
    lookups = [row.ljust(256, b"\0") for row in by_index]
    for a in _right_generators(rows):
        times_a = by_index[a].translate
        lefts = map(by_index.__getitem__, [row[a] for row in rows])
        for x, (left, right) in enumerate(zip(lefts, map(times_a, lookups))):
            if left != right:
                y = next(y for y in range(n) if left[y] != right[y])
                raise ValueError(f"associativity fails at triple ({x}, {a}, {y})")
    return inverse


def brute_normalizer(G: FiniteGroup, members, within=None) -> frozenset[int]:
    """{g in within (default: G) : g^-1 k g lies in K for every k in K}."""
    domain = G.elements() if within is None else within
    return frozenset(g for g in domain if all(conjugate(G, k, g) in members for k in members))


def reference_normalizer(G: FiniteGroup, K: Subgroup) -> Subgroup:
    """N_G(K) with the generators ``normalizer`` records, by a walk of G in
    index order: G's stored full subgroup when K is normal; otherwise N is
    grown from K, joining each g that maps every member of K into K to the
    part found so far and ruling out the right coset N g of each other g
    (ng normalizes K iff g does).  N records K's generators, then the g
    joined."""
    t = G.table

    def normalizes(g: int) -> bool:
        return all(conjugate(G, k, g) in K for k in K.members)

    if all(map(normalizes, G.elements())):
        return full_subgroup(G)
    N, decided = K, K.mask
    for g in G.elements():
        if decided >> g & 1:
            continue
        if normalizes(g):
            N = generate(G, (g,), N)
            decided |= N.mask
        else:
            for n in N.members:
                decided |= 1 << t[n][g]
    return N


def brute_is_normal(G: FiniteGroup, members, within=None) -> bool:
    domain = G.elements() if within is None else within
    return brute_normalizer(G, members, domain) == frozenset(domain)


def brute_grow_2_subgroup(G: FiniteGroup, members, target: int, within=None) -> frozenset[int]:
    """Grow the 2-subgroup ``members`` to order ``target`` by index-2 steps,
    each adjoining the least g of ``brute_normalizer`` in within (default: G)
    that lies outside it and squares into it."""
    t = G.table
    current = frozenset(members)
    while len(current) < target:
        norm = brute_normalizer(G, current, within)
        x = min(g for g in norm if g not in current and t[g][g] in current)
        current = current | {t[q][x] for q in current}
    return current


def brute_centralizer(G: FiniteGroup, members, within=None) -> frozenset[int]:
    """{g in within (default: G) : gh = hg for every h in H}."""
    domain = G.elements() if within is None else within
    t = G.table
    return frozenset(g for g in domain if all(t[g][h] == t[h][g] for h in members))


def brute_is_abelian(G: FiniteGroup, members) -> bool:
    t = G.table
    return all(t[a][b] == t[b][a] for a in members for b in members)


def is_maximal_abelian(G: FiniteGroup, H: Subgroup) -> bool:
    """H is abelian and no strictly larger abelian subgroup contains it.  Any
    element commuting with all of an abelian H extends it to a larger abelian
    subgroup, so the test is exactly C_G(H) = H."""
    return brute_is_abelian(G, H.elements) and brute_centralizer(G, H.elements) == H.elements


def _fails_coset_test(G: FiniteGroup, members, x: int) -> bool:
    """|H : H meet H^x| is odd and no y in Hx has y^2 = 1."""
    t = G.table
    meet = sum(1 for h in members if conjugate(G, h, x) in members)
    coset = [t[h][x] for h in members]
    return (len(members) // meet) % 2 == 1 and all(t[y][y] != 0 for y in coset)


def sylow_extraspecial_clause(G: FiniteGroup, members) -> str:
    """Which clause of the closed form for an extraspecial Sylow 2-subgroup
    G2 decides H, from the definitions: ``odd-order``; else, with H2 a
    Sylow 2-subgroup of H, ``non-abelian`` H2; ``normalizer`` when the
    2-part of |N_G(H2)| is below |G2|; ``maximal-abelian`` when
    |H2|^2 = 2|G2|; otherwise ``none``."""
    size = len(members)
    if size % 2:
        return "odd-order"
    H2 = brute_grow_2_subgroup(G, {0}, size & -size, members)
    sylow_order = G.order & -G.order  # n & -n is the 2-part of n
    if not brute_is_abelian(G, H2):
        return "non-abelian"
    norm = len(brute_normalizer(G, H2))
    if norm & -norm < sylow_order:
        return "normalizer"
    if len(H2) ** 2 == 2 * sylow_order:
        return "maximal-abelian"
    return "none"


def reduction_statements(G: FiniteGroup, H: Subgroup) -> tuple[bool, bool, bool, bool]:
    """The Sylow reduction's four statements on the chain (H2, N, N2) that
    ``sylow_reduction`` returns and the Sylow 2-subgroup P of G grown from
    N2: H2 a code of P, the involution cosets of H2 in N2 and in N, and H a
    code of G."""
    H2, N, N2 = sylow_reduction(G, H)
    P = sylow_2_subgroup(G, full_subgroup(G), N2)
    q2, l2 = omega_coset_sets(G, N2, H2)
    qn, ln = omega_coset_sets(G, N, H2)
    return (
        square_coset_condition(G, H2, within=P).is_perfect_code,
        q2 == l2,
        qn == ln,
        square_coset_condition(G, H).is_perfect_code,
    )


def brute_square_coset_counterexample(G: FiniteGroup, members, within=None) -> int | None:
    """Least x of within (default: G) with x^2 in H that fails the coset test."""
    domain = range(G.order) if within is None else sorted(within)
    t = G.table
    return next(
        (x for x in domain if t[x][x] in members and _fails_coset_test(G, members, x)), None
    )


def brute_double_coset_counterexample(G: FiniteGroup, members) -> int | None:
    """Least x with x^-1 in HxH that fails the coset test."""
    t = G.table
    for x in range(G.order):
        double = {t[t[a][x]][b] for a in members for b in members}
        if G.inverse[x] in double and _fails_coset_test(G, members, x):
            return x
    return None


def brute_permutation_table(generators, degree: int) -> list[list[int]]:
    """The table of the permutation group generated by ``generators``: the
    elements sorted by image tuple, and at (a, b) the index of a then b,
    ``tuple(q[i] for i in p)`` for p = elements[a] and q = elements[b]."""
    elements = {tuple(range(degree))} | {tuple(g) for g in generators}
    while True:
        grown = elements | {tuple(q[i] for i in p) for p in elements for q in elements}
        if grown == elements:
            break
        elements = grown
    ordered = sorted(elements)
    index = {p: i for i, p in enumerate(ordered)}
    return [[index[tuple(q[i] for i in p)] for q in ordered] for p in ordered]


def reference_cyclic(n: int) -> FiniteGroup:
    """The cyclic table by one sum per product."""
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup.from_table(rows, name=f"Z{n}")


def reference_dihedral(order: int) -> FiniteGroup:
    """The dihedral table by one call per product: r^i at i, r^i s at n + i."""
    n = order // 2

    def mul(i: int, j: int) -> int:
        ri, fi = i % n, i // n
        rj, fj = j % n, j // n
        rot = (ri + rj) % n if fi == 0 else (ri - rj) % n
        return rot + n * (fi ^ fj)

    rows = [[mul(i, j) for j in range(order)] for i in range(order)]
    return FiniteGroup.from_table(rows, name=f"D{order}")


def reference_dicyclic(order: int) -> FiniteGroup:
    """The dicyclic table by one call per product: a^i at i, a^i b at 2m + i."""
    m = order // 4
    n = 2 * m

    def mul(i: int, j: int) -> int:
        ri, fi = i % n, i // n
        rj, fj = j % n, j // n
        if fi == 0:
            rot = (ri + rj) % n
        else:
            rot = (ri - rj) % n
            if fj:
                rot = (rot + m) % n
        return rot + n * (fi ^ fj)

    name = f"Q{order}" if order in (8, 16) else f"Dic{order}"
    rows = [[mul(i, j) for j in range(order)] for i in range(order)]
    return FiniteGroup.from_table(rows, name=name)


def reference_direct_product(
    A: FiniteGroup, B: FiniteGroup, *, name: str | None = None
) -> FiniteGroup:
    """A x B by one call per product, pairs packed as a * |B| + b."""
    nb = B.order
    n = A.order * nb

    def mul(i: int, j: int) -> int:
        a1, b1 = divmod(i, nb)
        a2, b2 = divmod(j, nb)
        return A.table[a1][a2] * nb + B.table[b1][b2]

    rows = [[mul(i, j) for j in range(n)] for i in range(n)]
    label = name or f"{A.name or '?'}x{B.name or '?'}"
    return FiniteGroup.from_table(rows, name=label)


def reference_central_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    """A x B modulo its pair of central involutions, by one call per product:
    each class is named by its first member, the classes in that order."""
    za = _central_involution(A)
    zb = _central_involution(B)
    nb = B.order
    n = A.order * nb

    def partner(i: int) -> int:
        a, b = divmod(i, nb)
        return A.table[a][za] * nb + B.table[b][zb]

    rep_of: dict[int, int] = {}
    reps: list[int] = []
    for i in range(n):
        if i in rep_of:
            continue
        j = partner(i)
        rep_of[i] = i
        rep_of[j] = i
        reps.append(i)
    index = {r: k for k, r in enumerate(reps)}

    def mul(x: int, y: int) -> int:
        a1, b1 = divmod(reps[x], nb)
        a2, b2 = divmod(reps[y], nb)
        prod = A.table[a1][a2] * nb + B.table[b1][b2]
        return index[rep_of[prod]]

    k = len(reps)
    rows = [[mul(x, y) for y in range(k)] for x in range(k)]
    return FiniteGroup.from_table(rows, name=f"({A.name or '?'}o{B.name or '?'})")


def reference_family(m: int, family: Family) -> FiniteGroup:
    """``build_family`` from the reference dihedral, dicyclic and central products."""
    factors = [reference_dihedral(8) for _ in range(m)]
    if family is Family.GM2:
        factors[-1] = reference_dicyclic(8)
    result = reduce(reference_central_product, factors)
    if m == 1:
        return result
    return replace(result, name=f"G({m},{1 if family is Family.GM1 else 2})")


def relabel_rows(G: FiniteGroup, perm: list[int]) -> list[list[int]]:
    """G's table with element a renamed perm[a]."""
    rows = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            rows[perm[a]][perm[b]] = perm[G.table[a][b]]
    return rows


def gaussian_binomial(n: int, k: int, q: int = 2) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(n: int, q: int = 2) -> int:
    """Total number of subspaces of GF(q)^n, i.e. subgroups of Zq^n for q prime."""
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def element_order_multiset(G: FiniteGroup, elems) -> tuple[int, ...]:
    return tuple(sorted(element_order(G, g) for g in elems))


def join_every_cyclic_lattice(G: FiniteGroup, within: Subgroup | None = None) -> tuple[Subgroup, ...]:
    """Every subgroup of ``within`` (default: of G), ordered as ``all_subgroups``
    orders them: join each subgroup found with each cyclic subgroup of
    prime-power order, which together generate every subgroup, until no new
    one appears.  Valid for every finite group, solvable or not.

    Subgroups are keyed by bitmask.  Bit i of ``cyclic_bit[g]`` is set when g
    generates the i-th cyclic subgroup.  When a join has prime index over K
    no subgroup lies strictly between them, so joining K with any other
    cyclic subgroup of that join is skipped.
    """
    orders = element_orders(G)
    cyclic_gens: list[int] = []
    cyclic_bit = [0] * G.order
    for g in within.elements if within is not None else G.elements():
        if not cyclic_bit[g] and len(_prime_factors(orders[g])) == 1:
            for y in closure_elements(G, (g,)):
                if orders[y] == orders[g]:
                    cyclic_bit[y] = 1 << len(cyclic_gens)
            cyclic_gens.append(g)

    def cyclics_in(elems: bytes) -> int:
        bits = 0
        for y in elems:
            bits |= cyclic_bit[y]
        return bits

    subs: dict[int, Subgroup] = {1: generate(G, ())}
    queue = [1]
    for m in queue:
        K = subs[m]
        todo = (1 << len(cyclic_gens)) - 1 & ~cyclics_in(K.members)
        while todo:
            i = (todo & -todo).bit_length() - 1
            todo ^= 1 << i
            J = generate(G, (cyclic_gens[i],), K)
            index = len(J) // len(K)
            if _prime_factors(index) == [index]:
                todo &= ~cyclics_in(J.members)
            if J.mask not in subs:
                subs[J.mask] = J
                queue.append(J.mask)
    return tuple(subs[m] for m in sorted(subs, key=lambda m: (m.bit_count(), m)))


def element_order(G: FiniteGroup, g: int) -> int:
    """Least k >= 1 with g^k = identity, by repeated products in the table."""
    if not 0 <= g < G.order:
        raise ValueError(f"element index {g} out of range for order {G.order}")
    k, x = 1, g
    while x != 0:
        x = G.table[x][g]
        k += 1
    return k


def element_orders(G: FiniteGroup) -> tuple[int, ...]:
    """The order of every element of G, by index, from ``element_order``."""
    return tuple(element_order(G, g) for g in G.elements())


def squares(G: FiniteGroup) -> frozenset[int]:
    """Non-identity elements expressible as y^2 (the identity is excluded)."""
    t = G.table
    return frozenset(t[g][g] for g in G.elements()) - {0}


def omega1(G: FiniteGroup) -> frozenset[int]:
    """Elements of order at most 2 (identity included)."""
    return frozenset(g for g in G.elements() if G.table[g][g] == 0)


def mask_of(elems: Iterable[int]) -> int:
    """The bitmask of an element set: bit g set for each member g."""
    return sum(1 << g for g in frozenset(elems))


def as_subgroup(elems: Iterable[int], generators: tuple[int, ...] | None = None) -> Subgroup:
    """The ``Subgroup`` with these element indices, unchecked: the tests'
    one conversion from an element set to the library's bitmask and packed
    members.  Without ``generators`` it records all its members, sorted,
    which generate any subgroup."""
    members = frozenset(elems)
    if generators is None:
        generators = tuple(sorted(members))
    return Subgroup(mask_of(members), bytes(sorted(members)), generators)


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
    return as_subgroup(members)


def conjugate_subgroup(G: FiniteGroup, H: Subgroup, x: int) -> Subgroup:
    """The conjugate {x^-1 h x : h in H}."""
    if not 0 <= x < G.order:
        raise ValueError(f"element index {x} out of range for order {G.order}")
    return as_subgroup(conjugate(G, h, x) for h in H.elements)


def conjugate(G: FiniteGroup, g: int, x: int) -> int:
    """x^-1 g x."""
    t = G.table
    return t[t[G.inverse[x]][g]][x]


def commutator(G: FiniteGroup, x: int, y: int) -> int:
    """x^-1 y^-1 x y."""
    t = G.table
    return t[t[t[G.inverse[x]][G.inverse[y]]][x]][y]


def derived_subgroup(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """Subgroup generated by all commutators of H."""
    elems = sorted(H.elements)
    gens = {commutator(G, x, y) for x in elems for y in elems}
    return as_subgroup(closure_elements(G, gens))


def frattini_subgroup(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """Intersection of the maximal subgroups of H (H itself if none exist)."""
    subs = [S.elements for S in all_subgroups(G, H) if len(S) < len(H)]
    maximal = [
        S for S in subs if not any(S < T for T in subs if len(T) > len(S))
    ]
    if not maximal:
        return as_subgroup(H.elements)
    return as_subgroup(reduce(frozenset.__and__, maximal))


def extraspecial_by_definition(G: FiniteGroup, P: Subgroup) -> tuple[int, Family] | None:
    """(m, family) when the subgroup P of G is extraspecial of order
    2^(2m+1), else None.  Taken as a group of its own, P must have
    Z(P) = P' of order 2 and P/Z(P) elementary abelian (every square in
    Z(P)); its family is the one whose ``build_family(m, family)`` it is
    isomorphic to."""
    S = subgroup_as_group(G, P)[0]
    Z = brute_centralizer(S, S.elements())
    if len(Z) != 2 or derived_subgroup(S, full_subgroup(S)).elements != Z or not squares(S) <= Z:
        return None
    m = (S.order.bit_length() - 2) // 2
    return m, next(f for f in Family if isomorphic_small(S, build_family(m, f)) is not None)


@dataclass(frozen=True)
class AbelianInvariants:
    """Primary cyclic decomposition of a finite abelian group."""

    cyclic_factors: tuple[int, ...]


def abelian_invariants(G: FiniteGroup, H: Subgroup) -> AbelianInvariants:
    """Multiset of prime-power cyclic factors of an abelian subgroup.

    Recovered per prime from the counts of elements of order dividing p^j:
    for type (p^l1, ..., p^lk) that count is p^(sum min(li, j)), which pins
    down the partition (l1, ..., lk) uniquely.
    """
    if not is_abelian_subgroup(G, H):
        raise ValueError("abelian invariants are only defined for abelian subgroups")
    n = len(H)
    elems = sorted(H.elements)
    orders = {h: element_order(G, h) for h in elems}
    factors: list[int] = []
    for p in _prime_factors(n):
        p_part = 1
        m = n
        while m % p == 0:
            m //= p
            p_part *= p
        logs = [0]
        j = 1
        while True:
            pj = p**j
            count = sum(1 for h in elems if pj % orders[h] == 0)
            a_j = 0
            c = count
            while c > 1:
                c //= p
                a_j += 1
            logs.append(a_j)
            if count == p_part:
                break
            j += 1
        parts_at_least = [logs[j] - logs[j - 1] for j in range(1, len(logs))]
        parts_at_least.append(0)
        for size in range(1, len(parts_at_least)):
            for _ in range(parts_at_least[size - 1] - parts_at_least[size]):
                factors.append(p**size)
    return AbelianInvariants(cyclic_factors=tuple(sorted(factors)))


@dataclass(frozen=True)
class SymplecticForm:
    """Alternating non-degenerate bilinear form on the central quotient.

    ``matrix[i][j]`` is 1 exactly when the basis lifts i and j do not
    commute; ``basis_lifts`` are group elements whose images form a GF(2)
    basis of G/Z(G).
    """

    dimension: int
    matrix: tuple[tuple[int, ...], ...]
    basis_lifts: tuple[int, ...]


def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            rank += 1
    return rank


def symplectic_form(G: FiniteGroup) -> SymplecticForm:
    """Commutator form on G/Z(G) for an extraspecial G.

    Basis lifts are chosen greedily in element-index order (any basis works:
    only the rank and hyperbolic-pair detection are consumed).  The form is
    alternating by construction; non-degeneracy is verified by GF(2) rank.
    """
    cls = is_extraspecial(G)
    if not cls.is_extraspecial:
        raise ValueError("symplectic form is only defined for extraspecial 2-groups")
    basis = generate(G, (_central_involution(G), *G.elements())).generators[1:]
    dim = len(basis)
    t = G.table
    matrix = tuple(
        tuple(0 if t[x][y] == t[y][x] else 1 for y in basis) for x in basis
    )
    rows = [sum(bit << j for j, bit in enumerate(row)) for row in matrix]
    if _gf2_rank(rows) != dim:
        raise ValueError("degenerate commutator form: construction bug")
    return SymplecticForm(dimension=dim, matrix=matrix, basis_lifts=basis)


@per_group
def conjugacy_class_sizes(G: FiniteGroup) -> tuple[int, ...]:
    sizes = [0] * G.order
    seen = [False] * G.order
    for g in range(G.order):
        if seen[g]:
            continue
        cls = {conjugate(G, g, x) for x in G.elements()}
        for member in cls:
            seen[member] = True
            sizes[member] = len(cls)
    return tuple(sizes)


def _signatures(G: FiniteGroup) -> list[tuple[int, int]]:
    cls, orders = conjugacy_class_sizes(G), element_orders(G)
    return [(orders[g], cls[g]) for g in range(G.order)]


def _extend_homomorphism(
    A: FiniteGroup, B: FiniteGroup, gens: list[int], images: list[int]
) -> dict[int, int] | None:
    """Partial isomorphism on <gens> determined by the generator images.

    Returns None as soon as the images force a product clash or a collision
    (a non-injective map cannot extend to an isomorphism).
    """
    phi = {0: 0}
    used = {0}
    queue = [0]
    while queue:
        a = queue.pop()
        for g, h in zip(gens, images):
            b = A.table[a][g]
            target = B.table[phi[a]][h]
            known = phi.get(b)
            if known is not None:
                if known != target:
                    return None
            else:
                if target in used:
                    return None
                phi[b] = target
                used.add(target)
                queue.append(b)
    return phi


def _is_isomorphism(A: FiniteGroup, B: FiniteGroup, mapping: list[int]) -> bool:
    if sorted(mapping) != list(range(A.order)):
        return False
    ta, tb = A.table, B.table
    return all(
        mapping[ta[a][b]] == tb[mapping[a]][mapping[b]]
        for a in range(A.order)
        for b in range(A.order)
    )


def isomorphic_small(
    A: FiniteGroup, B: FiniteGroup, *, max_order: int = DEFAULT_ISOMORPHISM_CAP
) -> list[int] | None:
    """A product-preserving bijection A -> B as an index map, or None.

    Backtracks over generator images, pruning candidates by the
    (element order, conjugacy-class size) signature and by incremental
    consistency of the induced partial map.
    """
    if A.order != B.order:
        return None
    if A.order > max_order:
        raise ValueError(
            f"isomorphism search supports order <= {max_order}, got {A.order}"
        )
    if A.order == 1:
        return [0]
    orders_a = element_orders(A)
    if sorted(orders_a) != sorted(element_orders(B)):
        return None
    sig_a = _signatures(A)
    sig_b = _signatures(B)
    if Counter(sig_a) != Counter(sig_b):
        return None
    buckets: dict[tuple[int, int], list[int]] = {}
    for h, s in enumerate(sig_b):
        buckets.setdefault(s, []).append(h)
    sizes = Counter(sig_b)
    gens = generate(
        A, sorted(A.elements(), key=lambda g: (sizes[sig_a[g]], -orders_a[g], g))
    ).generators

    def search(images: list[int]) -> list[int] | None:
        k = len(images)
        for h in buckets[sig_a[gens[k]]]:
            phi = _extend_homomorphism(A, B, gens[: k + 1], images + [h])
            if phi is None:
                continue
            if k + 1 == len(gens):
                mapping = [phi[i] for i in range(A.order)]
                if _is_isomorphism(A, B, mapping):
                    return mapping
                continue
            found = search(images + [h])
            if found is not None:
                return found
        return None

    return search([])
