"""Independent brute-force oracles used to freeze expected values, and
structure helpers that only the tests use.

The oracles deliberately avoid the library's own algorithms: subgroups come
from exhaustive subset scans, transversals from cartesian products over
cosets, associativity from every triple, and counts from closed formulas, so
a bug in the fast path cannot hide in the oracle as well.

The helpers below them (commutators, derived and Frattini subgroups, abelian
invariants, conjugacy class sizes and the small-order isomorphism search) are
not oracles in that sense: ``derived_subgroup`` calls ``closure_elements``,
``frattini_subgroup`` calls ``all_subgroups``, ``isomorphic_small`` calls
``generate``, and ``abelian_invariants`` calls ``is_abelian_subgroup``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import product

from perfcode.group import (
    FiniteGroup,
    Subgroup,
    closure_elements,
    generate,
    per_group,
)
from perfcode.subgroups import _prime_factors, all_subgroups, is_abelian_subgroup

DEFAULT_ISOMORPHISM_CAP = 64


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


def is_associative(rows) -> bool:
    """(xy)z = x(yz) for every triple, checked one by one in O(n^3)."""
    n = len(rows)
    return all(
        rows[rows[x][y]][z] == rows[x][rows[y][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


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
    return tuple(sorted(G.element_orders[g] for g in elems))


def commutator(G: FiniteGroup, x: int, y: int) -> int:
    """x^-1 y^-1 x y."""
    t = G.table
    return t[t[t[G.inverse[x]][G.inverse[y]]][x]][y]


def derived_subgroup(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """Subgroup generated by all commutators of H."""
    elems = sorted(H.elements)
    gens = {commutator(G, x, y) for x in elems for y in elems}
    return Subgroup(closure_elements(G, gens))


def frattini_subgroup(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """Intersection of the maximal subgroups of H (H itself if none exist)."""
    subs = [S.elements for S in all_subgroups(G, H) if len(S) < len(H)]
    maximal = [
        S for S in subs if not any(S < T for T in subs if len(T) > len(S))
    ]
    if not maximal:
        return Subgroup(H.elements)
    return Subgroup(reduce(frozenset.__and__, maximal))


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
            count = sum(1 for h in elems if G.power(h, pj) == 0)
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


@per_group
def conjugacy_class_sizes(G: FiniteGroup) -> tuple[int, ...]:
    sizes = [0] * G.order
    seen = [False] * G.order
    for g in range(G.order):
        if seen[g]:
            continue
        cls = {G.conjugate(g, x) for x in G.elements()}
        for member in cls:
            seen[member] = True
            sizes[member] = len(cls)
    return tuple(sizes)


def _signatures(G: FiniteGroup) -> list[tuple[int, int]]:
    cls = conjugacy_class_sizes(G)
    return [(G.element_orders[g], cls[g]) for g in range(G.order)]


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
    if sorted(A.element_orders) != sorted(B.element_orders):
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
        A, sorted(A.elements(), key=lambda g: (sizes[sig_a[g]], -A.element_orders[g], g))
    )[1]

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
