"""Subgroup enumeration and structure operators: Sylow 2-subgroups,
normalizers, centers, derived and Frattini subgroups, cosets, abelian
invariants, and small-order isomorphism testing."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce

from .group import (
    FiniteGroup,
    Subgroup,
    bitmask,
    closure_elements,
    commutator,
    per_group,
    trivial_subgroup,
)

DEFAULT_ENUMERATION_CAP = 128
DEFAULT_ISOMORPHISM_CAP = 64


def two_part(n: int) -> int:
    """Largest power of 2 dividing n."""
    t = 1
    while n % 2 == 0:
        n //= 2
        t *= 2
    return t


@per_group
def all_subgroups(
    G: FiniteGroup,
    within: Subgroup | None = None,
    max_order: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[Subgroup, ...]:
    """Every subgroup of ``within`` (default: of G), each exactly once.

    Starts from the cyclic subgroups and repeatedly joins them until no new
    subgroup appears; results are ordered by cardinality then bitmask, so the
    trivial subgroup comes first and the full group last.
    """
    domain = within.elements if within is not None else frozenset(range(G.order))
    if len(domain) > max_order:
        raise ValueError(
            f"subgroup enumeration supports order <= {max_order}, got {len(domain)}"
        )
    cyclics = {closure_elements(G, (g,)) for g in domain}
    subs = set(cyclics)
    subs.add(frozenset({0}))
    frontier = list(subs)
    while frontier:
        fresh = []
        for current in frontier:
            for cyc in cyclics:
                if cyc <= current:
                    continue
                joined = closure_elements(G, current | cyc)
                if joined not in subs:
                    subs.add(joined)
                    fresh.append(joined)
        frontier = fresh
    ordered = sorted(subs, key=lambda s: (len(s), bitmask(s)))
    return tuple(Subgroup(s) for s in ordered)


def is_abelian_subgroup(G: FiniteGroup, H: Subgroup) -> bool:
    t = G.table
    elems = sorted(H.elements)
    return all(
        t[a][b] == t[b][a] for i, a in enumerate(elems) for b in elems[:i]
    )


def is_normal(G: FiniteGroup, H: Subgroup, within: Subgroup | None = None) -> bool:
    domain = within.elements if within is not None else G.elements()
    members = H.elements
    return all(G.conjugate(h, g) in members for g in domain for h in members)


@per_group
def normalizer(
    G: FiniteGroup, K: Subgroup, within: Subgroup | None = None
) -> Subgroup:
    """{g : K^g = K}, optionally restricted to an ambient subgroup."""
    domain = within.elements if within is not None else G.elements()
    members = K.elements
    result = frozenset(
        g for g in domain if all(G.conjugate(k, g) in members for k in members)
    )
    return Subgroup(result)


@per_group
def centralizer(
    G: FiniteGroup, H: Subgroup, within: Subgroup | None = None
) -> Subgroup:
    """{g : gh = hg for all h in H}, optionally restricted to an ambient subgroup."""
    domain = within.elements if within is not None else G.elements()
    t = G.table
    members = H.elements
    result = frozenset(
        g for g in domain if all(t[g][h] == t[h][g] for h in members)
    )
    return Subgroup(result)


def center(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """{h in H : hx = xh for all x in H}."""
    return centralizer(G, H, within=H)


@per_group
def sylow_2_subgroup(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """A Sylow 2-subgroup of H, deterministically chosen.

    One Sylow 2-subgroup is grown from the trivial subgroup inside H (see
    ``_grow_2_subgroup``); among its H-conjugates (all Sylow 2-subgroups of
    H, by Sylow's theorem) the one with least bitmask is returned.
    """
    target = two_part(len(H))
    if target == 1:
        return trivial_subgroup()
    current = _grow_2_subgroup(G, frozenset({0}), target, H)
    return Subgroup(_least_conjugate(G, current, H.elements))


def sylow_2_overgroup(G: FiniteGroup, Q: Subgroup) -> Subgroup:
    """The Sylow 2-subgroup of G grown from the 2-subgroup Q by ``_grow_2_subgroup``."""
    size = len(Q)
    if size & (size - 1):
        raise ValueError("starting subgroup must be a 2-group")
    return Subgroup(_grow_2_subgroup(G, Q.elements, two_part(G.order), None))


def _grow_2_subgroup(
    G: FiniteGroup, current: frozenset[int], target: int, within: Subgroup | None
) -> frozenset[int]:
    """Grow the 2-subgroup ``current`` to order ``target`` by index-2 steps,
    each adjoining the least g of its normalizer in ``within`` (default: G)
    that lies outside it and squares into it (by Sylow's theorem one exists
    while current is below the 2-part of that ambient group)."""
    t = G.table
    while len(current) < target:
        norm = normalizer(G, Subgroup(current), within).elements
        x = min(g for g in norm if g not in current and t[g][g] in current)
        current = current | frozenset(t[q][x] for q in current)
    return current


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


@dataclass(frozen=True, eq=False)
class CosetDecomposition:
    """Right cosets Hg with least-element representatives, identity first."""

    subgroup: Subgroup
    representatives: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    _position: dict[int, int]

    def coset_of(self, g: int) -> int:
        """Index (into ``representatives``) of the coset containing g."""
        return self._position[g]

    def members(self, i: int) -> tuple[int, ...]:
        return self.blocks[i]


@per_group
def coset_decomposition(
    G: FiniteGroup, H: Subgroup, within: Subgroup | None = None
) -> CosetDecomposition:
    """Right-coset decomposition of the ambient set (default: all of G) by H."""
    domain = sorted(within.elements) if within is not None else range(G.order)
    t = G.table
    helems = sorted(H.elements)
    position: dict[int, int] = {}
    reps: list[int] = []
    blocks: list[tuple[int, ...]] = []
    for g in domain:
        if g in position:
            continue
        block = sorted(t[h][g] for h in helems)
        idx = len(reps)
        reps.append(g)
        blocks.append(tuple(block))
        for member in block:
            position[member] = idx
    return CosetDecomposition(
        subgroup=H,
        representatives=tuple(reps),
        blocks=tuple(blocks),
        _position=position,
    )


@dataclass(frozen=True)
class AbelianInvariants:
    """Primary cyclic decomposition of a finite abelian group."""

    cyclic_factors: tuple[int, ...]


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


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


def is_maximal_abelian(G: FiniteGroup, H: Subgroup) -> bool:
    """True iff H is abelian and no strictly larger abelian subgroup contains it.

    Any element commuting with all of an abelian H extends it to a larger
    abelian subgroup, so the test is exactly C_G(H) = H.
    """
    if not is_abelian_subgroup(G, H):
        return False
    return centralizer(G, H).elements == H.elements


def minimal_conjugate(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """The least-bitmask member of the conjugacy class of H."""
    return Subgroup(_least_conjugate(G, H.elements, G.elements()))


def _least_conjugate(G: FiniteGroup, members: frozenset[int], domain) -> frozenset[int]:
    """The least-bitmask conjugate of ``members`` by an element of ``domain``."""
    return min(
        (frozenset(G.conjugate(h, x) for h in members) for x in domain), key=bitmask
    )


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


def _generating_sequence(
    A: FiniteGroup, sig: list[tuple[int, int]], bucket_sizes: Counter
) -> list[int]:
    gens: list[int] = []
    cl = frozenset({0})
    while len(cl) < A.order:
        candidate = min(
            (g for g in range(A.order) if g not in cl),
            key=lambda g: (bucket_sizes[sig[g]], -A.element_orders[g], g),
        )
        gens.append(candidate)
        cl = closure_elements(A, gens)
    return gens


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
    gens = _generating_sequence(A, sig_a, Counter(sig_b))

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
