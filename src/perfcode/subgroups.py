"""Subgroup enumeration and structure operators: Sylow 2-subgroups,
normalizers, centralizers, centers, cosets and least conjugates.

The operators test a generating set of each subgroup, not its members:
its recorded ``generators``, or else a greedy one stored per group."""

from __future__ import annotations

from dataclasses import dataclass

from .group import (
    FiniteGroup,
    Subgroup,
    bitmask,
    closure_elements,
    generate,
    join_element,
    per_group,
    trivial_subgroup,
)

DEFAULT_ENUMERATION_CAP = 128


def two_part(n: int) -> int:
    """Largest power of 2 dividing n."""
    t = 1
    while n % 2 == 0:
        n //= 2
        t *= 2
    return t


def all_subgroups(
    G: FiniteGroup,
    within: Subgroup | None = None,
    max_order: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[Subgroup, ...]:
    """Every subgroup of ``within`` (default: of G), each exactly once and
    with its generators recorded, ordered by cardinality then bitmask: the
    trivial subgroup comes first and the whole of ``within`` last.  The
    lattice is stored once per (G, within); ``max_order`` only caps it."""
    size = len(within) if within is not None else G.order
    if size > max_order:
        raise ValueError(f"subgroup enumeration supports order <= {max_order}, got {size}")
    return _lattice(G, within)


@per_group
def _lattice(G: FiniteGroup, within: Subgroup | None) -> tuple[Subgroup, ...]:
    """Join each subgroup found with each cyclic subgroup of prime-power
    order, which together generate every subgroup, until no new one appears.

    Subgroups are keyed by bitmask.  Bit i of ``cyclic_bit[g]`` is set when g
    generates the i-th cyclic subgroup.  When a join has prime index over K
    no subgroup lies strictly between them, so joining K with any other
    cyclic subgroup of that join is skipped.
    """
    orders = G.element_orders
    cyclic_gens: list[int] = []
    cyclic_bit = [0] * G.order
    for g in within.elements if within is not None else G.elements():
        if not cyclic_bit[g] and len(_prime_factors(orders[g])) == 1:
            for y in closure_elements(G, (g,)):
                if orders[y] == orders[g]:
                    cyclic_bit[y] = 1 << len(cyclic_gens)
            cyclic_gens.append(g)

    def cyclics_in(elems: list[int]) -> int:
        bits = 0
        for y in elems:
            bits |= cyclic_bit[y]
        return bits

    subs: dict[int, tuple[list[int], tuple[int, ...]]] = {1: ([0], ())}
    queue = [1]
    for m in queue:
        elems, gens = subs[m]
        todo = (1 << len(cyclic_gens)) - 1 & ~cyclics_in(elems)
        while todo:
            i = (todo & -todo).bit_length() - 1
            todo ^= 1 << i
            jm, joined = join_element(G, m, elems, gens, cyclic_gens[i])
            index = len(joined) // len(elems)
            if _prime_factors(index) == [index]:
                todo &= ~cyclics_in(joined)
            if jm not in subs:
                subs[jm] = (joined, gens + (cyclic_gens[i],))
                queue.append(jm)
    return tuple(
        Subgroup(frozenset(subs[m][0]), generators=subs[m][1])
        for m in sorted(subs, key=lambda m: (m.bit_count(), m))
    )


@per_group
def _generators(G: FiniteGroup, H: Subgroup | None = None) -> tuple[int, ...]:
    """H's recorded generators, or else the greedy span ``generate`` picks
    from its members in index order; H=None means G."""
    if H is not None and H.generators is not None:
        return H.generators
    return generate(G, G.elements() if H is None else sorted(H.elements))[1]


def _normalizes(G: FiniteGroup, K: Subgroup):
    """The test of g for K^g = K.  Conjugation by g maps K onto a subgroup
    of the same order, so it is enough that it maps K's generators into K."""
    t, inv = G.table, G.inverse
    members = K.elements
    gens = _generators(G, K)
    return lambda g: all(t[t[inv[g]][k]][g] in members for k in gens)


def is_abelian_subgroup(G: FiniteGroup, H: Subgroup) -> bool:
    t = G.table
    gens = _generators(G, H)
    return all(t[a][b] == t[b][a] for i, a in enumerate(gens) for b in gens[:i])


def is_normal(G: FiniteGroup, H: Subgroup, within: Subgroup | None = None) -> bool:
    """H^g = H for every g of the ambient subgroup (default: G), tested on
    that subgroup's generators."""
    return all(map(_normalizes(G, H), _generators(G, within)))


@per_group
def normalizer(G: FiniteGroup, K: Subgroup) -> Subgroup:
    """{g : K^g = K}."""
    return Subgroup(frozenset(filter(_normalizes(G, K), G.elements())))


@per_group
def centralizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """{g : gh = hg for all h in H}; g is tested on H's generators."""
    t = G.table
    gens = _generators(G, H)
    return Subgroup(frozenset(g for g in G.elements() if all(t[g][h] == t[h][g] for h in gens)))


def center(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """{h in H : hx = xh for all x in H}."""
    return Subgroup(centralizer(G, H).elements & H.elements)


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
    return Subgroup(_least_conjugate(G, current, _generators(G, H)))


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
    each adjoining the least g of ``within`` (default: G) that lies outside
    it, squares into it and normalizes it (by Sylow's theorem one exists
    while current is below the 2-part of that ambient group).  The cheap
    tests go first, and no normalizer is built."""
    t = G.table
    domain = sorted(within.elements) if within is not None else G.elements()
    while len(current) < target:
        normalizes = _normalizes(G, Subgroup(current))
        x = next(
            g for g in domain if g not in current and t[g][g] in current and normalizes(g)
        )
        current = current | frozenset(t[q][x] for q in current)
    return current


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
    return Subgroup(_least_conjugate(G, H.elements, _generators(G)))


def _least_conjugate(
    G: FiniteGroup, members: frozenset[int], gens: tuple[int, ...]
) -> frozenset[int]:
    """The least-bitmask conjugate of ``members`` by the group ``gens``
    generate.  The orbit under conjugation by the generators alone is the
    whole orbit under that group, so it is walked breadth-first."""
    t, inv = G.table, G.inverse
    orbit = {bitmask(members): members}
    frontier = [members]
    for current in frontier:
        for x in gens:
            row = t[inv[x]]
            image = [t[row[h]][x] for h in current]
            key = bitmask(image)
            if key not in orbit:
                orbit[key] = image
                frontier.append(image)
    return frozenset(orbit[min(orbit)])
