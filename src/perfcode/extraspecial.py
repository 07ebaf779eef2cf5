"""Extraspecial 2-groups: central products, the GF(2) symplectic structure
on the central quotient, and closed-form perfect-code classification for
extraspecial groups and for groups whose Sylow 2-subgroup is extraspecial."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce

from .codes import CodeVerdict, Criterion
from .construct import dihedral, quaternion8
from .group import (
    FiniteGroup,
    Subgroup,
    closure_elements,
    full_subgroup,
    omega1,
    order_cap,
    per_group,
    subgroup_as_group,
)
from .subgroups import (
    center,
    is_abelian_subgroup,
    is_maximal_abelian,
    is_normal,
    isomorphic_small,
    normalizer,
    sylow_2_subgroup,
    two_part,
)

logger = logging.getLogger(__name__)


class Family(str, Enum):
    """The two isomorphism families of extraspecial 2-groups of order 2^(2m+1):
    GM1 is the central product of m dihedral factors of order 8, GM2 swaps one
    factor for the quaternion group."""

    GM1 = "gm1"
    GM2 = "gm2"


@dataclass(frozen=True)
class ExtraspecialClassification:
    is_extraspecial: bool
    m: int | None = None
    family: Family | None = None


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


def _central_involution(G: FiniteGroup) -> int:
    Z = center(G, full_subgroup(G))
    invol = [g for g in Z.elements if g != 0 and G.table[g][g] == 0]
    if len(invol) != 1:
        raise ValueError(
            f"group {G.name or '?'} has {len(invol)} central involutions, need exactly 1"
        )
    return invol[0]


def central_product(A: FiniteGroup, B: FiniteGroup, *, name: str | None = None) -> FiniteGroup:
    """Quotient of A x B identifying the unique central involutions.

    The images of A and B commute elementwise and meet in the identified
    centre, so the result has order |A||B|/2.
    """
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
    label = name or f"({A.name or '?'}o{B.name or '?'})"
    return FiniteGroup.from_table(rows, name=label)


def build_family(m: int, family: Family) -> FiniteGroup:
    """The extraspecial group of order 2^(2m+1) in the requested family.

    GM1 is the left-associated central product of m copies of the dihedral
    group of order 8; GM2 replaces the last factor with the quaternion group.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if 2 ** (2 * m + 1) > order_cap():
        raise ValueError(
            f"order 2^{2 * m + 1} exceeds the configured cap {order_cap()}"
        )
    family = Family(family)
    factors = [dihedral(8) for _ in range(m)]
    if family is Family.GM2:
        factors[-1] = quaternion8()
    result = reduce(central_product, factors)
    if m == 1:
        return result
    label = f"G({m},{1 if family is Family.GM1 else 2})"
    return FiniteGroup.from_table([list(r) for r in result.table], name=label)


@lru_cache(maxsize=None)
def _family_involution_counts(m: int) -> dict[int, Family]:
    """Count of order-(<=2) elements per family, computed from the constructions."""
    counts = {
        len(omega1(build_family(m, Family.GM1))): Family.GM1,
        len(omega1(build_family(m, Family.GM2))): Family.GM2,
    }
    if len(counts) != 2:
        raise RuntimeError(f"involution counts do not separate the families at m={m}")
    return counts


@per_group
def is_extraspecial(G: FiniteGroup) -> ExtraspecialClassification:
    """Classify G: centre of order 2 with every square central, in a 2-group.

    The family is read off the count of elements of order at most 2 (the two
    families differ at every m); an isomorphism search is the authoritative
    fallback should the count ever fail to match.
    """
    n = G.order
    if n < 8 or n & (n - 1):
        return ExtraspecialClassification(False)
    Z = center(G, full_subgroup(G))
    if len(Z) != 2:
        return ExtraspecialClassification(False)
    central = Z.elements
    t = G.table
    if any(t[g][g] not in central for g in G.elements()):
        return ExtraspecialClassification(False)
    exponent = n.bit_length() - 1
    if exponent % 2 == 0:
        raise RuntimeError("central quotient of an extraspecial group has even rank")
    m = (exponent - 1) // 2
    counts = _family_involution_counts(m)
    count = len(omega1(G))
    family = counts.get(count)
    if family is None:
        if isomorphic_small(G, build_family(m, Family.GM1)) is not None:
            family = Family.GM1
        elif isomorphic_small(G, build_family(m, Family.GM2)) is not None:
            family = Family.GM2
        else:
            raise RuntimeError(f"group {G.name or '?'} matches neither family at m={m}")
    return ExtraspecialClassification(True, m=m, family=family)


@per_group
def sylow_2_classification(G: FiniteGroup) -> ExtraspecialClassification:
    """``is_extraspecial`` of the Sylow 2-subgroup of G, taken as a group."""
    sylow_group, _ = subgroup_as_group(G, sylow_2_subgroup(G, full_subgroup(G)))
    return is_extraspecial(sylow_group)


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
    c = _central_involution(G)
    basis: list[int] = []
    span = frozenset({0, c})
    for g in G.elements():
        if g not in span:
            basis.append(g)
            span = closure_elements(G, tuple(basis) + (c,))
    dim = len(basis)
    t = G.table
    matrix = tuple(
        tuple(0 if t[x][y] == t[y][x] else 1 for y in basis) for x in basis
    )
    rows = [sum(bit << j for j, bit in enumerate(row)) for row in matrix]
    if _gf2_rank(rows) != dim:
        raise ValueError("degenerate commutator form: construction bug")
    return SymplecticForm(dimension=dim, matrix=matrix, basis_lifts=tuple(basis))


def classify_extraspecial(G: FiniteGroup, H: Subgroup) -> CodeVerdict:
    """Closed-form perfect-code decision for a subgroup of an extraspecial G.

    H is a perfect code exactly when it is trivial, non-abelian, abelian but
    not normal, or a maximal abelian subgroup of a GM1-family group.  (The
    trivial subgroup is always a code: the whole group is an inverse-closed
    transversal.)
    """
    cls = is_extraspecial(G)
    if not cls.is_extraspecial:
        raise ValueError("classification requires an extraspecial 2-group")
    if len(H) == 1:
        return CodeVerdict(True, Criterion.EXTRASPECIAL)
    if not is_abelian_subgroup(G, H):
        return CodeVerdict(True, Criterion.EXTRASPECIAL)
    if not is_normal(G, H):
        return CodeVerdict(True, Criterion.EXTRASPECIAL)
    if is_maximal_abelian(G, H) and cls.family is Family.GM1:
        return CodeVerdict(True, Criterion.EXTRASPECIAL)
    return CodeVerdict(False, Criterion.EXTRASPECIAL)


def classify_sylow_extraspecial(G: FiniteGroup, H: Subgroup) -> CodeVerdict:
    """Closed-form decision when the Sylow 2-subgroup of G is extraspecial.

    H is a perfect code exactly when |H| is odd, or its Sylow 2-part H2 is
    non-abelian, or H2 is abelian with the 2-part of |N_G(H2)| smaller than
    the Sylow order, or H2 is abelian of the maximal-abelian size
    (|H2|^2 = 2|G2|) in a GM1-family Sylow subgroup.
    """
    cls = sylow_2_classification(G)
    if not cls.is_extraspecial:
        raise ValueError("classification requires an extraspecial Sylow 2-subgroup")
    G2 = sylow_2_subgroup(G, full_subgroup(G))
    if len(H) % 2 == 1:
        return CodeVerdict(True, Criterion.SYLOW_EXTRASPECIAL)
    H2 = sylow_2_subgroup(G, H)
    non_abelian = not is_abelian_subgroup(G, H2)
    small_normalizer = (not non_abelian) and two_part(
        len(normalizer(G, H2))
    ) < len(G2)
    maximal_size = (
        (not non_abelian)
        and len(H2) ** 2 == 2 * len(G2)
        and cls.family is Family.GM1
    )
    matches = [non_abelian, small_normalizer, maximal_size]
    if sum(matches) > 1:
        logger.debug(
            "multiple classification cases match for %s / %s: %s",
            G.name,
            H.indices(),
            matches,
        )
    return CodeVerdict(any(matches), Criterion.SYLOW_EXTRASPECIAL)
