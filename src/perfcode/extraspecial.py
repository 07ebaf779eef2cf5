"""Extraspecial 2-groups: central products, the two families, and
closed-form perfect-code classification for extraspecial groups and for
groups whose Sylow 2-subgroup is extraspecial."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import reduce
from operator import itemgetter

from .codes import CodeVerdict, Criterion
from .construct import dihedral, product_rows, quaternion8
from .group import FiniteGroup, Subgroup, _lookups, check_order, full_subgroup, per_group
from .subgroups import (
    center,
    is_abelian_subgroup,
    is_normal,
    normalizer,
    sylow_2_subgroup,
    two_part,
)


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


def _central_involution(G: FiniteGroup) -> int:
    Z = center(G, full_subgroup(G))
    invol = [g for g in Z if g != 0 and G.table[g][g] == 0]
    if len(invol) != 1:
        raise ValueError(
            f"group {G.name or '?'} has {len(invol)} central involutions, need exactly 1"
        )
    return invol[0]


def central_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    """Quotient of A x B identifying the unique central involutions.

    The images of A and B commute elementwise and meet in the identified
    centre, so the result has order |A||B|/2.
    """
    za = _central_involution(A)
    zb = _central_involution(B)
    nb = B.order
    check_order(A.order * nb // 2)
    row_of = product_rows(A, B)
    label, reps = [-1] * (A.order * nb), []
    for i, j in enumerate(row_of(za * nb + zb)):
        if label[i] < 0:
            label[i] = label[j] = len(reps)
            reps.append(i)
    pick = itemgetter(*reps)
    rows = [list(map(label.__getitem__, pick(row_of(r)))) for r in reps]
    return FiniteGroup.from_table(rows, name=f"({A.name or '?'}o{B.name or '?'})")


def build_family(m: int, family: Family) -> FiniteGroup:
    """The extraspecial group of order 2^(2m+1) in the requested family.

    GM1 is the left-associated central product of m copies of the dihedral
    group of order 8; GM2 replaces the last factor with the quaternion group.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    check_order(2 ** (2 * m + 1))
    family = Family(family)
    factors = [dihedral(8) for _ in range(m)]
    if family is Family.GM2:
        factors[-1] = quaternion8()
    result = reduce(central_product, factors)
    if m == 1:
        return result
    return replace(result, name=f"G({m},{1 if family is Family.GM1 else 2})")


def is_extraspecial(G: FiniteGroup, P: Subgroup | None = None) -> ExtraspecialClassification:
    """Classify the 2-subgroup P of G (default: G) in G's own table: P has
    order 2^(2m+1) >= 8 and a centre of order 2 holding every square of P.

    The family is read off the count of elements of P of order at most 2
    (P's members less G's stored {g : g^2 != 1}): 4^m + 2^m for GM1 and
    4^m - 2^m for GM2, by the Arf invariant of the squaring form on P/Z(P).
    Every extraspecial group of order 2^(2m+1) lies in one of the two
    families, so any other count is a bug.  Subgroups are keyed by their masks, so every spelling of a P
    equal to G shares one stored classification.
    """
    return _is_extraspecial(G, full_subgroup(G) if P is None else P)


@per_group
def _is_extraspecial(G: FiniteGroup, P: Subgroup) -> ExtraspecialClassification:
    n = len(P)
    if n < 8 or n & (n - 1):
        return ExtraspecialClassification(False)
    Z = center(G, P)
    if len(Z) != 2:
        return ExtraspecialClassification(False)
    t = G.table
    if any(t[g][g] not in Z for g in P):
        return ExtraspecialClassification(False)
    exponent = n.bit_length() - 1
    if exponent % 2 == 0:
        raise RuntimeError("central quotient of an extraspecial group has even rank")
    m = (exponent - 1) // 2
    count = len(P.members.translate(None, _lookups(G)[2]))
    if count == 4**m + 2**m:
        family = Family.GM1
    elif count == 4**m - 2**m:
        family = Family.GM2
    else:
        raise RuntimeError(f"group {G.name or '?'} matches neither family at m={m}")
    return ExtraspecialClassification(True, m=m, family=family)


def sylow_2_classification(G: FiniteGroup) -> ExtraspecialClassification:
    """``is_extraspecial`` of G's stored Sylow 2-subgroup, stored under that subgroup."""
    return is_extraspecial(G, sylow_2_subgroup(G, full_subgroup(G)))


def classify_extraspecial(G: FiniteGroup, H: Subgroup) -> CodeVerdict:
    """Closed-form perfect-code decision for a subgroup of an extraspecial G.

    H is a perfect code exactly when it is trivial, non-abelian, abelian but
    not normal, or a maximal abelian subgroup of a GM1-family group.  (The
    trivial subgroup is always a code: the whole group is an inverse-closed
    transversal.)  A normal H != 1 contains Z(G), and the abelian subgroups
    over Z(G) are the totally isotropic subspaces of G/Z(G) = F_2^(2m), the
    maximal ones of dimension m: so |H|^2 = 2|G| decides the last clause.
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
    if len(H) ** 2 == 2 * G.order and cls.family is Family.GM1:
        return CodeVerdict(True, Criterion.EXTRASPECIAL)
    return CodeVerdict(False, Criterion.EXTRASPECIAL)


def classify_sylow_extraspecial(G: FiniteGroup, H: Subgroup) -> CodeVerdict:
    """Closed-form decision when the Sylow 2-subgroup of G is extraspecial.

    H is a perfect code exactly when |H| is odd, or its Sylow 2-part H2 is
    non-abelian, or H2 is abelian with the 2-part of |N_G(H2)| smaller than
    the Sylow order |G2|, or H2 is abelian of the maximal-abelian size
    (|H2|^2 = 2|G2|) in a GM1-family Sylow subgroup.
    """
    cls = sylow_2_classification(G)
    if not cls.is_extraspecial:
        raise ValueError("classification requires an extraspecial Sylow 2-subgroup")
    if len(H) % 2 == 1:
        return CodeVerdict(True, Criterion.SYLOW_EXTRASPECIAL)
    H2 = sylow_2_subgroup(G, H)
    sylow_order = two_part(G.order)
    code = (
        not is_abelian_subgroup(G, H2)
        or two_part(len(normalizer(G, H2))) < sylow_order
        or (len(H2) ** 2 == 2 * sylow_order and cls.family is Family.GM1)
    )
    return CodeVerdict(code, Criterion.SYLOW_EXTRASPECIAL)
