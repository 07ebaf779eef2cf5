"""Decision procedures for subgroup perfect codes in Cayley graphs.

A subgroup H of G is a perfect code when some Cayley graph Cay(G, S) admits
H as a perfect code (an independent set with every vertex at distance at
most 1 from exactly one code word).  The procedures here are the known
equivalent criteria: explicit graph verification, inverse-closed transversal
search, two coset conditions quantified over elements x with odd
|H : H meet H^x|, the involution-coset comparison inside the normalizer,
and the subgroup chain on which the Sylow 2-subgroup reduction states them.
They must all agree; the cross-check harness treats any disagreement as an
implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from operator import add, truth
from typing import Collection, Iterable

from .group import _INDICES, FiniteGroup, Subgroup, _indices, _lookup, _lookups, _zeros
from .subgroups import (
    coset_decomposition,
    is_normal,
    normalizer,
    sylow_2_subgroup,
)

GRAPH_SEARCH_CAP = 16


class Criterion(str, Enum):
    """Which decision procedure produced a verdict."""

    SQUARE_COSET = "square-coset"
    DOUBLE_COSET = "double-coset"
    OMEGA_QUOTIENT = "omega-quotient"
    EXTRASPECIAL = "extraspecial-classification"
    SYLOW_EXTRASPECIAL = "sylow-extraspecial-classification"
    ODD_ORDER = "odd-order"


def _as_elements(G: FiniteGroup, elements: Subgroup | Iterable[int]) -> Collection[int]:
    """A subgroup's packed members, or else the set of ``elements``, each
    checked by ``group._indices``."""
    if isinstance(elements, Subgroup):
        return elements.members
    return frozenset(_indices(G, elements, "element list"))


def connection_set(G: FiniteGroup, elements: Iterable[int]) -> frozenset[int]:
    """Validated connection set (a Cayley graph): no identity, closed under
    inversion."""
    members = frozenset(_as_elements(G, elements))
    if 0 in members:
        raise ValueError("connection set must not contain the identity")
    if not members.issuperset(map(G.inverse.__getitem__, members)):
        raise ValueError("connection set must be inverse-closed")
    return members


@dataclass(frozen=True)
class CodeVerdict:
    """Outcome of one decision procedure.

    ``witness`` carries a constructive certificate for positive verdicts
    when one was produced: an inverse-closed right transversal, its
    representatives in canonical coset order;
    ``counterexample`` is the least failing element for negative verdicts of
    the element-scanning criteria.
    """

    is_perfect_code: bool
    criterion: Criterion
    witness: tuple[int, ...] | None = None
    counterexample: int | None = None


def verdict_to_json(G: FiniteGroup, H: Subgroup, verdict: CodeVerdict) -> dict:
    """Verdict in the JSON report shape."""
    doc: dict = {
        "group": G.name or "",
        "subgroup": H.indices(),
        "is_perfect_code": verdict.is_perfect_code,
        "criterion": verdict.criterion.value,
    }
    if verdict.witness is not None:
        doc["witness"] = list(verdict.witness)
    if verdict.counterexample is not None:
        doc["counterexample"] = verdict.counterexample
    return doc


def is_perfect_code_in_cayley_graph(
    G: FiniteGroup, S: Iterable[int], C: Subgroup | Iterable[int]
) -> bool:
    """Graph-level check that C is a perfect code of Cay(G, S), by the
    definition: the closed neighbourhoods {c} u Sc, c in C, partition G.

    x and y are adjacent iff y x^-1 lies in S, so the neighbours of c are
    Sc.  The |C| (|S| + 1) products must then cover all |G| elements: the
    shorter of C and {1} u S is walked, each of its members translating the
    other through its column (s c for every s) or its row (s c for every c).
    """
    conn = connection_set(G, S)
    code = _as_elements(G, C)
    n = G.order
    if len(code) * (len(conn) + 1) != n:
        return False
    flat, closed, words = G.packed, bytes((0, *conn)), bytes(code)
    if len(words) <= len(closed):
        parts = [closed.translate(_lookup(flat[c::n])) for c in words]
    else:
        parts = [words.translate(_lookup(G.table[s])) for s in closed]
    return not _INDICES[:n].translate(None, b"".join(parts))


def find_inverse_closed_transversal(G: FiniteGroup, H: Subgroup) -> tuple[int, ...] | None:
    """An inverse-closed right transversal of H containing the identity, if
    any, as its representatives in canonical coset order.

    Inversion maps the right cosets in a double coset HxH onto the left
    cosets of Hx^-1H, so it links right cosets only within one pair
    {HxH, Hx^-1H}.  The pairs are therefore independent: the search splits
    the right cosets into these components and solves each one on its own,
    returning None as soon as one has no solution.  A component holds at
    most min(2|H|, |G:H|) cosets, which bounds the recursion depth.

    Within a component, backtracking runs over coset representatives in
    canonical coset order.  Choosing t forces t^-1 to represent its own
    coset, so within a self-paired coset only involutions are eligible;
    involutions are tried first, which finds witnesses quickly and makes
    dead ends fail fast.  Since the components are independent, the witness
    is the first one in canonical coset order over all of G.
    """
    dec = coset_decomposition(G, H)
    square, inverse, _ = _lookups(G)
    members, size, position = dec.members, dec.stride, dec._position
    k = len(members) // size
    # each coset's members, involutions first (keyed 2i + [g^2 != 1] for g in
    # coset i), and the index of the coset of g^-1 for each g and each member
    keys = list(map(add, map(add, position, position), map(truth, square)))
    order = sorted(members, key=keys.__getitem__)
    mirror = inverse.translate(_lookup(position))
    mirrors = members.translate(mirror)
    chosen: list[int | None] = [None] * k
    chosen[0] = 0

    def search(cosets: list[int], pos: int) -> bool:
        while pos < len(cosets) and chosen[cosets[pos]] is not None:
            pos += 1
        if pos == len(cosets):
            return True
        i = cosets[pos]
        for cand in order[i * size : i * size + size]:
            j = mirror[cand]
            if chosen[j] is None and (j != i or inverse[cand] == cand):
                chosen[i], chosen[j] = cand, inverse[cand]
                if search(cosets, pos + 1):
                    return True
                chosen[i] = chosen[j] = None
        return False

    for start in range(k):
        if chosen[start] is not None:
            continue
        # the inverses of one coset of HxH meet every right coset of
        # Hx^-1H, and the inverses of one of those meet every coset of HxH
        component = set(mirrors[start * size : start * size + size])
        other = next(iter(component))
        component.update(mirrors[other * size : other * size + size])
        if not search(sorted(component), 0):
            return None
    return tuple(g for g in chosen if g is not None)


def _meet_size(G: FiniteGroup, H: Subgroup, x: int, coset: bytes) -> int:
    """|H meet H^x| for x in the packed right coset ``coset`` = Hx: x maps it
    onto xH meet Hx, so it is |H| less the number of xh outside Hx.  As
    H^(hx) = H^x, it is constant on Hx (and on the double coset HxH)."""
    xH = H.members.translate(_lookup(G.table[x]))
    return len(H) - len(xH.translate(None, coset))


def square_coset_condition(
    G: FiniteGroup, H: Subgroup, within: Subgroup | None = None
) -> CodeVerdict:
    """Scan every x with x^2 in H and odd |H : H meet H^x|.

    The verdict is negative, with the least such x as counterexample, when
    some coset Hx of this kind contains no y with y^2 = 1; positive
    otherwise.  ``within``, a subgroup W containing H, skips G's cosets of H
    outside W.  Both the index and the involution test are constant on Hx,
    so each right coset is decided once, at its least x with x^2 in H.
    An involution would be such an x, so only the cosets holding no
    involution and some y with y^2 in H minus 1 are visited, found as zeros
    of the members' squares and of those through a lookup 0 on H minus 1.
    """
    dec = coset_decomposition(G, H, within)
    square = _lookups(G)[0]
    members, size = dec.members, dec.stride
    inside = -1 if within is None else within.mask
    squares = members.translate(square)
    find_involution = squares.find
    find_root = squares.translate(_zeros(H.members[1:])).find
    failing, r = [], find_root(0, 0, len(members))
    while r >= 0:
        i = r - r % size
        x, end = members[r], i + size
        if inside >> x & 1 and find_involution(0, i, end) < 0:
            if len(H) // _meet_size(G, H, x, members[i:end]) % 2:
                failing.append(x)
        r = find_root(0, end, len(members))
    x = min(failing, default=None)
    return CodeVerdict(x is None, Criterion.SQUARE_COSET, counterexample=x)


def double_coset_condition(G: FiniteGroup, H: Subgroup) -> CodeVerdict:
    """Scan every x with HxH = Hx^-1H and odd |H : H meet H^x|.

    Same verdict semantics as the square-coset scan.  HxH = Hx^-1H exactly
    when the coset of x^-1 lies in the orbit of Hx under H, that is when Hx
    is the coset of (hx)^-1 for some h in H.  Every test on x is thus
    constant on the right coset Hx, so the right cosets holding no element
    of order at most 2 are walked in representative order, which is also
    least-x order, and each is decided at its representative.  No lookup is
    shared with the square-coset scan's search for square roots of H.
    """
    dec = coset_decomposition(G, H)
    _, inverse, others = _lookups(G)
    members, size, position = dec.members, dec.stride, _lookup(dec._position)
    # the coset of g^-1 for each member g, and the cosets of 1 and the involutions
    find_mirror = members.translate(inverse).translate(position).find
    lifted = _INDICES[: G.order].translate(None, others).translate(position)
    for i in _INDICES[: len(members) // size].translate(None, lifted):
        start = i * size
        x, end = members[start], start + size
        if find_mirror(i, start, end) >= 0 and len(H) // _meet_size(G, H, x, members[start:end]) % 2:
            return CodeVerdict(False, Criterion.DOUBLE_COSET, counterexample=x)
    return CodeVerdict(True, Criterion.DOUBLE_COSET)


def omega_coset_sets(
    G: FiniteGroup, N: Subgroup, H: Subgroup
) -> tuple[frozenset[int], frozenset[int]]:
    """Involution cosets of the quotient N/H versus lifted involutions.

    Returns two sets of representatives of G's cosets of H led by members of N:
    ``quotient_omega`` holds the cosets Hg with (Hg)^2 = H, ``lifted_omega``
    those containing an element of order at most 2.  H must be normal in N.
    The second set is always contained in the first.
    """
    dec = coset_decomposition(G, H, N)
    if not is_normal(G, H, N):
        raise ValueError("H must be normal in N")
    square, _, others = _lookups(G)
    reps = dec.members[:: dec.stride]
    squares = zip(reps, reps.translate(square))
    quotient = frozenset(x for x, y in squares if N.mask >> x & 1 and H.mask >> y & 1)
    # the cosets of N's involutions
    cosets = N.members.translate(None, others).translate(_lookup(dec._position))
    lifted = frozenset(map(reps.__getitem__, set(cosets)))
    return quotient, lifted


def omega_criterion(G: FiniteGroup, H: Subgroup, N: Subgroup) -> CodeVerdict:
    """Involution-coset comparison of H inside N, with H normal in N.

    Positive when every coset of H in N that squares into H contains an
    element of order at most 2.  It decides whether H is a perfect code of
    G when H is a 2-group or normal in G and N = N_G(H), and it decides H2
    in N2 and in N on the chain of ``sylow_reduction``.
    """
    quotient, lifted = omega_coset_sets(G, N, H)
    return CodeVerdict(quotient == lifted, Criterion.OMEGA_QUOTIENT)


def sylow_reduction(G: FiniteGroup, H: Subgroup) -> tuple[Subgroup, Subgroup, Subgroup]:
    """The chain (H2, N, N2): H2 a Sylow 2-subgroup of H, N = N_G(H2) and N2
    a Sylow 2-subgroup of N.  With P the Sylow 2-subgroup of G grown from
    N2 (``sylow_2_subgroup(G, full_subgroup(G), N2)``), four equivalent
    statements decide H on it: H2 a code of P, the involution cosets of H2
    in N2 and in N, and H a code of G.  In a 2-group H2 = H, N2 = N and
    P = G, so they are two statements."""
    H2 = sylow_2_subgroup(G, H)
    N = normalizer(G, H2)
    return H2, N, sylow_2_subgroup(G, N)


def decide(G: FiniteGroup, H: Subgroup, *, with_witness: bool = False) -> CodeVerdict:
    """Decide whether H is a perfect code of G.

    Odd-order subgroups are codes unconditionally.  Otherwise the cheapest
    equivalent statement is evaluated: the involution-coset comparison for
    the Sylow 2-part of H inside the Sylow 2-subgroup of its normalizer.
    A negative verdict is re-derived by the square-coset scan so a concrete
    counterexample can be reported.  On a positive verdict ``with_witness``
    attaches an inverse-closed transversal to the deciding criterion's
    verdict, and raises ``RuntimeError`` if the search finds none (the
    criteria would then disagree) or the graph check rejects it.
    """
    if len(H) % 2 == 1:
        verdict = CodeVerdict(True, Criterion.ODD_ORDER)
    else:
        H2, _, N2 = sylow_reduction(G, H)
        verdict = omega_criterion(G, H2, N2)
        if not verdict.is_perfect_code:
            return square_coset_condition(G, H)
    if with_witness:
        witness = find_inverse_closed_transversal(G, H)
        if witness is None or not is_perfect_code_in_cayley_graph(G, set(witness) - {0}, H):
            raise RuntimeError(
                f"positive verdict for subgroup {H.indices()} of {G.name or 'G'} "
                "but no inverse-closed transversal passed the graph check"
            )
        verdict = replace(verdict, witness=witness)
    return verdict


def search_connection_set(G: FiniteGroup, C: Subgroup | Iterable[int]) -> frozenset[int] | None:
    """Exhaustive oracle: the first connection set admitting C as a code.

    Enumerates every inverse-closed subset of G minus the identity, so it is
    gated to very small groups; use only to verify the fast criteria.
    """
    if G.order > GRAPH_SEARCH_CAP:
        raise ValueError(
            f"exhaustive search supports order <= {GRAPH_SEARCH_CAP}, got {G.order}"
        )
    inv = G.inverse
    atoms: list[tuple[int, ...]] = []
    for g in range(1, G.order):
        ig = inv[g]
        if ig == g:
            atoms.append((g,))
        elif g < ig:
            atoms.append((g, ig))
    code = _as_elements(G, C)
    for mask in range(1 << len(atoms)):
        chosen: set[int] = set()
        for bit, atom in enumerate(atoms):
            if mask >> bit & 1:
                chosen.update(atom)
        S = frozenset(chosen)
        if is_perfect_code_in_cayley_graph(G, S, code):
            return S
    return None
