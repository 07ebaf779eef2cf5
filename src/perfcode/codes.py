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

from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable

from .group import FiniteGroup, Subgroup, _ints
from .subgroups import (
    coset_decomposition,
    is_normal,
    normalizer,
    sylow_2_overgroup,
    sylow_2_subgroup,
)

GRAPH_SEARCH_CAP = 16


class Criterion(str, Enum):
    """Which decision procedure produced a verdict."""

    TRANSVERSAL = "transversal"
    SQUARE_COSET = "square-coset"
    DOUBLE_COSET = "double-coset"
    OMEGA_QUOTIENT = "omega-quotient"
    EXTRASPECIAL = "extraspecial-classification"
    SYLOW_EXTRASPECIAL = "sylow-extraspecial-classification"
    ODD_ORDER = "odd-order"


@dataclass(frozen=True)
class ConnectionSet:
    """An inverse-closed, identity-free subset of a group (a Cayley graph)."""

    elements: frozenset[int]

    def __len__(self) -> int:
        return len(self.elements)

    def indices(self) -> list[int]:
        return sorted(self.elements)


def _as_elements(G: FiniteGroup, elements: Subgroup | Iterable[int]) -> Collection[int]:
    """A subgroup's packed members, or else ``elements`` as indices checked
    to be exact ints in range."""
    if isinstance(elements, Subgroup):
        return elements.members
    members = frozenset(_ints(tuple(elements), "element list"))
    for g in members:
        if not 0 <= g < G.order:
            raise ValueError(f"element index {g} out of range for order {G.order}")
    return members


def connection_set(G: FiniteGroup, elements: Iterable[int]) -> ConnectionSet:
    """Validated connection set: no identity, closed under inversion."""
    members = _as_elements(G, elements)
    if 0 in members:
        raise ValueError("connection set must not contain the identity")
    if any(G.inverse[g] not in members for g in members):
        raise ValueError("connection set must be inverse-closed")
    return ConnectionSet(members)


@dataclass(frozen=True)
class Transversal:
    """Right-coset representatives, one per coset, in canonical coset order."""

    representatives: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.representatives)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.representatives)


@dataclass(frozen=True)
class CodeVerdict:
    """Outcome of one decision procedure.

    ``witness`` carries a constructive certificate (a transversal or a
    connection set) for positive verdicts when one was produced;
    ``counterexample`` is the least failing element for negative verdicts of
    the element-scanning criteria.
    """

    is_perfect_code: bool
    criterion: Criterion
    witness: Transversal | ConnectionSet | None = None
    counterexample: int | None = None


def verdict_to_json(G: FiniteGroup, H: Subgroup, verdict: CodeVerdict) -> dict:
    """Verdict in the JSON report shape."""
    doc: dict = {
        "group": G.name or "",
        "subgroup": H.indices(),
        "is_perfect_code": verdict.is_perfect_code,
        "criterion": verdict.criterion.value,
    }
    if isinstance(verdict.witness, Transversal):
        doc["witness"] = list(verdict.witness.representatives)
    elif isinstance(verdict.witness, ConnectionSet):
        doc["witness"] = verdict.witness.indices()
    if verdict.counterexample is not None:
        doc["counterexample"] = verdict.counterexample
    return doc


def is_perfect_code_in_cayley_graph(
    G: FiniteGroup, S: ConnectionSet | Iterable[int], C: Subgroup | Iterable[int]
) -> bool:
    """Graph-level check that C is a perfect code of Cay(G, S), by the
    definition: the closed neighbourhoods {c} u Sc, c in C, partition G.

    x and y are adjacent iff y x^-1 lies in S, so the neighbours of c are
    Sc.  The |C| (|S| + 1) products must then be |G| distinct elements,
    which takes O(|G|) table lookups.
    """
    conn = connection_set(G, S.elements if isinstance(S, ConnectionSet) else S)
    code = _as_elements(G, C)
    if len(code) * (len(conn) + 1) != G.order:
        return False
    t = G.table
    closed = (0, *conn.elements)
    covered = bytearray(G.order)
    for c in code:
        for s in closed:
            g = t[s][c]
            if covered[g]:
                return False
            covered[g] = 1
    return True


def find_inverse_closed_transversal(
    G: FiniteGroup, H: Subgroup
) -> Transversal | None:
    """An inverse-closed right transversal of H containing the identity, if any.

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
    members, size = dec.members, dec.stride
    k = len(members) // size
    inv = G.inverse
    t = G.table
    candidates: list[list[int]] = []
    for i in range(0, len(members), size):
        block = members[i : i + size]
        invol = [g for g in block if t[g][g] == 0]
        rest = [g for g in block if t[g][g] != 0]
        candidates.append(invol + rest)
    chosen: list[int | None] = [None] * k
    chosen[0] = 0

    def search(cosets: list[int], pos: int) -> bool:
        while pos < len(cosets) and chosen[cosets[pos]] is not None:
            pos += 1
        if pos == len(cosets):
            return True
        i = cosets[pos]
        for cand in candidates[i]:
            partner = inv[cand]
            j = dec.coset_of(partner)
            if j == i:
                if partner != cand:
                    continue
                forced = None
            elif chosen[j] is None:
                forced = j
            elif chosen[j] == partner:
                forced = None
            else:
                continue
            chosen[i] = cand
            if forced is not None:
                chosen[forced] = partner
            if search(cosets, pos + 1):
                return True
            chosen[i] = None
            if forced is not None:
                chosen[forced] = None
        return False

    for start in range(k):
        if chosen[start] is not None:
            continue
        # the inverses of one coset of HxH meet every right coset of
        # Hx^-1H, and the inverses of one of those meet every coset of HxH
        component = {dec.coset_of(inv[g]) for g in candidates[start]}
        mirror = next(iter(component))
        component.update(dec.coset_of(inv[g]) for g in candidates[mirror])
        if not search(sorted(component), 0):
            return None
    reps = tuple(g for g in chosen if g is not None)
    return Transversal(representatives=reps)


def connection_set_from_transversal(
    G: FiniteGroup, H: Subgroup, T: Transversal
) -> ConnectionSet:
    """S = T minus the identity, the Cayley graph admitting H as a code."""
    reps = T.as_set()
    if 0 not in reps:
        raise ValueError("transversal must contain the identity")
    if any(G.inverse[g] not in reps for g in reps):
        raise ValueError("transversal must be inverse-closed")
    dec = coset_decomposition(G, H)
    hit = {dec.coset_of(g) for g in reps}
    k = len(dec.members) // dec.stride
    if len(reps) != k or len(hit) != k:
        raise ValueError("representatives do not form a right transversal")
    return ConnectionSet(reps - {0})


def _odd_index_intersection(G: FiniteGroup, H: Subgroup, x: int) -> bool:
    """True iff |H| / |H meet H^x| is odd.  H^(hx) = H^x for h in H, so the
    value is constant on the right coset Hx (and on the double coset HxH)."""
    size = sum(H.mask >> G.conjugate(h, x) & 1 for h in H)
    return (len(H) // size) % 2 == 1


def square_coset_condition(
    G: FiniteGroup, H: Subgroup, within: Subgroup | None = None
) -> CodeVerdict:
    """Scan every x with x^2 in H and odd |H : H meet H^x|.

    The verdict is negative, with the least such x as counterexample, when
    some coset Hx of this kind contains no y with y^2 = 1; positive
    otherwise.  ``within`` restricts the ambient group to a subgroup
    containing H.  Both the index and the involution test are constant on
    Hx, so each right coset is decided once, at its least x with x^2 in H.
    """
    if within is not None and H.mask & ~within.mask:
        raise ValueError("ambient subgroup must contain H")
    t = G.table
    inside = bytearray(G.order)  # H's indicator, for the scan over every y
    for h in H:
        inside[h] = 1
    failing = []
    dec = coset_decomposition(G, H, within)
    members, size = dec.members, dec.stride
    for i in range(0, len(members), size):
        roots = [y for y in members[i : i + size] if inside[t[y][y]]]
        # an involution y would be among the roots, since y^2 = 1 lies in H
        if roots and all(t[y][y] for y in roots) and _odd_index_intersection(G, H, roots[0]):
            failing.append(roots[0])
    x = min(failing, default=None)
    return CodeVerdict(x is None, Criterion.SQUARE_COSET, counterexample=x)


def double_coset_condition(G: FiniteGroup, H: Subgroup) -> CodeVerdict:
    """Scan every x with HxH = Hx^-1H and odd |H : H meet H^x|.

    Same verdict semantics as the square-coset scan.  HxH = Hx^-1H exactly
    when x^-1 = a x b for some a, b in H, that is when x b x lies in H for
    some b in H.  Every test on x is thus constant on the right coset Hx,
    so the right cosets are walked in representative order, which is also
    least-x order, and each is decided at its representative.
    """
    t = G.table
    mask = H.mask
    dec = coset_decomposition(G, H)
    members, size = dec.members, dec.stride
    for i in range(0, len(members), size):
        x = members[i]
        if (
            all(t[y][y] for y in members[i : i + size])
            and any(mask >> t[t[x][b]][x] & 1 for b in H)
            and _odd_index_intersection(G, H, x)
        ):
            return CodeVerdict(False, Criterion.DOUBLE_COSET, counterexample=x)
    return CodeVerdict(True, Criterion.DOUBLE_COSET)


def omega_coset_sets(
    G: FiniteGroup, N: Subgroup, H: Subgroup
) -> tuple[frozenset[int], frozenset[int]]:
    """Involution cosets of the quotient N/H versus lifted involutions.

    Returns two sets of canonical coset representatives within N:
    ``quotient_omega`` holds the cosets Hg with (Hg)^2 = H, ``lifted_omega``
    those containing an element of order at most 2.  H must be normal in N.
    The second set is always contained in the first.
    """
    if H.mask & ~N.mask:
        raise ValueError("H must be contained in N")
    if not is_normal(G, H, N):
        raise ValueError("H must be normal in N")
    t = G.table
    dec = coset_decomposition(G, H, N)
    members, size = dec.members, dec.stride
    quotient = frozenset(x for x in members[::size] if H.mask >> t[x][x] & 1)
    # the coset at flat index i starts at i - i % size
    lifted = frozenset(members[i - i % size] for i, y in enumerate(members) if not t[y][y])
    return quotient, lifted


def omega_criterion(G: FiniteGroup, H: Subgroup) -> CodeVerdict:
    """Involution-coset criterion inside the normalizer of H.

    Valid when H is a 2-group or normal in G: H is a perfect code exactly
    when every coset of H in N_G(H) that squares into H contains an
    involution.  For other subgroups use ``decide``.
    """
    if len(H) & (len(H) - 1) and not is_normal(G, H):
        raise ValueError(
            "omega criterion requires a 2-group or a normal subgroup; "
            "use decide for general subgroups"
        )
    return CodeVerdict(_omega(G, H, normalizer(G, H)), Criterion.OMEGA_QUOTIENT)


def _omega(G: FiniteGroup, H: Subgroup, N: Subgroup) -> bool:
    """True iff every coset of H in N that squares into H contains an
    element of order at most 2 (H normal in N)."""
    quotient, lifted = omega_coset_sets(G, N, H)
    return quotient == lifted


def _sylow_chain(G: FiniteGroup, H: Subgroup) -> tuple[Subgroup, Subgroup, Subgroup]:
    """H2 = a Sylow 2-subgroup of H, N = N_G(H2) and N2 = a Sylow 2-subgroup of N."""
    H2 = sylow_2_subgroup(G, H)
    N = normalizer(G, H2)
    return H2, N, sylow_2_subgroup(G, N)


def sylow_reduction(
    G: FiniteGroup, H: Subgroup
) -> tuple[Subgroup, Subgroup, Subgroup, Subgroup]:
    """The chain (H2, N, N2) of ``_sylow_chain`` and a Sylow 2-subgroup P
    of G containing N2.  Four equivalent statements decide H on it: H2 a
    code of P, the involution cosets of H2 in N2 and in N, and H a code of
    G.  In a 2-group H2 = H, N2 = N and P = G, so they are two statements."""
    H2, N, N2 = _sylow_chain(G, H)
    return H2, N, N2, sylow_2_overgroup(G, N2)


def decide(G: FiniteGroup, H: Subgroup, *, with_witness: bool = False) -> CodeVerdict:
    """Decide whether H is a perfect code of G.

    Odd-order subgroups are codes unconditionally.  Otherwise the cheapest
    equivalent statement is evaluated: the involution-coset comparison for
    the Sylow 2-part of H inside the Sylow 2-subgroup of its normalizer.
    On a positive verdict ``with_witness`` attaches an inverse-closed
    transversal, and raises ``RuntimeError`` if the search finds none (the
    criteria would then disagree); a negative verdict is re-derived by the
    square-coset scan so a concrete counterexample can be reported.
    """
    if len(H) % 2 == 1:
        if with_witness:
            return _witnessed(G, H)
        return CodeVerdict(True, Criterion.ODD_ORDER)
    H2, _, N2 = _sylow_chain(G, H)
    if _omega(G, H2, N2):
        if with_witness:
            return _witnessed(G, H)
        return CodeVerdict(True, Criterion.OMEGA_QUOTIENT)
    return square_coset_condition(G, H)


def _witnessed(G: FiniteGroup, H: Subgroup) -> CodeVerdict:
    """Positive verdict carrying a transversal; a missing one is a bug."""
    witness = find_inverse_closed_transversal(G, H)
    if witness is None:
        raise RuntimeError(
            f"positive verdict for subgroup {H.indices()} of {G.name or 'G'} "
            "but no inverse-closed transversal was found"
        )
    return CodeVerdict(True, Criterion.TRANSVERSAL, witness=witness)


def search_connection_set(G: FiniteGroup, C: Subgroup | Iterable[int]) -> ConnectionSet | None:
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
        S = ConnectionSet(frozenset(chosen))
        if is_perfect_code_in_cayley_graph(G, S, code):
            return S
    return None
