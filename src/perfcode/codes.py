"""Decision procedures for subgroup perfect codes in Cayley graphs.

A subgroup H of G is a perfect code when some Cayley graph Cay(G, S) admits
H as a perfect code (an independent set with every vertex at distance at
most 1 from exactly one code word).  The procedures here are the known
equivalent criteria: explicit graph verification, inverse-closed transversal
search, two coset conditions quantified over elements x with odd
|H : H meet H^x|, the involution-coset comparison inside the normalizer,
and a four-way reduction to the Sylow 2-subgroup.  They must all agree;
the cross-check harness treats any disagreement as an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable

from .group import FiniteGroup, Subgroup
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

    GRAPH = "graph"
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


def connection_set(G: FiniteGroup, elements: Iterable[int]) -> ConnectionSet:
    """Validated connection set: no identity, closed under inversion."""
    members = frozenset(int(g) for g in elements)
    for g in members:
        if not 0 <= g < G.order:
            raise ValueError(f"element index {g} out of range for order {G.order}")
    if 0 in members:
        raise ValueError("connection set must not contain the identity")
    if any(G.inverse[g] not in members for g in members):
        raise ValueError("connection set must be inverse-closed")
    return ConnectionSet(members)


@dataclass(frozen=True)
class Transversal:
    """Right-coset representatives, one per coset, in canonical coset order."""

    representatives: tuple[int, ...]
    inverse_closed: bool

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


def _as_elements(C: Subgroup | Iterable[int]) -> frozenset[int]:
    if isinstance(C, Subgroup):
        return C.elements
    return frozenset(int(g) for g in C)


def is_perfect_code_in_cayley_graph(
    G: FiniteGroup, S: ConnectionSet | Iterable[int], C: Subgroup | Iterable[int]
) -> bool:
    """Graph-level check that C is a perfect code of Cay(G, S).

    x and y are adjacent iff y x^-1 lies in S; the code condition is that C
    is independent and every outside vertex has exactly one neighbour in C.
    """
    conn = connection_set(G, S.elements if isinstance(S, ConnectionSet) else S)
    code = _as_elements(C)
    t = G.table
    inv = G.inverse
    members = conn.elements
    for c1, c2 in combinations(code, 2):
        if t[c2][inv[c1]] in members:
            return False
    for g in G.elements():
        if g in code:
            continue
        ig = inv[g]
        hits = 0
        for c in code:
            if t[c][ig] in members:
                hits += 1
                if hits > 1:
                    return False
        if hits != 1:
            return False
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
    k = len(dec.representatives)
    inv = G.inverse
    t = G.table
    candidates: list[list[int]] = []
    for block in dec.blocks:
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
        component = {dec.coset_of(inv[g]) for g in dec.blocks[start]}
        mirror = next(iter(component))
        component.update(dec.coset_of(inv[g]) for g in dec.blocks[mirror])
        if not search(sorted(component), 0):
            return None
    reps = tuple(g for g in chosen if g is not None)
    return Transversal(representatives=reps, inverse_closed=True)


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
    if len(reps) != len(dec.representatives) or len(hit) != len(dec.representatives):
        raise ValueError("representatives do not form a right transversal")
    return ConnectionSet(reps - {0})


def _odd_index_intersection(G: FiniteGroup, H: Subgroup, x: int) -> bool:
    """True iff |H| / |H meet H^x| is odd."""
    members = H.elements
    size = sum(1 for h in members if G.conjugate(h, x) in members)
    return (len(H) // size) % 2 == 1


def _coset_has_involution(G: FiniteGroup, dec, cache: dict[int, bool], i: int) -> bool:
    flag = cache.get(i)
    if flag is None:
        t = G.table
        flag = any(t[y][y] == 0 for y in dec.blocks[i])
        cache[i] = flag
    return flag


def square_coset_condition(
    G: FiniteGroup, H: Subgroup, within: Subgroup | None = None
) -> CodeVerdict:
    """Scan every x with x^2 in H and odd |H : H meet H^x|.

    The verdict is negative, with the least such x as counterexample, when
    some coset Hx of this kind contains no y with y^2 = 1; positive
    otherwise.  ``within`` restricts the ambient group to a subgroup
    containing H.
    """
    domain = sorted(within.elements) if within is not None else range(G.order)
    if within is not None and not H.elements <= within.elements:
        raise ValueError("ambient subgroup must contain H")
    t = G.table
    members = H.elements
    dec = coset_decomposition(G, H, within)
    invol_cache: dict[int, bool] = {}
    for x in domain:
        if t[x][x] not in members:
            continue
        if not _odd_index_intersection(G, H, x):
            continue
        if not _coset_has_involution(G, dec, invol_cache, dec.coset_of(x)):
            return CodeVerdict(False, Criterion.SQUARE_COSET, counterexample=x)
    return CodeVerdict(True, Criterion.SQUARE_COSET)


def double_coset_condition(
    G: FiniteGroup, H: Subgroup, within: Subgroup | None = None
) -> CodeVerdict:
    """Scan every x with HxH = Hx^-1H and odd |H : H meet H^x|.

    Same verdict semantics as the square-coset scan; the double-coset
    properties are constant on each double coset, so they are computed once
    per block.
    """
    domain = sorted(within.elements) if within is not None else range(G.order)
    if within is not None and not H.elements <= within.elements:
        raise ValueError("ambient subgroup must contain H")
    t = G.table
    inv = G.inverse
    helems = sorted(H.elements)
    dec = coset_decomposition(G, H, within)
    invol_cache: dict[int, bool] = {}
    block_applicable: dict[int, bool] = {}
    for x in domain:
        if x not in block_applicable:
            double = {t[t[h1][x]][h2] for h1 in helems for h2 in helems}
            applicable = inv[x] in double and _odd_index_intersection(G, H, x)
            for member in double:
                block_applicable[member] = applicable
        if not block_applicable[x]:
            continue
        if not _coset_has_involution(G, dec, invol_cache, dec.coset_of(x)):
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
    if not H.elements <= N.elements:
        raise ValueError("H must be contained in N")
    if not is_normal(G, H, N):
        raise ValueError("H must be normal in N")
    members = H.elements
    t = G.table
    dec = coset_decomposition(G, H, N)
    quotient = frozenset(
        dec.representatives[i]
        for i, block in enumerate(dec.blocks)
        if t[block[0]][block[0]] in members
    )
    lifted = frozenset(
        dec.representatives[i]
        for i, block in enumerate(dec.blocks)
        if any(t[y][y] == 0 for y in block)
    )
    return quotient, lifted


def _is_2_group_order(n: int) -> bool:
    return n & (n - 1) == 0


def omega_criterion(G: FiniteGroup, H: Subgroup) -> CodeVerdict:
    """Involution-coset criterion inside the normalizer of H.

    Valid when H is a 2-group or normal in G: H is a perfect code exactly
    when every coset of H in N_G(H) that squares into H contains an
    involution.  For other subgroups use ``sylow_reduction`` or ``decide``.
    """
    if not _is_2_group_order(len(H)) and not is_normal(G, H):
        raise ValueError(
            "omega criterion requires a 2-group or a normal subgroup; "
            "use sylow_reduction/decide for general subgroups"
        )
    N = normalizer(G, H)
    quotient, lifted = omega_coset_sets(G, N, H)
    return CodeVerdict(quotient == lifted, Criterion.OMEGA_QUOTIENT)


@dataclass(frozen=True)
class SylowReduction:
    """The four equivalent decision statements evaluated independently.

    With H2 a Sylow 2-subgroup of H, N its normalizer, N2 a Sylow
    2-subgroup of N and P a Sylow 2-subgroup of G containing N2:
    ``h2_code_in_p`` decides H2 as a code of P, ``omega_sylow_quotient``
    compares involution cosets inside N2, ``omega_full_quotient`` does the
    same inside N, and ``h_code_in_g`` decides H in G directly.  All four
    must agree; the harness asserts this rather than assuming it.
    """

    h2_code_in_p: bool
    omega_sylow_quotient: bool
    omega_full_quotient: bool
    h_code_in_g: bool
    sylow_part: Subgroup
    norm: Subgroup
    norm_sylow: Subgroup
    ambient_sylow: Subgroup

    def agree(self) -> bool:
        return (
            self.h2_code_in_p
            == self.omega_sylow_quotient
            == self.omega_full_quotient
            == self.h_code_in_g
        )


def _sylow_chain(G: FiniteGroup, H: Subgroup) -> tuple[Subgroup, Subgroup, Subgroup]:
    """H2 = a Sylow 2-subgroup of H, N = N_G(H2) and N2 = a Sylow 2-subgroup of N."""
    H2 = sylow_2_subgroup(G, H)
    N = normalizer(G, H2)
    return H2, N, sylow_2_subgroup(G, N)


def sylow_reduction(G: FiniteGroup, H: Subgroup) -> SylowReduction:
    """Evaluate all four equivalent statements for (G, H)."""
    H2, N, N2 = _sylow_chain(G, H)
    P = sylow_2_overgroup(G, N2)
    q2, l2 = omega_coset_sets(G, N2, H2)
    qn, ln = omega_coset_sets(G, N, H2)
    return SylowReduction(
        h2_code_in_p=square_coset_condition(G, H2, within=P).is_perfect_code,
        omega_sylow_quotient=q2 == l2,
        omega_full_quotient=qn == ln,
        h_code_in_g=square_coset_condition(G, H).is_perfect_code,
        sylow_part=H2,
        norm=N,
        norm_sylow=N2,
        ambient_sylow=P,
    )


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
    quotient, lifted = omega_coset_sets(G, N2, H2)
    if quotient == lifted:
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


def search_connection_set(
    G: FiniteGroup,
    C: Subgroup | Iterable[int],
    *,
    max_order: int = GRAPH_SEARCH_CAP,
) -> ConnectionSet | None:
    """Exhaustive oracle: the first connection set admitting C as a code.

    Enumerates every inverse-closed subset of G minus the identity, so it is
    gated to very small groups; use only to verify the fast criteria.
    """
    if G.order > max_order:
        raise ValueError(
            f"exhaustive search supports order <= {max_order}, got {G.order}"
        )
    inv = G.inverse
    atoms: list[tuple[int, ...]] = []
    for g in range(1, G.order):
        ig = inv[g]
        if ig == g:
            atoms.append((g,))
        elif g < ig:
            atoms.append((g, ig))
    code = _as_elements(C)
    for mask in range(1 << len(atoms)):
        chosen: set[int] = set()
        for bit, atom in enumerate(atoms):
            if mask >> bit & 1:
                chosen.update(atom)
        S = ConnectionSet(frozenset(chosen))
        if is_perfect_code_in_cayley_graph(G, S, code):
            return S
    return None
