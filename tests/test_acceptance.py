"""Acceptance gate: every release criterion, one test and one printed line each.

All values are discrete, so every assertion is exact.
"""

from __future__ import annotations

from oracles import (
    abelian_invariants,
    connection_set_from_transversal,
    derived_subgroup,
    element_orders,
    frattini_subgroup,
    is_maximal_abelian,
    isomorphic_small,
    reduction_statements,
    squares,
    symplectic_form,
)
from perfcode import construct
from perfcode.codes import (
    decide,
    double_coset_condition,
    find_inverse_closed_transversal,
    is_perfect_code_in_cayley_graph,
    search_connection_set,
    square_coset_condition,
)
from perfcode.corpus import builtin_corpus, cross_check, make_entry
from perfcode.extraspecial import (
    Family,
    build_family,
    central_product,
    classify_extraspecial,
    classify_sylow_extraspecial,
    is_extraspecial,
)
from perfcode.group import full_subgroup
from perfcode.subgroups import (
    all_subgroups,
    center,
    is_abelian_subgroup,
    is_normal,
)


def _report(label: str, ok: bool) -> None:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}")


def _families():
    return [
        build_family(1, Family.GM1),
        build_family(1, Family.GM2),
        build_family(2, Family.GM1),
        build_family(2, Family.GM2),
    ]


def test_coset_criteria_equivalence_corpus():
    """Transversal existence, square-coset and double-coset verdicts coincide
    on every subgroup of every corpus group of order <= 32, and every found
    transversal yields a connection set passing the graph-level check."""
    violations = []
    for entry in builtin_corpus():
        G = entry.group
        if G.order > 32:
            continue
        for H in all_subgroups(G):
            T = find_inverse_closed_transversal(G, H)
            a = T is not None
            b = square_coset_condition(G, H).is_perfect_code
            c = double_coset_condition(G, H).is_perfect_code
            if not (a == b == c):
                violations.append((G.name, H.indices(), a, b, c))
            if T is not None:
                S = connection_set_from_transversal(G, H, T)
                if not is_perfect_code_in_cayley_graph(G, S, H):
                    violations.append((G.name, H.indices(), "witness-invalid"))
    ok = not violations
    _report("coset-criteria-equivalence", ok)
    assert ok, violations[:5]


def test_sylow_reduction_equivalence():
    """The four reduction statements agree on every subgroup of the listed
    groups."""
    groups = [
        construct.dihedral(8),
        construct.quaternion8(),
        construct.dicyclic(16),
        build_family(2, Family.GM1),
        build_family(2, Family.GM2),
        construct.symmetric(4),
        construct.alternating(4),
        construct.special_linear_2_3(),
        construct.direct_product(construct.dihedral(8), construct.cyclic(3), name="D8xZ3"),
    ]
    violations = []
    for G in groups:
        for H in all_subgroups(G):
            statements = reduction_statements(G, H)
            if len(set(statements)) != 1:
                violations.append((G.name, H.indices(), statements))
    ok = not violations
    _report("sylow-reduction-equivalence", ok)
    assert ok, violations[:5]


def test_extraspecial_classification_matches_decision():
    """The closed-form extraspecial classification equals the general decision
    on every subgroup of both families at m <= 2, with the expected spot
    facts: the centre is never a code, non-abelian subgroups always are, and
    maximal abelian subgroups are codes exactly in the dihedral-only family."""
    violations = []
    for G in _families():
        family = is_extraspecial(G).family
        Z = center(G, full_subgroup(G))
        for H in all_subgroups(G):
            got = classify_extraspecial(G, H).is_perfect_code
            want = decide(G, H).is_perfect_code
            if got != want:
                violations.append((G.name, H.indices(), got, want))
            if H.elements == Z.elements and got:
                violations.append((G.name, "centre classified as code"))
            if not is_abelian_subgroup(G, H) and not got:
                violations.append((G.name, H.indices(), "non-abelian not code"))
            if is_maximal_abelian(G, H) and got != (family is Family.GM1):
                violations.append((G.name, H.indices(), "maximal abelian mismatch"))
    ok = not violations
    _report("extraspecial-classification", ok)
    assert ok, violations[:5]


def test_sylow_extraspecial_classification_matches_decision(s4, sl23, s4_elem):
    """The Sylow-level classification equals the general decision on every
    subgroup of S4 and SL(2,3); spot values pinned explicitly."""
    from perfcode.group import closure

    violations = []
    for G in (s4, sl23):
        for H in all_subgroups(G):
            got = classify_sylow_extraspecial(G, H).is_perfect_code
            want = decide(G, H).is_perfect_code
            if got != want:
                violations.append((G.name, H.indices(), got, want))
            if len(H) % 2 == 1 and not got:
                violations.append((G.name, H.indices(), "odd order not code"))
    a4 = closure(s4, [s4_elem[(1, 2, 0, 3)], s4_elem[(0, 2, 3, 1)]])
    spots = [
        classify_sylow_extraspecial(s4, a4).is_perfect_code is True,
        classify_sylow_extraspecial(s4, closure(s4, [s4_elem[(1, 0, 3, 2)]])).is_perfect_code is False,
        classify_sylow_extraspecial(s4, closure(s4, [s4_elem[(1, 0, 2, 3)]])).is_perfect_code is True,
    ]
    ok = not violations and all(spots)
    _report("sylow-extraspecial-classification", ok)
    assert ok, (violations[:5], spots)


def test_central_product_isomorphism_witness():
    """The two ways of centrally multiplying two order-8 factors with a unique
    central involution give isomorphic order-32 groups, verified exhaustively
    over all 32 x 32 products."""
    qq = central_product(construct.quaternion8(), construct.quaternion8())
    dd = central_product(construct.dihedral(8), construct.dihedral(8))
    mapping = isomorphic_small(qq, dd)
    ok = mapping is not None and sorted(mapping) == list(range(32))
    if ok:
        for a in range(32):
            for b in range(32):
                if mapping[qq.table[a][b]] != dd.table[mapping[a]][mapping[b]]:
                    ok = False
    _report("central-product-isomorphism-witness", ok)
    assert ok


def test_extraspecial_structure_suite():
    """Structural facts for both families at m <= 2: centre of order 2 equal
    to the derived and Frattini subgroups, a unique non-trivial square,
    exponent 4, every exponent-4 subgroup normal, the expected maximal
    abelian shapes, and a non-degenerate commutator form."""
    expected_shapes = {
        ("G(1,1)"): {(4,), (2, 2)},
        ("G(1,2)"): {(4,)},
        ("G(2,1)"): {(2, 4), (2, 2, 2)},
        ("G(2,2)"): {(2, 4)},
    }
    names = {0: "G(1,1)", 1: "G(1,2)", 2: "G(2,1)", 3: "G(2,2)"}
    violations = []
    for idx, G in enumerate(_families()):
        label = names[idx]
        full = full_subgroup(G)
        Z = center(G, full)
        if len(Z) != 2:
            violations.append((label, "centre size", len(Z)))
        if derived_subgroup(G, full).elements != Z.elements:
            violations.append((label, "derived != centre"))
        if frattini_subgroup(G, full).elements != Z.elements:
            violations.append((label, "frattini != centre"))
        if len(squares(G)) != 1:
            violations.append((label, "squares", sorted(squares(G))))
        orders = element_orders(G)
        if max(orders) != 4:
            violations.append((label, "exponent", max(orders)))
        shapes = set()
        for H in all_subgroups(G):
            if any(orders[h] == 4 for h in H.elements):
                if not is_normal(G, H):
                    violations.append((label, H.indices(), "exponent-4 not normal"))
            if is_maximal_abelian(G, H):
                shapes.add(abelian_invariants(G, H).cyclic_factors)
        if shapes != expected_shapes[label]:
            violations.append((label, "maximal abelian shapes", shapes))
        form = symplectic_form(G)  # raises if degenerate
        if form.dimension != 2 * is_extraspecial(G).m:
            violations.append((label, "form dimension", form.dimension))
    ok = not violations
    _report("extraspecial-structure", ok)
    assert ok, violations[:5]


def test_groups_without_order4_elements_are_code_perfect():
    """In Z2^k (k <= 4) and every corpus group with no element of order 4,
    every subgroup is a perfect code."""
    violations = []
    groups = [construct.elementary_abelian(k) for k in (1, 2, 3, 4)]
    groups += [
        e.group
        for e in builtin_corpus()
        if all(o != 4 for o in element_orders(e.group))
    ]
    for G in groups:
        for H in all_subgroups(G):
            if not decide(G, H).is_perfect_code:
                violations.append((G.name, H.indices()))
    ok = not violations
    _report("code-perfect-groups", ok)
    assert ok, violations[:5]


def test_exhaustive_graph_oracle_confirms_decision():
    """For D8 and Q8, brute force over every inverse-closed connection set
    agrees with the fast decision on every subgroup."""
    violations = []
    for G in (construct.dihedral(8), construct.quaternion8()):
        for H in all_subgroups(G):
            oracle = search_connection_set(G, H) is not None
            fast = decide(G, H).is_perfect_code
            if oracle != fast:
                violations.append((G.name, H.indices(), oracle, fast))
    ok = not violations
    _report("graph-search-oracle", ok)
    assert ok, violations[:5]


def _extraspecial_non_codes(m: int, family: Family) -> int:
    """Non-code subgroups of an extraspecial group of order 2^(2m+1), by
    arithmetic alone: the totally isotropic subspaces of F_2^(2m) of
    dimension k, for k < m (GM1) or k <= m (GM2), each counted as
    prod_{i<k} (2^(2(m-i)) - 1) / (2^(i+1) - 1)."""
    total = 0
    for k in range(m if family is Family.GM1 else m + 1):
        count = 1
        for i in range(k):
            count = count * (4 ** (m - i) - 1) // (2 ** (i + 1) - 1)
        total += count
    return total


def test_extraspecial_non_code_counts_match_closed_form():
    """decide finds exactly the closed-form number of non-codes among all
    subgroups of each extraspecial family group at m <= 3."""
    expected = {(1, Family.GM1): 1, (1, Family.GM2): 4, (2, Family.GM1): 16,
                (2, Family.GM2): 31, (3, Family.GM1): 379, (3, Family.GM2): 514}
    counts = {}
    for m, family in expected:
        assert _extraspecial_non_codes(m, family) == expected[m, family]
        G = build_family(m, family)
        counts[m, family] = sum(
            not decide(G, H).is_perfect_code for H in all_subgroups(G, None, 128)
        )
    ok = counts == expected
    _report("extraspecial-non-code-counts", ok)
    assert ok, counts


def test_cyclic_subgroup_codes_match_closed_form():
    """A subgroup of order d of Z_n is a code iff d or n/d is odd, for every
    subgroup of Z_1 to Z_64 (one per divisor of n)."""
    violations = []
    for n in range(1, 65):
        G = construct.cyclic(n)
        subs = all_subgroups(G)
        if sorted(len(H) for H in subs) != [d for d in range(1, n + 1) if n % d == 0]:
            violations.append((n, "lattice"))
        for H in subs:
            d = len(H)
            if decide(G, H).is_perfect_code != (d % 2 == 1 or (n // d) % 2 == 1):
                violations.append((n, d))
    ok = not violations
    _report("cyclic-closed-form", ok)
    assert ok, violations[:5]


def test_nonsolvable_groups_cross_check():
    """Every criterion agrees on a subgroup of each conjugacy class of A5
    (9 classes), S5 (19) and A5 x Z2 (22), each row with two votes or more."""
    A5 = construct.alternating(5)
    groups = [A5, construct.symmetric(5), construct.direct_product(A5, construct.cyclic(2))]
    report = cross_check([make_entry(G) for G in groups], max_order=120, dedupe_conjugates=True)
    votes = min(len(r["verdicts"]) - len(r["same_as"]) for r in report.rows)
    s = report.summary
    ok = (s["rows"], s["disagreements"], s["unchecked"]) == (50, 0, 0) and votes >= 2
    _report("nonsolvable-cross-check", ok)
    assert ok, (s, votes)
