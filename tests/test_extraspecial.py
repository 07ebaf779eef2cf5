from __future__ import annotations

import random
from collections import Counter

import pytest

from oracles import (
    abelian_invariants,
    derived_subgroup,
    element_orders,
    extraspecial_by_definition,
    frattini_subgroup,
    is_maximal_abelian,
    isomorphic_small,
    omega1,
    relabel_rows,
    squares,
    sylow_extraspecial_clause,
    symplectic_form,
)
from perfcode import construct, extraspecial
from perfcode.codes import Criterion, decide
from perfcode.corpus import cross_check, make_entry
from perfcode.extraspecial import (
    ExtraspecialClassification,
    Family,
    build_family,
    central_product,
    classify_extraspecial,
    classify_sylow_extraspecial,
    is_extraspecial,
    sylow_2_classification,
)
from perfcode.group import (
    FiniteGroup,
    closure,
    full_subgroup,
    subgroup_as_group,
    trivial_subgroup,
)
from perfcode.subgroups import (
    all_subgroups,
    center,
    is_abelian_subgroup,
    is_normal,
    sylow_2_subgroup,
)


def _families():
    return [
        build_family(1, Family.GM1),
        build_family(1, Family.GM2),
        build_family(2, Family.GM1),
        build_family(2, Family.GM2),
    ]


def test_build_named_dihedral_involutions():
    G = construct.build_named("dihedral(8)")
    assert G.order == 8
    assert len(omega1(G)) == 6


def test_build_named_q8_involutions():
    G = construct.build_named("q8")
    assert len(omega1(G)) == 2


def test_build_named_sl23_sylow_is_quaternion():
    G = construct.build_named("sl23")
    assert G.order == 24
    P = sylow_2_subgroup(G, full_subgroup(G))
    sub, _ = subgroup_as_group(G, P)
    assert isomorphic_small(sub, construct.quaternion8()) is not None


def test_build_named_product():
    G = construct.build_named("product(dihedral(8),cyclic(3))")
    assert G.order == 24


def test_build_named_rejects_garbage():
    with pytest.raises(ValueError):
        construct.build_named("frobnicate(9)")


def test_central_product_order(d8):
    assert central_product(d8, d8).order == 32


def test_central_product_requires_unique_central_involution(d8):
    with pytest.raises(ValueError, match="central involutions"):
        central_product(construct.elementary_abelian(2), d8)


def test_central_product_factor_images(d8, q8):
    # the product must contain commuting copies of both factors that meet in
    # the centre and together generate everything
    G = central_product(d8, q8)
    Z = center(G, full_subgroup(G))
    order8 = [H for H in all_subgroups(G) if len(H) == 8]
    copies_d8 = [
        H
        for H in order8
        if isomorphic_small(subgroup_as_group(G, H)[0], d8) is not None
    ]
    copies_q8 = [
        H
        for H in order8
        if isomorphic_small(subgroup_as_group(G, H)[0], q8) is not None
    ]
    found = False
    for A in copies_d8:
        for B in copies_q8:
            commuting = all(
                G.table[a][b] == G.table[b][a] for a in A.elements for b in B.elements
            )
            if (
                commuting
                and A.elements & B.elements == Z.elements
                and len(closure(G, sorted(A.elements | B.elements))) == 32
            ):
                found = True
    assert found
    assert len(squares(G)) == 1


def test_q8q8_isomorphic_to_d8d8(d8, q8):
    qq = central_product(q8, q8)
    dd = central_product(d8, d8)
    mapping = isomorphic_small(qq, dd)
    assert mapping is not None


def test_d8q8_not_isomorphic_to_d8d8(d8, q8):
    dq = central_product(d8, q8)
    dd = central_product(d8, d8)
    assert len(omega1(dq)) != len(omega1(dd))
    assert isomorphic_small(dq, dd) is None


def test_build_family_base_cases(d8, q8):
    assert isomorphic_small(build_family(1, Family.GM1), d8) is not None
    assert isomorphic_small(build_family(1, Family.GM2), q8) is not None


def test_build_family_m2_involution_counts(g21, g22):
    assert g21.order == 32 and g22.order == 32
    assert len(omega1(g21)) == 20
    assert len(omega1(g22)) == 12


def test_build_family_rejects_bad_m():
    with pytest.raises(ValueError):
        build_family(0, Family.GM1)
    with pytest.raises(ValueError, match="cap"):
        build_family(4, Family.GM1)  # order 512


def test_is_extraspecial_rejects_z8():
    assert not is_extraspecial(construct.cyclic(8)).is_extraspecial


def test_is_extraspecial_rejects_d16_and_q16(q16):
    assert not is_extraspecial(construct.dihedral(16)).is_extraspecial
    assert not is_extraspecial(q16).is_extraspecial


def test_is_extraspecial_d8(d8):
    cls = is_extraspecial(d8)
    assert cls.is_extraspecial and cls.m == 1 and cls.family is Family.GM1


def test_is_extraspecial_q8q8_lands_in_gm1(q8):
    cls = is_extraspecial(central_product(q8, q8))
    assert cls.is_extraspecial and cls.m == 2 and cls.family is Family.GM1


def test_is_extraspecial_families():
    for m, family in ((1, Family.GM1), (1, Family.GM2), (2, Family.GM1), (2, Family.GM2)):
        cls = is_extraspecial(build_family(m, family))
        assert cls.is_extraspecial and cls.m == m and cls.family is family


@pytest.mark.parametrize("m", [1, 2, 3])
def test_involution_counts_follow_the_closed_form(m):
    assert len(omega1(build_family(m, Family.GM1))) == 4**m + 2**m
    assert len(omega1(build_family(m, Family.GM2))) == 4**m - 2**m


@pytest.mark.parametrize("family", [Family.GM1, Family.GM2])
def test_is_extraspecial_reads_family_of_relabelled_m3(family):
    G = build_family(3, family)
    perm = list(range(G.order))
    random.Random(3).shuffle(perm)
    R = FiniteGroup.from_table(relabel_rows(G, perm))
    assert is_extraspecial(R) == ExtraspecialClassification(True, m=3, family=family)


def test_sylow_classification_of_gm1_2_times_z3():
    G = construct.build_named("product(gm1(2),cyclic(3))")
    assert sylow_2_classification(G) == ExtraspecialClassification(
        True, m=2, family=Family.GM1
    )


@pytest.mark.parametrize("spec, family", [("gm1(2)", Family.GM1), ("gm2(2)", Family.GM2)])
def test_a_two_group_stores_one_classification(spec, family):
    # The Sylow 2-subgroup of a 2-group is all of G: it shares the P=G entry.
    entry = make_entry(construct.build_named(spec))
    G = entry.group
    stored = [key for key in G._store if key[0].__name__ == "_is_extraspecial"]
    assert stored == [(extraspecial._is_extraspecial.__wrapped__, (full_subgroup(G),))]
    expected = ExtraspecialClassification(True, m=2, family=family)
    assert is_extraspecial(G) == is_extraspecial(G, full_subgroup(G)) == expected
    assert sylow_2_classification(G) == expected
    assert len([key for key in G._store if key[0].__name__ == "_is_extraspecial"]) == 1


@pytest.mark.parametrize(
    "spec",
    ["gm1(2)", "gm2(2)", "product(gm1(2),cyclic(3))", "product(s4,cyclic(2))", "product(q8,q8)"],
)
def test_is_extraspecial_classifies_subgroups_in_place(spec):
    G = construct.build_named(spec)
    seen = set()
    for P in all_subgroups(G):
        if len(P) in (8, 32):
            cls = is_extraspecial(G, P)
            expected = extraspecial_by_definition(G, P)
            assert cls.is_extraspecial == (expected is not None), P.indices()
            assert (cls.m, cls.family) == (expected or (None, None)), P.indices()
            seen.add(cls.is_extraspecial)
    assert seen == {True, False}


def test_is_extraspecial_raises_when_count_matches_neither_family(monkeypatch):
    # every element but the identity counted as squaring to g^2 != 1
    monkeypatch.setattr(extraspecial, "_lookups", lambda G: (b"", b"", bytes(range(1, G.order))))
    with pytest.raises(RuntimeError, match="matches neither family at m=1"):
        is_extraspecial(build_family(1, Family.GM1))


def test_symplectic_form_d8(d8):
    form = symplectic_form(d8)
    assert form.dimension == 2
    assert form.matrix == ((0, 1), (1, 0))


def test_symplectic_form_matches_commutators():
    for G in _families():
        form = symplectic_form(G)
        for i, x in enumerate(form.basis_lifts):
            for j, y in enumerate(form.basis_lifts):
                commute = G.table[x][y] == G.table[y][x]
                assert form.matrix[i][j] == (0 if commute else 1)
                assert form.matrix[i][j] == form.matrix[j][i]
            assert form.matrix[i][i] == 0


def test_symplectic_form_dimension_and_rank():
    for G in _families():
        m = is_extraspecial(G).m
        form = symplectic_form(G)
        assert form.dimension == 2 * m  # non-degeneracy checked at construction


def test_symplectic_form_rejects_non_extraspecial():
    with pytest.raises(ValueError):
        symplectic_form(construct.cyclic(8))


def test_structure_invariants_of_families():
    for G in _families():
        full = full_subgroup(G)
        Z = center(G, full)
        assert len(Z) == 2
        assert derived_subgroup(G, full).elements == Z.elements
        assert frattini_subgroup(G, full).elements == Z.elements
        assert len(squares(G)) == 1
        orders = element_orders(G)
        assert max(orders) == 4
        for H in all_subgroups(G):
            if any(orders[h] == 4 for h in H.elements):
                assert is_normal(G, H)


def test_maximal_abelian_shapes_match_family():
    expected = {
        (1, Family.GM1): {(4,), (2, 2)},
        (1, Family.GM2): {(4,)},
        (2, Family.GM1): {(2, 4), (2, 2, 2)},
        (2, Family.GM2): {(2, 4)},
    }
    for (m, family), shapes in expected.items():
        G = build_family(m, family)
        found = {
            abelian_invariants(G, H).cyclic_factors
            for H in all_subgroups(G)
            if is_maximal_abelian(G, H)
        }
        assert found == shapes
        for H in all_subgroups(G):
            if is_maximal_abelian(G, H):
                assert len(H) == 2 ** (m + 1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_order_rule_is_the_maximal_abelian_test_on_abelian_normal_subgroups(m):
    # the rule classify_extraspecial decides its last clause by, both ways
    for family in Family:
        G = build_family(m, family)
        found = {
            (len(H) ** 2 == 2 * G.order, is_maximal_abelian(G, H))
            for H in all_subgroups(G)
            if is_abelian_subgroup(G, H) and is_normal(G, H)
        }
        assert found == {(False, False), (True, True)}, G.name


def test_classify_rejects_non_extraspecial(s4):
    with pytest.raises(ValueError):
        classify_extraspecial(s4, trivial_subgroup())


def test_classify_q8_maximal_abelian_is_not_code(q8):
    H = closure(q8, [1])  # a cyclic subgroup of order 4
    assert len(H) == 4 and is_maximal_abelian(q8, H)
    assert not classify_extraspecial(q8, H).is_perfect_code


def test_classify_d8_klein_is_code(d8):
    K = closure(d8, [2, 4])
    assert is_maximal_abelian(d8, K)
    verdict = classify_extraspecial(d8, K)
    assert verdict.is_perfect_code
    assert verdict.criterion is Criterion.EXTRASPECIAL


def test_classify_g21_center_is_not_code(g21):
    Z = center(g21, full_subgroup(g21))
    assert not classify_extraspecial(g21, Z).is_perfect_code
    assert not decide(g21, Z).is_perfect_code


def test_classify_agrees_with_decide_on_families():
    for G in _families():
        for H in all_subgroups(G):
            assert (
                classify_extraspecial(G, H).is_perfect_code
                == decide(G, H).is_perfect_code
            ), (G.name, H.indices())


def test_classify_sylow_rejects_wrong_sylow(q16):
    with pytest.raises(ValueError):
        classify_sylow_extraspecial(q16, trivial_subgroup())


def test_classify_sylow_spot_values(s4, s4_elem):
    three_cycle = closure(s4, [s4_elem[(1, 2, 0, 3)]])
    assert classify_sylow_extraspecial(s4, three_cycle).is_perfect_code
    double = closure(s4, [s4_elem[(1, 0, 3, 2)]])
    assert not classify_sylow_extraspecial(s4, double).is_perfect_code
    transposition = closure(s4, [s4_elem[(1, 0, 2, 3)]])
    assert classify_sylow_extraspecial(s4, transposition).is_perfect_code
    a4 = closure(s4, [s4_elem[(1, 2, 0, 3)], s4_elem[(0, 2, 3, 1)]])
    assert classify_sylow_extraspecial(s4, a4).is_perfect_code


def test_classify_sylow_agrees_with_decide(s4, sl23):
    for G in (s4, sl23):
        for H in all_subgroups(G):
            assert (
                classify_sylow_extraspecial(G, H).is_perfect_code
                == decide(G, H).is_perfect_code
            ), (G.name, H.indices())


def test_classify_sylow_odd_subgroups_are_codes(sl23):
    for H in all_subgroups(sl23):
        if len(H) % 2 == 1:
            assert classify_sylow_extraspecial(sl23, H).is_perfect_code


@pytest.mark.parametrize("second, family", [("dihedral(8)", Family.GM2), ("q8", Family.GM1)])
def test_sylow_classification_clauses_where_the_odd_part_acts(second, family):
    """SL(2,3) o D8 and SL(2,3) o Q8 have order 96 and extraspecial Sylow
    2-subgroups G(2,2) and G(2,1), on which the Z3 of SL(2,3) acts
    nontrivially.  Over one subgroup per conjugacy class every clause of
    ``classify_sylow_extraspecial`` decides rows; the maximal-abelian size
    gives a code under G(2,1) only.  The clause comes from the definitions
    (``sylow_extraspecial_clause``), and every criterion agrees."""
    G0 = central_product(construct.special_linear_2_3(), construct.build_named(second))
    perm = [0] + random.Random(11).sample(range(1, G0.order), G0.order - 1)
    G = FiniteGroup.from_table(relabel_rows(G0, perm), name=G0.name)
    assert sylow_2_classification(G) == ExtraspecialClassification(True, m=2, family=family)
    entry = make_entry(G)
    assert "sylow2-extraspecial" in entry.tags
    report = cross_check([entry], max_order=96, dedupe_conjugates=True)
    assert len(report.rows) == 46
    assert report.summary["disagreements"] == 0
    assert report.summary["unchecked"] == 0
    decided = Counter()
    for row in report.rows:
        clause = sylow_extraspecial_clause(G, frozenset(row["subgroup"]))
        code = row["verdicts"]["sylow-extraspecial-classification"]
        assert code == row["perfect_code"], row["subgroup"]
        assert code == (
            clause != "none" and (clause != "maximal-abelian" or family is Family.GM1)
        ), (clause, row["subgroup"])
        decided[clause] += 1
    assert decided == {
        "odd-order": 2, "non-abelian": 22, "normalizer": 5, "maximal-abelian": 5, "none": 12
    }
