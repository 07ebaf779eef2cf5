from __future__ import annotations

from functools import reduce

import pytest

from oracles import brute_subgroups, element_order_multiset, subspace_count
from perfcode import construct
from perfcode.group import closure, full_subgroup, subgroup_as_group, subgroup_from_elements, trivial_subgroup
from perfcode.subgroups import (
    abelian_invariants,
    all_subgroups,
    center,
    centralizer,
    conjugacy_class_sizes,
    coset_decomposition,
    derived_subgroup,
    frattini_subgroup,
    is_maximal_abelian,
    is_normal,
    isomorphic_small,
    minimal_conjugate,
    normalizer,
    sylow_2_overgroup,
    sylow_2_subgroup,
    two_part,
)
from perfcode.group import conjugate_subgroup


def test_two_part():
    assert [two_part(n) for n in (1, 2, 3, 8, 12, 24, 48)] == [1, 2, 1, 8, 4, 8, 16]


@pytest.mark.parametrize(
    "factory",
    [
        lambda: construct.elementary_abelian(2),
        lambda: construct.dihedral(8),
        lambda: construct.quaternion8(),
        lambda: construct.cyclic(12),
        lambda: construct.dihedral(12),
    ],
)
def test_enumeration_matches_brute_scan(factory):
    G = factory()
    fast = {H.elements for H in all_subgroups(G)}
    assert fast == set(brute_subgroups(G))


def test_enumeration_counts_klein_and_d8(d8):
    assert len(all_subgroups(construct.elementary_abelian(2))) == 5
    assert len(all_subgroups(d8)) == 10


def test_enumeration_count_s4(s4):
    assert len(all_subgroups(s4)) == 30


def test_enumeration_count_elementary_abelian_rank4():
    # subgroups of Z2^4 are exactly the GF(2) subspaces
    G = construct.elementary_abelian(4)
    assert len(all_subgroups(G)) == subspace_count(4)


def test_enumeration_is_canonically_ordered(s4):
    subs = all_subgroups(s4)
    keys = [(len(H), H.bitmask()) for H in subs]
    assert keys == sorted(keys)
    assert len(subs[0]) == 1 and len(subs[-1]) == s4.order


def test_enumerated_subgroups_satisfy_lagrange_and_closure(s4):
    for H in all_subgroups(s4):
        assert s4.order % len(H) == 0
        subgroup_from_elements(s4, H.elements)


def test_conjugates_of_enumerated_are_enumerated(s4):
    subs = {H.elements for H in all_subgroups(s4)}
    for members in subs:
        for x in s4.elements():
            assert frozenset(s4.conjugate(h, x) for h in members) in subs


def test_enumeration_cap(s4):
    with pytest.raises(ValueError, match="enumeration"):
        all_subgroups(s4, None, 16)


def test_sylow_of_odd_subgroup_is_trivial(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 2, 0, 3)]])  # a 3-cycle
    assert sylow_2_subgroup(s4, H).elements == frozenset({0})


def test_sylow_of_s4_is_dihedral(s4, d8):
    P = sylow_2_subgroup(s4, full_subgroup(s4))
    assert len(P) == 8
    sub, _ = subgroup_as_group(s4, P)
    assert isomorphic_small(sub, d8) is not None


def test_sylow_of_s3_inside_s4(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 2, 3)], s4_elem[(1, 2, 0, 3)]])  # S3 on {1,2,3}
    assert len(H) == 6
    assert len(sylow_2_subgroup(s4, H)) == 2


def test_sylow_order_is_two_part_everywhere(s4, sl23):
    for G in (s4, sl23):
        for H in all_subgroups(G):
            assert len(sylow_2_subgroup(G, H)) == two_part(len(H))


def test_all_sylow_2_subgroups_conjugate_in_s4(s4):
    sylows = [H for H in all_subgroups(s4) if len(H) == 8]
    assert len(sylows) == 3
    base = sylows[0]
    for other in sylows[1:]:
        assert any(
            conjugate_subgroup(s4, base, x).elements == other.elements
            for x in s4.elements()
        )


def test_sylow_choice_is_least_bitmask(s4):
    chosen = sylow_2_subgroup(s4, full_subgroup(s4))
    sylows = [H for H in all_subgroups(s4) if len(H) == 8]
    assert chosen.bitmask() == min(H.bitmask() for H in sylows)


def test_sylow_overgroup_contains_seed(s4, s4_elem):
    Q = closure(s4, [s4_elem[(1, 0, 3, 2)]])
    P = sylow_2_overgroup(s4, Q)
    assert Q.elements <= P.elements
    assert len(P) == 8
    subgroup_from_elements(s4, P.elements)


def test_normalizer_of_normal_subgroup_is_whole_group(s4, s4_elem):
    V = closure(s4, [s4_elem[(1, 0, 3, 2)], s4_elem[(2, 3, 0, 1)]])
    assert normalizer(s4, V).elements == frozenset(s4.elements())


def test_normalizer_of_transposition_subgroup(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 2, 3)]])
    N = normalizer(s4, H)
    expected = {0, s4_elem[(1, 0, 2, 3)], s4_elem[(0, 1, 3, 2)], s4_elem[(1, 0, 3, 2)]}
    assert N.elements == frozenset(expected)


def test_normalizer_is_stored_per_group(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 2, 3)]])
    assert normalizer(s4, H) is normalizer(s4, H)
    twin = construct.symmetric(4)
    assert normalizer(twin, H) is not normalizer(s4, H)
    assert normalizer(twin, H) == normalizer(s4, H)


def test_normalizer_of_double_transposition_subgroup(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 3, 2)]])
    N = normalizer(s4, H)
    assert len(N) == 8
    sub, _ = subgroup_as_group(s4, N)
    assert isomorphic_small(sub, construct.dihedral(8)) is not None


def test_normalizer_grows(s4):
    for H in all_subgroups(s4):
        N = normalizer(s4, H)
        assert H.elements <= N.elements
        assert N.elements <= normalizer(s4, N).elements


def test_center_of_abelian_group_is_itself():
    G = construct.cyclic(12)
    assert center(G, full_subgroup(G)).elements == frozenset(range(12))


def test_center_of_d8(d8):
    assert center(d8, full_subgroup(d8)).elements == frozenset({0, 2})


def test_centralizer_within(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 3, 2)]])
    C = centralizer(s4, H)
    assert len(C) == 8
    assert H.elements <= C.elements


def test_derived_subgroup_of_abelian_is_trivial():
    G = construct.cyclic(9)
    assert derived_subgroup(G, full_subgroup(G)).elements == frozenset({0})


def test_derived_and_frattini_of_d8_equal_center(d8):
    full = full_subgroup(d8)
    Z = center(d8, full)
    assert derived_subgroup(d8, full).elements == Z.elements
    assert frattini_subgroup(d8, full).elements == Z.elements


def test_frattini_of_z4():
    G = construct.cyclic(4)
    assert frattini_subgroup(G, full_subgroup(G)).elements == frozenset({0, 2})


def test_frattini_of_trivial_subgroup(d8):
    assert frattini_subgroup(d8, trivial_subgroup()).elements == frozenset({0})


def test_coset_decomposition_whole_group(s4):
    dec = coset_decomposition(s4, full_subgroup(s4))
    assert dec.representatives == (0,)


def test_coset_decomposition_trivial_subgroup(s4):
    dec = coset_decomposition(s4, trivial_subgroup())
    assert dec.representatives == tuple(range(24))


def test_coset_decomposition_a4_in_s4(s4, s4_elem):
    A = closure(s4, [s4_elem[(1, 2, 0, 3)], s4_elem[(0, 2, 3, 1)]])
    assert len(A) == 12
    dec = coset_decomposition(s4, A)
    assert len(dec.representatives) == 2


def test_coset_decomposition_partitions(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 2, 3)], s4_elem[(1, 2, 0, 3)]])
    dec = coset_decomposition(s4, H)
    assert len(dec.representatives) == 24 // len(H)
    seen = [g for block in dec.blocks for g in block]
    assert sorted(seen) == list(range(24))
    for i, block in enumerate(dec.blocks):
        assert dec.representatives[i] == min(block)
        for g in block:
            assert dec.coset_of(g) == i
    for h in H.elements:
        assert dec.coset_of(h) == 0


def test_abelian_invariants_trivial(d8):
    assert abelian_invariants(d8, trivial_subgroup()).cyclic_factors == ()


def test_abelian_invariants_z4_inside_q8(q8):
    H = next(H for H in all_subgroups(q8) if len(H) == 4)
    assert abelian_invariants(q8, H).cyclic_factors == (4,)


def test_abelian_invariants_klein_inside_d8(d8):
    H = closure(d8, [2, 4])
    assert abelian_invariants(d8, H).cyclic_factors == (2, 2)


def test_abelian_invariants_z12():
    G = construct.cyclic(12)
    assert abelian_invariants(G, full_subgroup(G)).cyclic_factors == (3, 4)


def test_abelian_invariants_reject_non_abelian(d8):
    with pytest.raises(ValueError):
        abelian_invariants(d8, full_subgroup(d8))


def test_abelian_invariants_match_cyclic_product_oracle(s4, sl23):
    # the claimed factors must reproduce the subgroup's element-order profile
    for G in (s4, sl23, construct.cyclic(16), construct.dihedral(16)):
        for H in all_subgroups(G):
            from perfcode.subgroups import is_abelian_subgroup

            if not is_abelian_subgroup(G, H):
                continue
            factors = abelian_invariants(G, H).cyclic_factors
            assert reduce(lambda a, b: a * b, factors, 1) == len(H)
            model = reduce(
                construct.direct_product,
                [construct.cyclic(f) for f in factors],
                construct.cyclic(1),
            )
            assert element_order_multiset(model, model.elements()) == (
                element_order_multiset(G, H.elements)
            )


def test_maximal_abelian_rotation_subgroup(d8):
    assert is_maximal_abelian(d8, closure(d8, [1]))


def test_center_of_d8_not_maximal_abelian(d8):
    assert not is_maximal_abelian(d8, closure(d8, [2]))


def test_abelian_group_is_maximal_abelian_in_itself():
    G = construct.cyclic(10)
    assert is_maximal_abelian(G, full_subgroup(G))


def test_is_normal(s4, s4_elem):
    V = closure(s4, [s4_elem[(1, 0, 3, 2)], s4_elem[(2, 3, 0, 1)]])
    H = closure(s4, [s4_elem[(1, 0, 2, 3)]])
    assert is_normal(s4, V)
    assert not is_normal(s4, H)


def test_minimal_conjugate_is_invariant(s4):
    for H in all_subgroups(s4):
        rep = minimal_conjugate(s4, H)
        for x in s4.elements():
            assert minimal_conjugate(s4, conjugate_subgroup(s4, H, x)) == rep


def test_conjugacy_class_sizes_s4(s4):
    sizes = conjugacy_class_sizes(s4)
    assert sizes[0] == 1
    assert sorted(set(sizes)) == [1, 3, 6, 8]
    assert sum(1 / s for s in sizes) == pytest.approx(5.0)  # 5 conjugacy classes


def test_isomorphic_small_self_map(s4):
    mapping = isomorphic_small(s4, s4)
    assert mapping is not None
    assert sorted(mapping) == list(range(24))


def test_isomorphic_small_d8_vs_q8(d8, q8):
    assert isomorphic_small(d8, q8) is None


def test_isomorphic_small_z4_vs_klein():
    assert isomorphic_small(construct.cyclic(4), construct.elementary_abelian(2)) is None


def test_isomorphic_small_d6_vs_s3():
    mapping = isomorphic_small(construct.dihedral(6), construct.symmetric(3))
    assert mapping is not None


def test_isomorphic_small_d12_vs_a4():
    assert isomorphic_small(construct.dihedral(12), construct.alternating(4)) is None


def test_isomorphic_small_order_cap():
    G = construct.elementary_abelian(4)
    big = construct.direct_product(G, G)
    with pytest.raises(ValueError):
        isomorphic_small(big, big)
