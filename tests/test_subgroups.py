from __future__ import annotations

import gc
import random
import tracemalloc
from functools import reduce

import pytest
from hypothesis import example, given, settings

from oracles import (
    abelian_invariants,
    brute_centralizer,
    brute_closure,
    brute_grow_2_subgroup,
    brute_is_abelian,
    brute_is_normal,
    brute_normalizer,
    brute_right_cosets,
    brute_subgroups,
    conjugacy_class_sizes,
    as_subgroup,
    conjugate,
    conjugate_subgroup,
    derived_subgroup,
    element_order_multiset,
    frattini_subgroup,
    is_maximal_abelian,
    isomorphic_small,
    join_every_cyclic_lattice,
    mask_of,
    permutation_groups,
    reference_normalizer,
    relabel_rows,
    subgroup_from_elements,
    subspace_count,
)
from perfcode import construct, subgroups
from perfcode.codes import square_coset_condition
from perfcode.corpus import builtin_corpus, cross_check, make_entry
from perfcode.group import (
    FiniteGroup,
    closure,
    closure_elements,
    full_subgroup,
    generate,
    group_from_permutations,
    subgroup_as_group,
    trivial_subgroup,
)
from perfcode.subgroups import (
    _prime_factors,
    all_subgroups,
    center,
    coset_decomposition,
    is_abelian_subgroup,
    is_normal,
    minimal_conjugate,
    normalizer,
    sylow_2_overgroup,
    sylow_2_subgroup,
    two_part,
)


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


# The order 48-96 band of the sweep benchmark, whose rows are the slowest.
SWEEP_BAND = (
    "product(gm1(2),cyclic(3))",
    "product(s4,cyclic(2))",
    "dihedral(64)",
    "dihedral(96)",
    "dicyclic(48)",
    "product(q8,cyclic(6))",
)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize(
    "spec, count",
    [
        # D_2n has tau(n) + sigma(n) subgroups
        ("dihedral(64)", len(_divisors(32)) + sum(_divisors(32))),
        ("elementary(5)", subspace_count(5)),
        ("cyclic(128)", len(_divisors(128))),
    ],
)
def test_enumeration_closed_form_counts_up_to_order_128(spec, count):
    assert len(all_subgroups(construct.build_named(spec))) == count


def _relabelled(G: FiniteGroup, seed: int) -> tuple[FiniteGroup, list[int]]:
    """An isomorphic copy of G with seeded random labels, identity kept at 0,
    and the map from G's labels to the copy's."""
    perm = [0] + random.Random(seed).sample(range(1, G.order), G.order - 1)
    return FiniteGroup.from_table(relabel_rows(G, perm), name=f"{G.name}~{seed}"), perm


@pytest.mark.parametrize("spec", ["s4", "product(gm1(2),cyclic(3))", "dicyclic(32)"])
def test_enumeration_commutes_with_relabelling(spec):
    G = construct.build_named(spec)
    for seed in (1, 2):
        R, perm = _relabelled(G, seed)
        expected = {frozenset(perm[g] for g in H.elements) for H in all_subgroups(G)}
        assert {H.elements for H in all_subgroups(R)} == expected


@pytest.mark.parametrize("spec", ["s4", "sl23", "product(gm1(2),cyclic(3))", "dihedral(64)"])
def test_recorded_generators_close_to_the_subgroup(spec):
    G = construct.build_named(spec)
    for H in all_subgroups(G):
        assert closure_elements(G, H.generators) == H.elements, H.indices()


GENERATE_CASES = {
    "corpus": lambda: [entry.group for entry in builtin_corpus()],
    "relabelled": lambda: [
        _relabelled(construct.build_named(spec), 9)[0]
        for spec in ("s4", "sl23", "dicyclic(32)", "product(gm1(2),cyclic(3))")
    ],
    "A5": lambda: [construct.alternating(5)],
    "S5": lambda: [construct.symmetric(5)],
}


@pytest.mark.parametrize("case", sorted(GENERATE_CASES))
def test_generate_extends_a_subgroup(case):
    """``generate(G, gens, K)`` is the closure of K and ``gens``, packed
    increasing, recording K's generators and then each g of ``gens``
    outside the span of those before it; K defaults to the trivial
    subgroup.  The lattices of A5 and S5 come from the fallback round."""
    for G in GENERATE_CASES[case]():
        rng = random.Random(G.order)
        for K in all_subgroups(G, None, G.order):
            gens = rng.sample(range(G.order), min(3, G.order))
            for J, start in ((generate(G, gens, K), K), (generate(G, gens), trivial_subgroup())):
                label = (G.name, K.indices(), gens)
                assert J.elements == brute_closure(G, [*start.members, *gens]), label
                assert list(J.members) == sorted(J.elements) and J.mask == mask_of(J.members), label
                recorded, span = list(start.generators), start.elements
                for g in gens:
                    if g not in span:
                        recorded.append(g)
                        span = brute_closure(G, [*span, g])
                assert J.generators == tuple(recorded), label


@pytest.mark.parametrize("G", [construct.symmetric(4), construct.alternating(5)], ids=["s4", "a5"])
def test_every_subgroup_builder_packs_members_increasing(G):
    """``Subgroup`` takes its members as given, so every builder must hand
    them over strictly increasing, with the bitmask of exactly those."""
    rng = random.Random(G.order)

    def packed(K, label):
        assert all(a < b for a, b in zip(K.members, K.members[1:])), label
        assert K.mask == mask_of(K.members), label

    packed(full_subgroup(G), "full")
    for H in all_subgroups(G, None, G.order):
        packed(H, H.indices())
        made = {
            "closure": closure(G, rng.sample(range(G.order), 2)),
            "center": center(G, H),
            "normalizer": normalizer(G, H),
            "sylow_2_subgroup": sylow_2_subgroup(G, H),
            "minimal_conjugate": minimal_conjugate(G, H),
        }
        if two_part(len(H)) == len(H):
            made["sylow_2_overgroup"] = sylow_2_overgroup(G, H)
        for op, K in made.items():
            packed(K, (op, H.indices()))


@given(permutation_groups(min_degree=4))
@example(construct.alternating(5))
@example(construct.symmetric(5))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_operator_results_record_generators_of_themselves(G):
    for H in all_subgroups(G):
        for op in (normalizer, center, sylow_2_subgroup, minimal_conjugate):
            K = op(G, H)
            assert closure_elements(G, K.generators) == K.elements, (op.__name__, H.indices())
        assert closure_elements(G, H.generators) == H.elements, H.indices()


@given(permutation_groups(min_degree=4))
@example(construct.alternating(5))
@example(construct.symmetric(5))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_coset_decompositions_match_brute_force_on_random_groups(G):
    """Right cosets in G, each led by its least member, and those of them
    inside the normalizer."""
    for H in all_subgroups(G):
        for within in (None, normalizer(G, H)):
            _assert_matches_brute_cosets(G, H, within)


@pytest.mark.parametrize("spec", SWEEP_BAND)
def test_normalizer_matches_the_reference_walk_on_the_band(spec):
    G = construct.build_named(spec)
    _assert_normalizers_match_reference(G, all_subgroups(G))


@given(permutation_groups(min_degree=4))
@example(construct.alternating(5))
@example(construct.symmetric(5))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_normalizer_matches_the_reference_walk_on_random_groups(G):
    _assert_normalizers_match_reference(G, all_subgroups(G))


def _assert_normalizers_match_reference(G, subs):
    """``normalizer`` against the reference walk of G, members and recorded
    generators alike, and against the brute-force normalizer."""
    for H in subs:
        N, walked = normalizer(G, H), reference_normalizer(G, H)
        assert (N.members, N.generators) == (walked.members, walked.generators), H.indices()
        assert N.elements == brute_normalizer(G, H.elements), H.indices()


@pytest.mark.parametrize(
    "spec",
    [
        "s4",
        "sl23",
        "product(s3,s3)",
        "dicyclic(48)",
        "dihedral(64)",
        "product(cyclic(9),dihedral(8))",
        "product(gm1(2),cyclic(3))",
        "product(dihedral(10),cyclic(10))",
        "product(cyclic(3),cyclic(27))",
    ],
)
def test_lattice_matches_join_every_cyclic_on_solvable_groups(spec):
    G, _ = _relabelled(construct.build_named(spec), 6)
    subs = all_subgroups(G)
    assert [H.elements for H in subs] == [H.elements for H in join_every_cyclic_lattice(G)]
    for H in subs:
        assert closure_elements(G, H.generators) == H.elements, H.indices()


NONSOLVABLE = {
    "A5": lambda: construct.alternating(5),
    "S5": lambda: construct.symmetric(5),
    "A5xZ2": lambda: construct.direct_product(construct.alternating(5), construct.cyclic(2)),
    "PSL(2,7)": lambda: group_from_permutations(
        [[1, 2, 3, 4, 5, 6, 0], [1, 0, 4, 3, 2, 5, 6]], name="PSL(2,7)"
    ),
}


@pytest.mark.parametrize("name, count", [("A5", 59), ("S5", 156), ("A5xZ2", None), ("PSL(2,7)", 179)])
def test_lattice_matches_join_every_cyclic_on_nonsolvable_groups(name, count):
    """The normalizing round cannot reach these groups, so the lattice comes
    from the fallback round."""
    G = NONSOLVABLE[name]()
    subs = all_subgroups(G, None, G.order)
    assert [H.elements for H in subs] == [H.elements for H in join_every_cyclic_lattice(G)]
    if count is not None:
        assert len(subs) == count
    for H in subs:
        assert closure_elements(G, H.generators) == H.elements, H.indices()


@pytest.mark.parametrize("name", sorted(NONSOLVABLE))
def test_fallback_round_repeats_no_join(monkeypatch, name):
    """The fallback round joins a subgroup of the first round only with the
    cyclic subgroups that round passed over, so no (K, z) join repeats.
    First-round joins go through ``_normal_join``, whose right-multiplication
    column for z has z at entry 0; fallback joins through ``generate``."""
    first, fallback = [], []
    join, normal_join = subgroups.generate, subgroups._normal_join

    def recording(G, gens, K):
        (g,) = gens
        fallback.append((K.mask, g))
        return join(G, gens, K)

    def recording_normal(members, column, p):
        first.append((mask_of(members), column[0]))
        return normal_join(members, column, p)

    monkeypatch.setattr(subgroups, "generate", recording)
    monkeypatch.setattr(subgroups, "_normal_join", recording_normal)
    G = NONSOLVABLE[name]()
    all_subgroups(G, None, G.order)
    calls = first + fallback
    assert first and fallback and len(set(calls)) == len(calls)


@pytest.mark.parametrize("order", [24, 60])
def test_lattice_within_is_the_lattice_filtered(order):
    """Inside S5: S4 is solvable, A5 is not."""
    G = construct.symmetric(5)
    lattice = all_subgroups(G, None, G.order)
    W = next(H for H in lattice if len(H) == order)
    subs = all_subgroups(G, W)
    assert [H.elements for H in subs] == [H.elements for H in lattice if H.elements <= W.elements]
    for H in subs:
        assert closure_elements(G, H.generators) == H.elements, H.indices()


def _prime_index_containments(subs) -> int:
    return sum(
        1
        for J in subs
        for K in subs
        if K.elements < J.elements and _prime_factors(len(J) // len(K)) == [len(J) // len(K)]
    )


@pytest.mark.parametrize("spec", ["dihedral(64)", "dicyclic(128)", "gm2(3)"])
def test_lattice_joins_have_prime_index(monkeypatch, spec):
    """On a solvable group every join is a normal step of prime index, made
    by ``_normal_join``.  In a 2-group every subgroup of index 2 is normal,
    and each is reached from each of its index-2 subgroups exactly once."""
    G, _ = _relabelled(construct.build_named(spec), 7)
    indices = []
    join = subgroups._normal_join

    def counted(members, column, p):
        out = join(members, column, p)
        indices.append(len(out) // len(members))
        return out

    monkeypatch.setattr(subgroups, "_normal_join", counted)
    monkeypatch.setattr(subgroups, "generate", None)  # the fallback round never runs
    subs = all_subgroups(G)
    assert indices and all(_prime_factors(i) == [i] for i in indices)
    if spec == "dihedral(64)":
        assert len(indices) == 130
    if len(subs) < 100:
        assert len(indices) == _prime_index_containments(subs)


def test_lattice_is_stored_once_per_group():
    G = construct.build_named("gm1(2)")
    first = all_subgroups(G)
    assert all_subgroups(G, None, 128) is first
    assert all_subgroups(G, max_order=128) is first
    with pytest.raises(ValueError, match="enumeration"):
        all_subgroups(G, None, 16)


def test_enumeration_is_canonically_ordered(s4):
    subs = all_subgroups(s4)
    keys = [(len(H), H.mask) for H in subs]
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
            assert frozenset(conjugate(s4, h, x) for h in members) in subs


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


def test_sylow_choice_is_the_grown_one(s4):
    chosen = sylow_2_subgroup(s4, full_subgroup(s4))
    assert chosen.elements == brute_grow_2_subgroup(s4, {0}, 8)


def test_sylow_overgroup_contains_seed(s4, s4_elem):
    Q = closure(s4, [s4_elem[(1, 0, 3, 2)]])
    P = sylow_2_overgroup(s4, Q)
    assert Q.elements <= P.elements
    assert len(P) == 8
    subgroup_from_elements(s4, P.elements)


@pytest.mark.parametrize(
    "spec", ["s4", "gm2(2)", "product(gm1(2),cyclic(3))", "product(s4,cyclic(2))"]
)
def test_sylow_growth_matches_brute_force(spec):
    """Each growth step adjoins the least element of the whole normalizer
    outside the current subgroup that squares into it: from every 2-subgroup
    of G, and from the trivial subgroup inside every subgroup H."""
    G, _ = _relabelled(construct.build_named(spec), 4)
    target = two_part(G.order)
    for H in all_subgroups(G):
        label = H.indices()
        if len(H) & (len(H) - 1) == 0:
            grown = brute_grow_2_subgroup(G, H.elements, target)
            assert sylow_2_overgroup(G, H).elements == grown, label
        inside = brute_grow_2_subgroup(G, {0}, two_part(len(H)), H.elements)
        assert sylow_2_subgroup(G, H).elements == inside, label


def test_sylow_overgroup_of_a_sylow_subgroup_is_itself(g21, s4):
    # in a 2-group the overgroup is G's stored full subgroup, never a copy
    full = full_subgroup(g21)
    assert all(sylow_2_overgroup(g21, Q) is full for Q in all_subgroups(g21))
    P = sylow_2_subgroup(s4, full_subgroup(s4))
    assert len(P) == 8 and sylow_2_overgroup(s4, P) is P


def test_sylow_growth_stores_no_normalizer():
    G = construct.build_named("product(gm1(2),cyclic(3))")
    sylow_2_subgroup(G, full_subgroup(G))
    Q = closure(G, [next(g for g in G.elements() if G.element_orders[g] == 2)])
    sylow_2_overgroup(G, Q)
    assert not [key for key in G._store if key[0] is normalizer.__wrapped__]


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


def test_store_keys_ignore_how_arguments_are_spelled(s4_elem):
    G = construct.symmetric(4)
    H = closure(G, [s4_elem[(1, 0, 2, 3)]])
    assert coset_decomposition(G, H) is coset_decomposition(G, H, None)
    assert coset_decomposition(G, H) is coset_decomposition(G, H, within=None)
    with pytest.raises(TypeError):
        normalizer(G, K=H)
    with pytest.raises(TypeError):
        normalizer(G)
    with pytest.raises(TypeError):
        normalizer(G, H, unknown=None)


@pytest.mark.parametrize("spec", ["s4", "gm2(2)", "product(gm1(2),cyclic(3))"])
@pytest.mark.parametrize("recorded", [True, False])
def test_structure_operators_match_brute_force(spec, recorded):
    """Each operator against its element-by-element oracle, on every
    subgroup; normality also inside an ambient subgroup.  Without the
    generators the lattice recorded, the subgroups, each generated by all
    its members, go to a fresh copy of the group whose store has seen none
    of them."""
    G, _ = _relabelled(construct.build_named(spec), 5)
    subs = all_subgroups(G)
    if not recorded:
        G = FiniteGroup.from_table(G.table)
        subs = tuple(as_subgroup(H.elements) for H in subs)
    for i, H in enumerate(subs):
        W = subs[(3 * i + 1) % len(subs)]
        label = H.indices()
        for within, domain in ((None, None), (W, W.elements)):
            assert is_normal(G, H, within) == brute_is_normal(G, H.elements, domain), (label, within)
        N = normalizer(G, H)
        assert N.elements == brute_normalizer(G, H.elements), label
        assert closure_elements(G, N.generators) == N.elements, label
        assert center(G, H).elements == brute_centralizer(G, H.elements, H.elements), label
        assert is_abelian_subgroup(G, H) == brute_is_abelian(G, H.elements), label


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
    assert dec.members[:: dec.stride] == b"\0"


def test_coset_decomposition_trivial_subgroup(s4):
    dec = coset_decomposition(s4, trivial_subgroup())
    assert dec.members[:: dec.stride] == bytes(range(24))


def test_coset_decomposition_a4_in_s4(s4, s4_elem):
    A = closure(s4, [s4_elem[(1, 2, 0, 3)], s4_elem[(0, 2, 3, 1)]])
    assert len(A) == 12
    dec = coset_decomposition(s4, A)
    assert len(dec.members[:: dec.stride]) == 2


def test_coset_decomposition_partitions(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 2, 3)], s4_elem[(1, 2, 0, 3)]])
    dec = coset_decomposition(s4, H)
    reps, blocks = dec.members[:: dec.stride], _blocks(dec)
    assert len(reps) == 24 // len(H)
    seen = [g for block in blocks for g in block]
    assert sorted(seen) == list(range(24))
    for i, block in enumerate(blocks):
        assert reps[i] == min(block)
        for g in block:
            assert dec.coset_of(g) == i
    for h in H.elements:
        assert dec.coset_of(h) == 0


def test_ambient_subgroup_must_contain_h():
    """H = {0, 1} in the ambient {0, 23} is refused before a coset is stored."""
    G = construct.symmetric(4)
    H, ambient = closure(G, [1]), closure(G, [23])
    assert len(H) == len(ambient) == 2 and H != ambient
    for scan in (coset_decomposition, square_coset_condition):
        with pytest.raises(ValueError, match="^ambient subgroup must contain H$"):
            scan(G, H, ambient)
    assert not [key for key in G._store if key[0] is subgroups._cosets.__wrapped__]


def _blocks(dec) -> list[bytes]:
    """The cosets of a decomposition, each its slice of ``members``."""
    s = dec.stride
    return [dec.members[i : i + s] for i in range(0, len(dec.members), s)]


def _assert_matches_brute_cosets(G, H, within=None):
    """The cosets of G's decomposition by H that are led by a member of the
    ambient subgroup (default: G) are the right cosets of H inside it: the
    same sorted members, led by their least, with each member mapped to
    its coset's index in G's decomposition.  The ambient subgroup shares
    G's decomposition."""
    dec = coset_decomposition(G, H, within)
    assert dec is coset_decomposition(G, H)
    ambient = full_subgroup(G) if within is None else within
    cosets = brute_right_cosets(G, H.elements, sorted(ambient.elements))
    reps, blocks = dec.members[:: dec.stride], _blocks(dec)
    led = [i for i, rep in enumerate(reps) if rep in ambient]
    assert [list(blocks[i]) for i in led] == cosets, H.indices()
    assert [reps[i] for i in led] == [c[0] for c in cosets], H.indices()
    for i, coset in zip(led, cosets):
        assert [dec.coset_of(g) for g in coset] == [i] * len(coset), H.indices()


def test_band_sweep_stores_cosets_per_subgroup_and_overgroups_once():
    """After the sweep of the band's groups, every stored decomposition is
    one of G by a subgroup, keyed by that subgroup alone, and each Sylow
    overgroup is stored: a second call returns the same object."""
    groups = [construct.build_named(spec) for spec in SWEEP_BAND]
    cross_check([make_entry(G) for G in groups], max_order=96)
    for G in groups:
        keys = [args for fn, args in G._store if fn is subgroups._cosets.__wrapped__]
        assert keys and all(len(args) == 1 for args in keys), G.name
        two_subgroups = [Q for Q in all_subgroups(G) if two_part(len(Q)) == len(Q)]
        for Q in two_subgroups:
            assert sylow_2_overgroup(G, Q) is sylow_2_overgroup(G, Q), (G.name, Q.indices())


def test_coset_decompositions_by_ambient_g_are_shared(g21):
    for H in all_subgroups(g21):
        P = sylow_2_overgroup(g21, H)
        assert len(P) == g21.order
        assert coset_decomposition(g21, H, full_subgroup(g21)) is coset_decomposition(g21, H)
        assert coset_decomposition(g21, H, P) is coset_decomposition(g21, H)


def test_structure_operators_return_lattice_members():
    for G in (construct.symmetric(4), construct.build_named("product(q8,cyclic(6))")):
        lattice = {H.elements: H for H in all_subgroups(G)}

        def member(K):
            return lattice.get(K.elements) == K

        for H in lattice.values():
            assert member(normalizer(G, H))
            assert member(sylow_2_subgroup(G, H))
            assert member(center(G, H))
            assert member(minimal_conjugate(G, H))
            if two_part(len(H)) == len(H):
                assert member(sylow_2_overgroup(G, H))


def test_lattice_adopts_subgroups_built_before_it(s4_elem):
    G = construct.symmetric(4)
    H = closure(G, [s4_elem[(1, 0, 2, 3)]])
    N = normalizer(G, H)
    P = sylow_2_subgroup(G, full_subgroup(G))
    lattice = all_subgroups(G)
    assert N in lattice
    assert P in lattice
    assert normalizer(G, H) is N


# Bytes that product(q8,q8)'s store holds after cross_check over its 133
# rows, by tracemalloc on CPython 3.11, with one coset decomposition of G
# per subgroup, each one packed sequence of its cosets end to end, and each
# subgroup a bitmask, packed members and its generators (144,514 when a
# decomposition was also stored per proper ambient subgroup; 228,878 when
# each coset was packed apart; 325,130 when every subgroup was one interned
# instance holding a frozenset; 1,710,480 when each decomposition kept a
# dict and each operator result a frozenset of its own).
Q8_Q8_STORE_BYTES = 132_953


def test_store_of_an_order_64_group_stays_compact():
    G = construct.build_named("product(q8,q8)")
    entry = make_entry(G)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = cross_check([entry], max_order=64)
        assert len(report.rows) == 133
        del report
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert G._store
    assert held < 2 * Q8_Q8_STORE_BYTES


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


@pytest.mark.parametrize("spec", ["s4", "product(gm1(2),cyclic(3))"])
def test_least_conjugates_match_brute_force(spec):
    G, _ = _relabelled(construct.build_named(spec), 3)
    for H in all_subgroups(G):
        conjugates = [frozenset(conjugate(G, h, x) for h in H.elements) for x in range(G.order)]
        assert minimal_conjugate(G, H).elements == min(conjugates, key=mask_of)
        if is_normal(G, H):
            assert minimal_conjugate(G, H) is H


@pytest.mark.parametrize(
    "spec",
    ["s4", "product(q8,cyclic(6))", "product(cyclic(4),elementary(2))"],
)
def test_least_conjugate_is_one_object_per_class(spec):
    """Every conjugate of H, built apart from the lattice, gets the one
    object of H's class, which records generators of itself, whichever
    member is asked first: the lattice is walked from its end."""
    G, _ = _relabelled(construct.build_named(spec), 8)
    for H in reversed(all_subgroups(G, None, G.order)):
        rep = minimal_conjugate(G, H)
        assert closure(G, rep.generators) == rep
        for x in G.elements():
            assert minimal_conjugate(G, conjugate_subgroup(G, H, x)) is rep, (H.indices(), x)


@pytest.mark.parametrize(
    "G",
    [_relabelled(construct.symmetric(4), 9)[0], construct.build_named("product(q8,cyclic(6))")],
    ids=["s4~9", "product(q8,cyclic(6))"],
)
def test_least_conjugates_are_lattice_objects_in_a_map_written_once(G):
    """Queries on lattice members and on closure-built copies of them return
    lattice objects and leave the class map as its one build wrote it."""
    lattice = all_subgroups(G)
    ids = set(map(id, lattice))
    classes = subgroups._least_conjugates(G)
    written = [(key, id(K)) for key, K in classes.items()]
    assert len(written) == len(lattice)
    for H in lattice:
        for query in (H, closure(G, H.members)):
            assert id(minimal_conjugate(G, query)) in ids, H.indices()
    assert subgroups._least_conjugates(G) is classes
    assert [(key, id(K)) for key, K in classes.items()] == written


@given(permutation_groups(min_degree=5))
@example(construct.alternating(5))
@example(construct.symmetric(5))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_lattice_and_least_conjugates_match_oracles_on_random_groups(G):
    """Subgroups of S5 drawn at degree 5, and A5 and S5 themselves, where the
    fallback round runs.  H^(hx) = H^x, so x runs over one element per right
    coset Hx."""
    subs = all_subgroups(G)
    assert [H.elements for H in subs] == [H.elements for H in join_every_cyclic_lattice(G)]
    for H in subs:
        xs = (coset[0] for coset in brute_right_cosets(G, H.elements))
        least = min((conjugate_subgroup(G, H, x) for x in xs), key=lambda K: K.mask)
        assert minimal_conjugate(G, H).elements == least.elements, H.indices()


DERIVED_CASES = {
    "corpus": lambda: [e.group for e in builtin_corpus(include_m3=True) if e.group.order <= 64],
    "relabelled": lambda: [
        _relabelled(e.group, 11)[0] for e in builtin_corpus(include_m3=True) if e.group.order <= 64
    ],
    "nonsolvable": lambda: [NONSOLVABLE[name]() for name in ("A5", "S5", "A5xZ2")],
}


@pytest.mark.parametrize("case", sorted(DERIVED_CASES))
def test_derived_mask_matches_the_oracle(case):
    """The stored G' is the subgroup that every commutator generates; in
    A5 x Z2 it is A5."""
    for G in DERIVED_CASES[case]():
        derived = derived_subgroup(G, full_subgroup(G))
        assert subgroups._derived_mask(G) == derived.mask, G.name
        if G.name == "A5xZ2":
            assert len(derived) == 60


@given(permutation_groups(min_degree=3))
@example(construct.alternating(5))
@example(construct.symmetric(5))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_derived_mask_matches_the_oracle_on_random_groups(G):
    assert subgroups._derived_mask(G) == derived_subgroup(G, full_subgroup(G)).mask


@pytest.mark.parametrize("spec", ["a4", "sl23"])
def test_derived_mask_takes_the_normal_closure(spec):
    """In A4 and SL(2,3) the commutator of the two recorded generators
    generates a subgroup of order 2 or 4 that is not normal; G' has order
    4 or 8, its normal closure."""
    G = construct.build_named(spec)
    t, inv, gens = G.table, G.inverse, full_subgroup(G).generators
    commutators = [t[t[inv[a]][inv[b]]][t[a][b]] for a in gens for b in gens]
    assert not brute_is_normal(G, closure_elements(G, commutators))
    derived = derived_subgroup(G, full_subgroup(G))
    assert len(derived) == G.order // 3
    assert subgroups._derived_mask(G) == derived.mask


ARITHMETIC_CASES = {
    "north_star": lambda: [e.group for e in builtin_corpus(include_m3=True)],
    "nonsolvable": DERIVED_CASES["nonsolvable"],
}


@pytest.mark.parametrize("case", sorted(ARITHMETIC_CASES))
def test_class_map_counts_by_arithmetic(case):
    """On every group of the north-star sweep and on A5, S5 and A5 x Z2: the
    lattice runs from 1 to G; the classes the class map picks have sizes
    |G : N_G(H)| that sum to the number of subgroups; and for each prime
    power p^k dividing |G| the subgroups of order p^k number 1 mod p
    (Frobenius)."""
    groups = ARITHMETIC_CASES[case]()
    assert len(groups) == (38 if case == "north_star" else 3)
    for G in groups:
        lattice = all_subgroups(G, None, G.order)
        assert len(lattice[0]) == 1 and len(lattice[-1]) == G.order, G.name
        representatives = [H for H in lattice if minimal_conjugate(G, H) is H]
        classes = sum(G.order // len(normalizer(G, H)) for H in representatives)
        assert classes == len(lattice), G.name
        orders = [len(H) for H in lattice]
        for p in _prime_factors(G.order):
            q = p
            while G.order % q == 0:
                assert orders.count(q) % p == 1, (G.name, q)
                q *= p


@pytest.mark.parametrize("spec", ["gm2(2)", "product(gm1(2),cyclic(3))"])
def test_least_conjugates_walk_no_orbit_from_a_subgroup_containing_g_prime(monkeypatch, spec):
    """A subgroup that contains G' is normal, so the class map conjugates
    only the others: one ``_distinct`` call per non-central conjugation table
    for each subgroup that does not contain G'."""
    G, _ = _relabelled(construct.build_named(spec), 12)
    lattice = all_subgroups(G)
    gens = full_subgroup(G).generators
    tables = sum(any(G.table[x][g] != G.table[g][x] for g in gens) for x in gens)
    derived = derived_subgroup(G, full_subgroup(G)).elements
    walked = sum(not derived <= H.elements for H in lattice)
    calls = []
    distinct = subgroups._distinct

    def counted(seq):
        calls.append(seq)
        return distinct(seq)

    monkeypatch.setattr(subgroups, "_distinct", counted)
    subgroups._least_conjugates(G)
    assert tables and walked < len(lattice)
    assert len(calls) == tables * walked


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
