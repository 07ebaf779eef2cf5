from __future__ import annotations

import random
import re
import sys
import time
from dataclasses import replace
from enum import IntEnum
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    abelian_square_test,
    as_subgroup,
    brute_double_coset_counterexample,
    brute_first_transversal,
    brute_inverse_closed_transversal_exists,
    brute_is_perfect_code,
    brute_right_cosets,
    brute_square_coset_counterexample,
    brute_is_abelian,
    conjugate,
    conjugate_subgroup,
    connection_set_from_transversal,
    corpus_products,
    has_element_of_order_4,
    permutation_groups,
    reduction_statements,
    relabel_rows,
)
from perfcode import codes, construct
from perfcode.codes import (
    Criterion,
    connection_set,
    decide,
    double_coset_condition,
    find_inverse_closed_transversal,
    is_perfect_code_in_cayley_graph,
    omega_coset_sets,
    omega_criterion,
    search_connection_set,
    square_coset_condition,
    sylow_reduction,
    verdict_to_json,
)
from perfcode.corpus import builtin_corpus
from perfcode.group import (
    FiniteGroup,
    _distinct,
    _lookup,
    _zeros,
    closure,
    full_subgroup,
    trivial_subgroup,
)
from perfcode.subgroups import (
    all_subgroups,
    coset_decomposition,
    normalizer,
    sylow_2_overgroup,
)


def test_connection_set_rejects_identity(d8):
    with pytest.raises(ValueError, match="identity"):
        connection_set(d8, {0, 4})


def test_connection_set_rejects_non_inverse_closed(d8):
    # index 1 is the order-4 rotation; its inverse (index 3) is missing
    with pytest.raises(ValueError, match="inverse"):
        connection_set(d8, {1, 4})


def test_complete_graph_singleton_code(d8):
    S = connection_set(d8, set(range(1, 8)))
    assert is_perfect_code_in_cayley_graph(d8, S, {0})


def test_empty_graph_full_code(d8):
    S = connection_set(d8, set())
    assert is_perfect_code_in_cayley_graph(d8, S, set(d8.elements()))


def test_d8_center_is_never_a_code(d8):
    # exhaustive over all inverse-closed connection sets of D8
    assert search_connection_set(d8, closure(d8, [2])) is None


def test_graph_check_rejects_dependent_code(d8):
    S = connection_set(d8, {2})
    assert not is_perfect_code_in_cayley_graph(d8, S, {0, 2})


def test_graph_check_validates_the_connection_set(d8):
    with pytest.raises(ValueError, match="identity"):
        is_perfect_code_in_cayley_graph(d8, {0, 4}, {0})
    with pytest.raises(ValueError, match="inverse"):
        is_perfect_code_in_cayley_graph(d8, {1, 4}, {0, 2})


def test_graph_check_rejects_code_indices_out_of_range(d8):
    for bad in (-1, 8):
        with pytest.raises(ValueError, match="out of range"):
            is_perfect_code_in_cayley_graph(d8, set(range(1, 8)), [bad])


class _Index(IntEnum):
    THREE = 3


@pytest.mark.parametrize("bad", [1.5, "4", True, _Index.THREE], ids=repr)
def test_element_indices_must_be_exact_ints(d8, bad):
    # int() would read 1.5 as 1, "4" as 4 and True as 1: an index must be an int
    message = re.escape(f"element list entry {bad!r} is not an integer")
    with pytest.raises(ValueError, match=message):
        connection_set(d8, [bad, 3])
    with pytest.raises(ValueError, match=message):
        is_perfect_code_in_cayley_graph(d8, set(range(1, 8)), [bad])
    with pytest.raises(ValueError, match=message):
        connection_set_from_transversal(d8, closure(d8, [2]), [0, bad])


@pytest.mark.parametrize("bad", [-1, 8, 1 << 70])
def test_element_lists_reject_indices_out_of_range(d8, bad):
    # one check serves every element list from outside: a ValueError that
    # names the entry, never an IndexError from a lookup deeper down
    message = f"list entry {bad} out of range for order 8"
    with pytest.raises(ValueError, match=message):
        connection_set_from_transversal(d8, closure(d8, [2]), [0, bad])
    with pytest.raises(ValueError, match=message):
        is_perfect_code_in_cayley_graph(d8, set(range(1, 8)), [0, bad])
    with pytest.raises(ValueError, match=message):
        closure(d8, [2, bad])


def _inverse_pairs(G: FiniteGroup) -> list[frozenset[int]]:
    return sorted({frozenset({g, G.inverse[g]}) for g in range(1, G.order)}, key=min)


def test_graph_check_matches_brute_oracle_on_every_code_of_d8_and_q8(d8, q8):
    # every connection set, with every code C of the size |G| / (|S| + 1)
    # the definition requires, subgroup or not, and one size either side
    for G in (d8, q8):
        pairs = _inverse_pairs(G)
        for r in range(len(pairs) + 1):
            for chosen in combinations(pairs, r):
                S = frozenset().union(*chosen)
                size = G.order // (len(S) + 1)
                for k in {size - 1, size, size + 1}:
                    for C in combinations(range(G.order), k):
                        expected = brute_is_perfect_code(G, S, C)
                        assert is_perfect_code_in_cayley_graph(G, S, C) == expected, (
                            G.name, sorted(S), C,
                        )


def test_graph_check_matches_brute_oracle_on_witnesses(s4, a4, sl23):
    # each transversal witness, the same with one inverse pair dropped, and
    # random codes (mostly not subgroups) of the size the witness requires
    rng = random.Random(3)
    for G in (s4, a4, sl23, construct.dihedral(12)):
        for H in all_subgroups(G):
            T = find_inverse_closed_transversal(G, H)
            if T is None:
                continue
            S = connection_set_from_transversal(G, H, T)
            assert is_perfect_code_in_cayley_graph(G, S, H)
            assert brute_is_perfect_code(G, S, H.elements)
            for pair in _inverse_pairs(G):
                if pair <= S:
                    dropped = S - pair
                    assert not is_perfect_code_in_cayley_graph(G, dropped, H)
                    assert not brute_is_perfect_code(G, dropped, H.elements)
                    break
            for _ in range(3):
                size = G.order // (len(S) + 1)
                C = rng.sample(range(G.order), size)
                expected = brute_is_perfect_code(G, S, C)
                assert is_perfect_code_in_cayley_graph(G, S, C) == expected, (
                    G.name, H.indices(), C,
                )


def test_search_connection_set_order_cap(g21):
    with pytest.raises(ValueError):
        search_connection_set(g21, trivial_subgroup())


def test_transversal_of_whole_group(d8):
    T = find_inverse_closed_transversal(d8, full_subgroup(d8))
    assert T is not None
    assert T == (0,)


def test_transversal_of_trivial_subgroup(d8):
    T = find_inverse_closed_transversal(d8, trivial_subgroup())
    assert T is not None
    assert frozenset(T) == frozenset(d8.elements())


def test_no_transversal_for_d8_center(d8):
    assert find_inverse_closed_transversal(d8, closure(d8, [2])) is None


def test_transversal_for_transposition_subgroup(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 2, 3)]])
    T = find_inverse_closed_transversal(s4, H)
    assert T is not None
    assert len(T) == 12
    reps = frozenset(T)
    assert reps == frozenset(s4.inverse[g] for g in reps)
    S = connection_set_from_transversal(s4, H, T)
    assert is_perfect_code_in_cayley_graph(s4, S, H)


def _relabelled(G: FiniteGroup, seed: int) -> FiniteGroup:
    """An isomorphic copy of G with seeded random element labels."""
    perm = list(range(G.order))
    random.Random(seed).shuffle(perm)
    return FiniteGroup.from_table(relabel_rows(G, perm), name=f"{G.name}~{seed}")


def test_transversal_search_matches_brute_oracle():
    base = (
        construct.dihedral(8),
        construct.quaternion8(),
        construct.cyclic(8),
        construct.cyclic(12),
        construct.dihedral(16),
        construct.dicyclic(16),
    )
    relabelled = tuple(_relabelled(G, seed) for seed in (1, 2) for G in base)
    for G in base + relabelled:
        for H in all_subgroups(G):
            T = find_inverse_closed_transversal(G, H)
            assert (T is not None) == brute_inverse_closed_transversal_exists(G, H), (
                G.name,
                H.indices(),
            )
            if T is not None:
                S = connection_set_from_transversal(G, H, T)
                assert is_perfect_code_in_cayley_graph(G, S, H), (G.name, H.indices())


def test_transversal_dead_end_is_local_to_its_double_coset_pair():
    # an order-4 subgroup of G(2,1) x Z3 (order 96) that is not a code; a
    # search across all cosets at once backtracks for seconds before failing
    G = construct.build_named("product(gm1(2),cyclic(3))")
    H = as_subgroup({0, 6, 60, 66})
    assert any(K.elements == H.elements for K in all_subgroups(G))
    assert not decide(G, H).is_perfect_code
    start = time.perf_counter()
    assert find_inverse_closed_transversal(G, H) is None
    assert time.perf_counter() - start < 0.5


def _stack_depth() -> int:
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_transversal_recursion_depth_is_bounded_by_pair_size():
    # the trivial subgroup of Z256 has 256 cosets but no double-coset pair
    # larger than two, so the search needs only a few frames
    G = construct.cyclic(256)
    H = trivial_subgroup()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        T = find_inverse_closed_transversal(G, H)
    finally:
        sys.setrecursionlimit(limit)
    assert T is not None
    assert frozenset(T) == frozenset(G.elements())


def test_connection_set_from_transversal_roundtrip_a4(s4, s4_elem):
    A = closure(s4, [s4_elem[(1, 2, 0, 3)], s4_elem[(0, 2, 3, 1)]])
    T = (0, s4_elem[(1, 0, 2, 3)])
    S = connection_set_from_transversal(s4, A, T)
    assert S == frozenset({s4_elem[(1, 0, 2, 3)]})
    assert is_perfect_code_in_cayley_graph(s4, S, A)


def test_connection_set_from_transversal_requires_identity(s4, s4_elem):
    A = closure(s4, [s4_elem[(1, 2, 0, 3)], s4_elem[(0, 2, 3, 1)]])
    bad = (s4_elem[(1, 0, 2, 3)], s4_elem[(0, 1, 3, 2)])
    with pytest.raises(ValueError, match="identity"):
        connection_set_from_transversal(s4, A, bad)


def test_connection_set_from_transversal_requires_inverse_closed(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 2, 3)], s4_elem[(0, 1, 3, 2)]])  # order 4
    four_cycle = s4_elem[(1, 2, 3, 0)]
    # identity plus one 4-cycle is not inverse-closed
    bad = (0, four_cycle)
    with pytest.raises(ValueError):
        connection_set_from_transversal(s4, H, bad)


def test_square_coset_whole_group(d8):
    assert square_coset_condition(d8, full_subgroup(d8)).is_perfect_code


def test_square_coset_d8_center(d8):
    verdict = square_coset_condition(d8, closure(d8, [2]))
    assert not verdict.is_perfect_code
    assert verdict.counterexample == 1  # the order-4 rotation
    assert verdict.criterion is Criterion.SQUARE_COSET


def test_square_coset_transposition_subgroup(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 2, 3)]])
    assert square_coset_condition(s4, H).is_perfect_code


def test_double_coset_whole_group(d8):
    assert double_coset_condition(d8, full_subgroup(d8)).is_perfect_code


def test_double_coset_d8_center(d8):
    verdict = double_coset_condition(d8, closure(d8, [2]))
    assert not verdict.is_perfect_code
    assert verdict.counterexample == 1


def test_double_coset_normal_klein(s4, s4_elem):
    V = closure(s4, [s4_elem[(1, 0, 3, 2)], s4_elem[(2, 3, 0, 1)]])
    assert double_coset_condition(s4, V).is_perfect_code


def test_square_and_double_agree_on_small_corpus(s4, sl23, q16):
    for G in (s4, sl23, q16, construct.dihedral(16)):
        for H in all_subgroups(G):
            a = square_coset_condition(G, H).is_perfect_code
            b = double_coset_condition(G, H).is_perfect_code
            assert a == b, (G.name, H.indices())


def test_coset_counterexamples_are_the_least_failing_x():
    for entry in builtin_corpus():
        G = entry.group
        if G.order > 32:
            continue
        for H in all_subgroups(G):
            label = (G.name, H.indices())
            square = square_coset_condition(G, H)
            assert square.counterexample == brute_square_coset_counterexample(G, H.elements), label
            assert square.is_perfect_code == (square.counterexample is None), label
            double = double_coset_condition(G, H)
            assert double.counterexample == brute_double_coset_counterexample(G, H.elements), label
            assert double.is_perfect_code == (double.counterexample is None), label
            N = normalizer(G, H)
            within = square_coset_condition(G, H, within=N).counterexample
            assert within == brute_square_coset_counterexample(G, H.elements, N.elements), label


def test_omega_coset_sets_trivial_subgroup(d8):
    quotient, lifted = omega_coset_sets(d8, full_subgroup(d8), trivial_subgroup())
    omega = frozenset(g for g in d8.elements() if d8.table[g][g] == 0)
    assert quotient == omega
    assert lifted == omega


def test_omega_coset_sets_d8_center(d8):
    Z = closure(d8, [2])
    quotient, lifted = omega_coset_sets(d8, full_subgroup(d8), Z)
    assert len(quotient) == 4
    assert len(lifted) == 3
    assert lifted < quotient
    assert 1 in quotient - lifted  # the rotation coset {r, r^3}


def test_omega_coset_sets_klein_pair(s4, s4_elem):
    N = closure(s4, [s4_elem[(1, 0, 2, 3)], s4_elem[(0, 1, 3, 2)]])
    H = closure(s4, [s4_elem[(1, 0, 2, 3)]])
    quotient, lifted = omega_coset_sets(s4, N, H)
    assert quotient == lifted
    assert len(quotient) == 2


def test_omega_coset_sets_requires_normality(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 2, 3)]])
    with pytest.raises(ValueError, match="normal"):
        omega_coset_sets(s4, full_subgroup(s4), H)


def test_lifted_always_contained_in_quotient(s4, q16):
    for G in (s4, q16):
        for H in all_subgroups(G):
            N = normalizer(G, H)
            quotient, lifted = omega_coset_sets(G, N, H)
            assert lifted <= quotient


def test_omega_criterion_trivial(d8):
    H = trivial_subgroup()
    assert omega_criterion(d8, H, normalizer(d8, H)).is_perfect_code


def test_omega_criterion_d8_center(d8):
    Z = closure(d8, [2])
    verdict = omega_criterion(d8, Z, normalizer(d8, Z))
    assert not verdict.is_perfect_code
    assert verdict.criterion is Criterion.OMEGA_QUOTIENT


def test_omega_criterion_normal_klein(s4, s4_elem):
    V = closure(s4, [s4_elem[(1, 0, 3, 2)], s4_elem[(2, 3, 0, 1)]])
    assert omega_criterion(s4, V, normalizer(s4, V)).is_perfect_code


def test_omega_criterion_precondition(s4, s4_elem):
    # H must lie in N and be normal there
    H = closure(s4, [s4_elem[(1, 2, 0, 3)]])  # a 3-cycle
    other = closure(s4, [s4_elem[(0, 2, 3, 1)]])  # another 3-cycle
    with pytest.raises(ValueError, match="ambient subgroup must contain H"):
        omega_criterion(s4, H, other)
    with pytest.raises(ValueError, match="normal in N"):
        omega_criterion(s4, H, full_subgroup(s4))


def test_sylow_reduction_odd_subgroup_all_true(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 2, 0, 3)]])
    assert all(reduction_statements(s4, H))


def test_sylow_reduction_double_transposition_all_false(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 3, 2)]])
    assert not any(reduction_statements(s4, H))


def test_sylow_reduction_a4_all_true(s4, s4_elem):
    A = closure(s4, [s4_elem[(1, 2, 0, 3)], s4_elem[(0, 2, 3, 1)]])
    statements = reduction_statements(s4, A)
    assert len(set(statements)) == 1 and statements[3]


def test_sylow_reduction_tower_containments(s4, sl23):
    for G in (s4, sl23):
        for H in all_subgroups(G):
            H2, N, N2 = sylow_reduction(G, H)
            P = sylow_2_overgroup(G, N2)
            assert H2.elements <= N2.elements
            assert N2.elements <= N.elements
            assert N2.elements <= P.elements
            assert len(P) == 8  # 2-part of both orders is 8


def test_decide_transposition_subgroup(s4, s4_elem):
    assert decide(s4, closure(s4, [s4_elem[(1, 0, 2, 3)]])).is_perfect_code


def test_decide_d8_center_with_counterexample(d8):
    verdict = decide(d8, closure(d8, [2]))
    assert not verdict.is_perfect_code
    assert verdict.criterion is Criterion.SQUARE_COSET
    assert verdict.counterexample == 1


def test_decide_trivial_subgroup(s4):
    verdict = decide(s4, trivial_subgroup())
    assert verdict.is_perfect_code
    assert verdict.criterion is Criterion.ODD_ORDER


def test_decide_with_witness(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 2, 3)]])
    verdict = decide(s4, H, with_witness=True)
    assert verdict.is_perfect_code
    # the witness is attached to the verdict of the criterion that decided it
    assert verdict.criterion is Criterion.OMEGA_QUOTIENT
    assert verdict == replace(decide(s4, H), witness=verdict.witness)
    odd = closure(s4, [s4_elem[(1, 2, 0, 3)]])
    assert decide(s4, odd, with_witness=True).criterion is Criterion.ODD_ORDER
    S = connection_set_from_transversal(s4, H, verdict.witness)
    assert is_perfect_code_in_cayley_graph(s4, S, H)


def test_decide_with_witness_raises_when_search_finds_none(monkeypatch, s4, s4_elem):
    monkeypatch.setattr(codes, "find_inverse_closed_transversal", lambda G, H: None)
    even = closure(s4, [s4_elem[(1, 0, 2, 3)]])
    odd = closure(s4, [s4_elem[(1, 2, 0, 3)]])
    for H in (even, odd):
        assert decide(s4, H).is_perfect_code
        with pytest.raises(RuntimeError, match="no inverse-closed transversal"):
            decide(s4, H, with_witness=True)


def test_decide_with_witness_raises_when_the_graph_check_fails(monkeypatch, s4, s4_elem):
    # a search that returns 1 and all but one representative: the witness is
    # verified on its Cayley graph before it is attached
    search = codes.find_inverse_closed_transversal
    monkeypatch.setattr(codes, "find_inverse_closed_transversal", lambda G, H: search(G, H)[:-1])
    for gens in ([s4_elem[(1, 0, 2, 3)]], [s4_elem[(1, 2, 0, 3)]]):
        H = closure(s4, gens)
        assert 0 in codes.find_inverse_closed_transversal(s4, H)
        with pytest.raises(RuntimeError, match="transversal passed the graph check"):
            decide(s4, H, with_witness=True)


def test_decide_is_conjugation_invariant(s4, d8):
    for G in (s4, d8):
        for H in all_subgroups(G):
            base = decide(G, H).is_perfect_code
            for x in G.elements():
                assert decide(G, conjugate_subgroup(G, H, x)).is_perfect_code == base


def test_verdict_json_shape(d8):
    Z = closure(d8, [2])
    doc = verdict_to_json(d8, Z, decide(d8, Z))
    assert doc == {
        "group": "D8",
        "subgroup": [0, 2],
        "is_perfect_code": False,
        "criterion": "square-coset",
        "counterexample": 1,
    }


def test_verdict_json_with_witness(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 2, 3)]])
    doc = verdict_to_json(s4, H, decide(s4, H, with_witness=True))
    assert doc["is_perfect_code"] is True
    assert len(doc["witness"]) == 12


def _brute_omega_sets(G: FiniteGroup, N, H) -> tuple[frozenset[int], frozenset[int]]:
    """The involution cosets of N/H and the cosets holding an element of
    order at most 2, by their least elements, from the cosets themselves."""
    cosets = brute_right_cosets(G, H.elements, N.elements)
    quotient = frozenset(c[0] for c in cosets if G.table[c[0]][c[0]] in H)
    lifted = frozenset(c[0] for c in cosets if any(G.table[y][y] == 0 for y in c))
    return quotient, lifted


def _swapped_pair(G: FiniteGroup, S: frozenset[int]) -> frozenset[int] | None:
    """S with its first inverse pair {g, g^-1} replaced by the first pair
    outside S, so |S| is kept and only the cover test can reject it."""
    inv = G.inverse
    old = next((g for g in sorted(S) if inv[g] != g), None)
    new = next((g for g in G.elements() if g and inv[g] != g and g not in S), None)
    if old is None or new is None:
        return None
    return S - {old, inv[old]} | {new, inv[new]}


def _check_scans(G: FiniteGroup, subgroups, double_max: int) -> None:
    """Each packed scan against its oracle on every subgroup given: the
    coset counterexamples (double-coset only up to order ``double_max``),
    the involution cosets in the normalizer and in the Sylow chain, the
    graph check on each witness, on it with one inverse pair dropped and
    with one pair swapped, and on the least coset representatives as a
    code of Cay(G, H - 1), and |H meet H^x| by definition for every x."""
    inv = G.inverse
    for H in subgroups:
        members = H.elements
        assert square_coset_condition(G, H).counterexample == (
            brute_square_coset_counterexample(G, members)
        ), H.indices()
        if len(H) <= double_max:
            assert double_coset_condition(G, H).counterexample == (
                brute_double_coset_counterexample(G, members)
            ), H.indices()
        N = normalizer(G, H)
        assert omega_coset_sets(G, N, H) == _brute_omega_sets(G, N, H), H.indices()
        if len(H) % 2 == 0:
            H2, N1, N2 = sylow_reduction(G, H)
            P = sylow_2_overgroup(G, N2)
            assert square_coset_condition(G, H2, P).counterexample == (
                brute_square_coset_counterexample(G, H2.elements, P.elements)
            )
            for M in (N1, N2):
                assert omega_coset_sets(G, M, H2) == _brute_omega_sets(G, M, H2)
        witness = find_inverse_closed_transversal(G, H)
        if witness is not None:
            S = connection_set_from_transversal(G, H, witness)
            assert is_perfect_code_in_cayley_graph(G, S, H), H.indices()
            assert brute_is_perfect_code(G, S, members)
            pair = next((g for g in sorted(S) if inv[g] != g), None)
            variants = [_swapped_pair(G, S)]
            if pair is not None:
                variants.append(S - {pair, inv[pair]})
            for V in filter(None, variants):
                expected = brute_is_perfect_code(G, V, members)
                assert is_perfect_code_in_cayley_graph(G, V, H) == expected, H.indices()
        dec = coset_decomposition(G, H)
        # the closed neighbourhoods Ht of the least coset representatives t
        # in Cay(G, H - 1) partition G, though t H need not
        s = dec.stride
        reps, dual = dec.members[::s], members - {0}
        assert is_perfect_code_in_cayley_graph(G, dual, reps), H.indices()
        assert brute_is_perfect_code(G, dual, reps)
        for x in G.elements():
            i = dec.coset_of(x) * s
            meet = sum(conjugate(G, h, x) in members for h in members)
            assert codes._meet_size(G, H, x, dec.members[i : i + s]) == meet, (H.indices(), x)


_DIFFERENTIAL_GROUPS = {
    spec: construct.build_named(spec)
    for spec in (
        "sl23", "product(dihedral(8),cyclic(3))", "product(s4,cyclic(2))", "product(q8,cyclic(6))"
    )
}


@st.composite
def _relabelled_groups(draw):
    """One of the groups above with its elements renamed at random, so the
    identity usually leaves index 0 and canonicalization runs."""
    spec = draw(st.sampled_from(sorted(_DIFFERENTIAL_GROUPS)))
    G = _DIFFERENTIAL_GROUPS[spec]
    perm = draw(st.permutations(range(G.order)))
    return FiniteGroup.from_table(relabel_rows(G, perm), name=spec)


@given(_relabelled_groups())
@settings(max_examples=8, deadline=None, derandomize=True)
def test_scans_match_oracles_on_relabelled_groups(G):
    _check_scans(G, all_subgroups(G), double_max=G.order)


@pytest.mark.parametrize(
    "spec", ["dihedral(8)", "q8", "a4", "s4", "sl23", "product(dihedral(8),cyclic(3))"]
)
def test_witness_is_the_first_transversal_trying_involutions_first(spec):
    """The search returns the lexicographically first inverse-closed
    transversal, each coset trying its involutions first: the witness bytes
    that reports carry."""
    G = construct.build_named(spec)
    for H in all_subgroups(G):
        assert find_inverse_closed_transversal(G, H) == brute_first_transversal(G, H), H.indices()


@pytest.mark.parametrize("n", [24, 256])
def test_packing_zeros_and_finder(n):
    """``_zeros`` is 0 exactly at the members given, the identity among them
    or not; ``_distinct`` keeps each entry once, increasing; a packed
    sequence translated through ``_lookup`` finds the first value in a range
    or gives -1."""
    for members in ([0, 3, n - 1], [2, 5], []):
        zeros = _zeros(bytes(members))
        assert [g for g in range(n) if not zeros[g]] == members
        assert all(zeros[g] == g for g in range(1, n) if g not in members)
        assert _distinct(bytes(members[::-1] * 2)) == bytes(members)
    find = bytes([1, 0, 2, 0, 1]).translate(_lookup(bytes(range(n)))).find
    found = [find(0, 0, 5), find(0, 2, 5), find(0, 4, 5), find(1, 1, 4), find(2, 0, 2)]
    assert found == [1, 3, -1, -1, -1]


@given(st.one_of(permutation_groups(), corpus_products()))
@example(construct.alternating(5))
@example(construct.symmetric(5))
@settings(max_examples=24, deadline=None, derandomize=True)
def test_every_subgroup_is_a_code_iff_no_element_has_order_4(G):
    """Ma, Walls, Wang and Zhou (2020): every subgroup of G is a perfect
    code exactly when G has no element of order 4.  (With one, g say, the
    subgroup {1, g^2} is not: g squares into it and its coset {g, g^3}
    holds no involution.)  A5 has none, S5 has one."""
    every = all(decide(G, H).is_perfect_code for H in all_subgroups(G, None, G.order))
    assert every == (not has_element_of_order_4(G))


@given(st.one_of(permutation_groups(), corpus_products(abelian=True)))
@settings(max_examples=24, deadline=None, derandomize=True)
def test_abelian_codes_meet_the_squares_in_their_own_squares(G):
    """In an abelian G, H is a perfect code exactly when H meets the
    squares of G in the squares of H; a non-abelian draw checks nothing."""
    if brute_is_abelian(G, G.elements()):
        for H in all_subgroups(G, None, G.order):
            assert decide(G, H).is_perfect_code == abelian_square_test(G, H.members), H.indices()
