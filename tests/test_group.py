from __future__ import annotations

import gc
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from enum import IntEnum
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    brute_permutation_table,
    commutator,
    conjugate_subgroup,
    element_order,
    first_light_failure,
    is_associative,
    omega1,
    reference_table,
    relabel_rows,
    squares,
    subgroup_from_elements,
)
from perfcode import construct
from perfcode.extraspecial import central_product
from perfcode.group import (
    FiniteGroup,
    closure,
    full_subgroup,
    group_from_permutations,
    group_to_json,
    load_group,
    subgroup_as_group,
    trivial_subgroup,
)

# A Latin square of order 5 with identity 0 and two-sided inverses that is
# not associative (verified non-group loop).
NON_ASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_load_z2_table():
    G = load_group({"order": 2, "table": [[0, 1], [1, 0]]})
    assert G.order == 2
    assert tuple(G.inverse) == (0, 1)
    assert G.element_orders == (1, 2)


def test_load_permutation_generators_s4():
    # (1 2) and (1 2 3 4) generate the full symmetric group on 4 points
    doc = {"degree": 4, "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]}
    G = load_group(doc)
    assert G.order == 24


def test_load_rejects_broken_identity():
    with pytest.raises(ValueError):
        load_group({"order": 2, "table": [[0, 1], [1, 1]]})


def test_load_rejects_non_associative_table():
    with pytest.raises(ValueError, match="associativity"):
        load_group({"order": 5, "table": NON_ASSOCIATIVE_LOOP})


def test_load_rejects_inconsistent_permutation_degree():
    doc = {"degree": 3, "generators": [[1, 0, 2], [1, 0, 2, 3]]}
    with pytest.raises(ValueError, match="degree"):
        load_group(doc)


def test_load_rejects_negative_permutation_degree():
    with pytest.raises(ValueError, match="non-negative"):
        load_group({"degree": -3, "generators": []})


S6_ON_DEGREE_6 = {"degree": 6, "generators": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]}


def test_load_rejects_closure_beyond_cap():
    with pytest.raises(ValueError, match="permutation closure exceeds the order cap 256"):
        load_group(S6_ON_DEGREE_6)  # |S6| = 720


def test_load_checks_declared_order_of_permutation_group():
    doc = {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
    assert load_group({**doc, "order": 6}).order == 6
    with pytest.raises(ValueError, match="declared order 5 does not match"):
        load_group({**doc, "order": 5})


def test_empty_generator_list_is_trivial_at_any_degree():
    doc = {"degree": 10**12, "generators": []}
    assert tuple(map(tuple, load_group(doc).table)) == ((0,),)
    assert load_group({**doc, "order": 1}).order == 1
    with pytest.raises(ValueError, match="declared order 2 does not match group order 1"):
        load_group({**doc, "order": 2})
    with pytest.raises(ValueError, match="non-negative"):
        load_group({"degree": -(10**12), "generators": []})


def _cycle(degree: int, points: list[int]) -> list[int]:
    images = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return images


def _random_generators(rng: random.Random, degree: int) -> list[list[int]]:
    """One to three permutations, each moving a random subset of the points."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        moved = rng.sample(range(degree), rng.randint(0, degree))
        images = list(range(degree))
        for a, b in zip(moved, rng.sample(moved, len(moved))):
            images[a] = b
        gens.append(images)
    return gens


def test_permutation_tables_match_brute_force_composition():
    # D8 x D8 x Z4 on 4 + 4 + 4 points: order 256, so the default cap.
    d8xd8xz4 = [_cycle(12, [0, 1, 2, 3]), _cycle(12, [1, 3]), _cycle(12, [4, 5, 6, 7]),
                _cycle(12, [5, 7]), _cycle(12, [8, 9, 10, 11])]
    cases = [
        ([[1, 0, 2, 3], [1, 2, 3, 0]], 4),  # S4
        ([_cycle(5, [0, 1]), _cycle(5, [0, 1, 2, 3, 4])], 5),  # S5
        (d8xd8xz4, 12),
    ]
    rng = random.Random(20250309)
    drawn = 0
    while drawn < 40:
        degree = rng.randint(1, 8)
        gens = _random_generators(rng, degree)
        try:
            group_from_permutations(gens, degree=degree)
        except ValueError as exc:
            assert "exceeds the order cap" in str(exc)
            continue
        drawn += 1
        identity = list(range(degree))
        cases += [
            (gens, degree),
            (gens + [rng.choice(gens)], degree),
            (gens[:1] + [identity] + gens[1:], degree),
            ([identity], degree),
            ([], degree),
        ]
    cases.append(([], 0))
    orders = set()
    for gens, degree in cases:
        G = group_from_permutations(gens, degree=degree)
        assert [list(row) for row in G.table] == brute_permutation_table(gens, degree)
        orders.add(G.order)
    assert orders >= {1, 24, 120, 256}


# A loop of order 5 with identity 0 in which 2 * 3 = 0 but 3 * 2 = 1.
ONE_SIDED_INVERSE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def _renamed(rows: list[list[int]], label: list[int]) -> list[list[int]]:
    """The table with element a renamed label[a]."""
    out = [[0] * len(rows) for _ in rows]
    for a, row in enumerate(rows):
        for b, v in enumerate(row):
            out[label[a]][label[b]] = label[v]
    return out


def _set(rows, a, b, v):
    rows[a][b] = v


def _swap(rows, a, b, c, d):
    rows[a][b], rows[c][d] = rows[c][d], rows[a][b]


S3_ROWS = [list(row) for row in construct.symmetric(3).table]
# Each case: a table with identity 0, a defect written in the names a label
# map gives to its elements, and the first message for the identity at 0 and
# for the identity renamed 4 (3 in the loops of order 5).
REJECTIONS = [
    (S3_ROWS, lambda t, l: t[l[2]].pop(),
     ["table row 2 has length 5, expected 6", "table row 0 has length 5, expected 6"]),
    (S3_ROWS, lambda t, l: _set(t, l[3], l[1], 6),
     ["table entry 6 out of range [0, 5]"] * 2),
    (S3_ROWS, lambda t, l: _set(t, l[3], l[1], -1),
     ["table entry -1 out of range [0, 5]"] * 2),
    (S3_ROWS, lambda t, l: _swap(t, l[0], l[1], l[0], l[2]),
     ["table has no two-sided identity element"] * 2),
    (S3_ROWS, lambda t, l: _swap(t, l[1], l[0], l[2], l[0]),
     ["table has no two-sided identity element"] * 2),
    (S3_ROWS, lambda t, l: _set(t, l[1], l[2], t[l[1]][l[3]]),
     ["some row is not a permutation of the elements"] * 2),
    (S3_ROWS, lambda t, l: _swap(t, l[1], l[2], l[1], l[3]),
     ["some column is not a permutation of the elements"] * 2),
    (ONE_SIDED_INVERSE_LOOP, lambda t, l: None, ["missing two-sided inverses"] * 2),
    (NON_ASSOCIATIVE_LOOP, lambda t, l: None,
     ["associativity fails at triple (1, 1, 2)"] * 2),
]
LABELS = {6: [4, 2, 0, 5, 1, 3], 5: [3, 0, 4, 1, 2]}


@pytest.mark.parametrize("rows, defect, messages", REJECTIONS)
def test_from_table_reports_the_first_failed_check(rows, defect, messages):
    for label, message in zip((list(range(len(rows))), LABELS[len(rows)]), messages):
        table = _renamed(rows, label)
        defect(table, label)
        with pytest.raises(ValueError) as caught:
            FiniteGroup.from_table(table)
        assert str(caught.value) == message


def _from_table(rows):
    G = FiniteGroup.from_table(rows)
    return tuple(map(tuple, G.table)), tuple(G.inverse)


def _outcome(build, rows):
    """``build(rows)``, or the message of the ValueError it raises."""
    try:
        return build(rows)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _assert_matches_reference(rows):
    """from_table gives ``rows`` the reference validator's table and
    inverses, or raises its first message; return that outcome.  Rows that
    fit in bytes give it as ``bytes`` rows too, which skip only the
    exact-int count."""
    expected = _outcome(reference_table, rows)
    assert _outcome(_from_table, rows) == expected
    if all(type(v) is int and 0 <= v < 256 for row in rows for v in row):
        assert _outcome(_from_table, [bytes(row) for row in rows]) == expected
    return expected


@pytest.mark.parametrize("rows, defect, messages", REJECTIONS)
def test_rejections_match_the_reference_validator(rows, defect, messages):
    accepted = rows not in (ONE_SIDED_INVERSE_LOOP, NON_ASSOCIATIVE_LOOP)
    for label in (list(range(len(rows))), LABELS[len(rows)]):
        table = _renamed(rows, label)
        assert isinstance(_assert_matches_reference(table), tuple) == accepted
        defect(table, label)
        assert _assert_matches_reference(table).startswith("ValueError: ")


class _Bit(IntEnum):
    ZERO = 0
    ONE = 1


def _corrupted(rows: list[list[int]], kind, rng: random.Random) -> list[list]:
    """A copy of ``rows`` with one seeded entry changed, or two swapped."""
    n = len(rows)
    out = [list(row) for row in rows]
    r = out.index(list(range(n))) if kind == "identity swap" else rng.randrange(n)
    if str(kind).endswith("swap"):
        c1, c2 = rng.sample(range(n), 2)
        out[r][c1], out[r][c2] = out[r][c2], out[r][c1]
    elif kind in ("True", "False", "IntEnum"):  # where the value is 0 or 1
        bit = int(kind != "False")
        c = out[r].index(bit)
        out[r][c] = _Bit(bit) if kind == "IntEnum" else bool(bit)
    else:
        out[r][rng.randrange(n)] = {"1.0": 1.0, "'1'": "1"}.get(kind, kind)
    return out


CORRUPTIONS = [
    "swap", "identity swap", 256, 300, -1, 2**70, "True", "False", "1.0", "'1'", "IntEnum"
]


@pytest.mark.parametrize("spec", ["product(gm1(3),cyclic(2))", "dihedral(256)"])
def test_order_256_corruptions_match_the_reference_validator(spec):
    G = construct.build_named(spec)
    rng = random.Random(G.order)
    perm = rng.sample(range(1, G.order), G.order - 1)
    perm.insert(1, 0)  # the identity is renamed perm[0], not 0
    rows = relabel_rows(G, perm)
    assert isinstance(_assert_matches_reference(rows), tuple)
    messages = set()
    for kind in CORRUPTIONS:
        for _ in range(2):
            outcome = _assert_matches_reference(_corrupted(rows, kind, rng))
            assert outcome.startswith("ValueError: "), kind
            messages.add(re.sub(r"\d+", "k", outcome.split(" entry ")[-1]))
    assert messages == {
        "ValueError: some column is not a permutation of the elements",
        "ValueError: table has no two-sided identity element",
        "k out of range [k, k]", "-k out of range [k, k]",
        "True is not an integer", "False is not an integer", "k.k is not an integer",
        "'k' is not an integer", "<_Bit.ONE: k> is not an integer",
    }


def test_order_cap_env_override(monkeypatch):
    """The order cap is the constant 256, since every index must fit in a
    byte: no environment variable raises it."""
    monkeypatch.setenv("PCL_MAX_ORDER", "300")
    with pytest.raises(ValueError, match="group order 257 exceeds the order cap 256"):
        construct.cyclic(257)
    with pytest.raises(ValueError, match="permutation closure exceeds the order cap 256"):
        load_group(S6_ON_DEGREE_6)


def test_canonicalization_moves_identity_to_zero():
    # Z3 written with the identity at index 2
    rows = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
    G = load_group({"order": 3, "table": rows})
    assert tuple(G.table[0]) == (0, 1, 2)
    assert all(G.table[g][0] == g for g in range(3))
    assert sorted(G.element_orders) == [1, 3, 3]


def test_single_swap_fuzz_is_rejected(d8):
    # Swapping two entries in one row always breaks a checked axiom
    # (identity when column 0 is touched, column Latin property otherwise).
    base = [list(row) for row in d8.table]
    for i in range(8):
        for j1, j2 in combinations(range(8), 2):
            if base[i][j1] == base[i][j2]:
                continue
            mutated = [list(row) for row in base]
            mutated[i][j1], mutated[i][j2] = mutated[i][j2], mutated[i][j1]
            with pytest.raises(ValueError):
                load_group({"order": 8, "table": mutated})


def test_roundtrip_group_json(d8):
    doc = group_to_json(d8)
    again = load_group(doc)
    assert again.table == d8.table
    assert again.name == "D8"


def test_element_order_identity_is_one(d8):
    assert element_order(d8, 0) == 1


def test_element_order_d8_rotation_and_reflection(d8):
    # index 1 is the order-4 rotation, indices 4..7 the reflections
    assert element_order(d8, 1) == 4
    assert all(element_order(d8, g) == 2 for g in range(4, 8))


def test_element_order_divides_group_order():
    for G in (construct.cyclic(12), construct.dihedral(12), construct.symmetric(4)):
        for g in G.elements():
            assert G.order % element_order(G, g) == 0


def test_element_order_rejects_bad_index(d8):
    with pytest.raises(ValueError):
        element_order(d8, 8)


def test_omega1_elementary_abelian_is_everything():
    G = construct.elementary_abelian(2)
    assert omega1(G) == frozenset(range(4))


def test_omega1_q8_and_d8(d8, q8):
    assert len(omega1(q8)) == 2
    assert len(omega1(d8)) == 6


def test_squares_elementary_abelian_empty():
    for k in (2, 3, 4):
        assert squares(construct.elementary_abelian(k)) == frozenset()


def test_squares_d8_unique(d8):
    assert squares(d8) == frozenset({2})


def test_closure_empty_is_trivial(s4):
    assert closure(s4, []).elements == frozenset({0})


def test_closure_of_central_rotation_is_center(d8):
    assert closure(d8, [2]).elements == frozenset({0, 2})


def test_closure_two_disjoint_transpositions(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 2, 3)], s4_elem[(0, 1, 3, 2)]])
    assert len(H) == 4


def test_closure_idempotent(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 2, 3)], s4_elem[(1, 2, 0, 3)]])
    again = closure(s4, sorted(H.elements))
    assert again.elements == H.elements


@pytest.mark.parametrize("bad", [1.5, "1", True, _Bit.ONE], ids=repr)
def test_closure_generators_must_be_exact_ints(s4, bad):
    # True must not pass as element 1, and "1" must fail as bad input, not TypeError
    with pytest.raises(ValueError, match=re.escape(f"generator list entry {bad!r} is not an integer")):
        closure(s4, [2, bad])


@given(st.sets(st.integers(min_value=0, max_value=23), max_size=4))
@settings(max_examples=50, deadline=None)
def test_closure_idempotent_random_seeds(seed):
    G = construct.symmetric(4)
    H = closure(G, sorted(seed))
    assert closure(G, sorted(H.elements)).elements == H.elements


def test_conjugate_by_identity_is_identity_map(d8):
    H = closure(d8, [4])
    assert conjugate_subgroup(d8, H, 0).elements == H.elements


def test_conjugate_transposition_subgroup(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 2, 3)]])  # <(1 2)>
    x = s4_elem[(0, 2, 1, 3)]  # (2 3)
    expected = closure(s4, [s4_elem[(2, 1, 0, 3)]])  # <(1 3)>
    assert conjugate_subgroup(s4, H, x).elements == expected.elements


def test_conjugate_normal_subgroup_fixed(s4, s4_elem):
    V = closure(s4, [s4_elem[(1, 0, 3, 2)], s4_elem[(2, 3, 0, 1)]])
    for x in s4.elements():
        assert conjugate_subgroup(s4, V, x).elements == V.elements


def test_conjugate_preserves_cardinality_and_axioms(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 2, 0, 3)]])
    for x in s4.elements():
        K = conjugate_subgroup(s4, H, x)
        assert len(K) == len(H)
        subgroup_from_elements(s4, K.elements)  # raises if not a subgroup


def test_commutator_of_element_with_itself(d8):
    for g in d8.elements():
        assert commutator(d8, g, g) == 0


def test_commutator_of_commuting_elements(d8):
    assert commutator(d8, 1, 2) == 0  # powers of the rotation commute


def test_commutator_rotation_reflection_is_central(d8):
    assert commutator(d8, 1, 4) == 2  # [r, s] = r^2


def test_subgroup_from_elements_rejects_non_closed(s4, s4_elem):
    with pytest.raises(ValueError):
        subgroup_from_elements(s4, {0, s4_elem[(1, 2, 0, 3)]})


def test_subgroup_as_group_preserves_products(s4, s4_elem):
    H = closure(s4, [s4_elem[(1, 0, 2, 3)], s4_elem[(0, 1, 3, 2)]])
    sub, back = subgroup_as_group(s4, H)
    assert sub.order == len(H)
    for a in range(sub.order):
        for b in range(sub.order):
            assert back[sub.table[a][b]] == s4.table[back[a]][back[b]]


def test_trivial_and_full_subgroups(d8):
    assert len(trivial_subgroup()) == 1
    assert len(full_subgroup(d8)) == 8


@st.composite
def _permutations_of_small_degree(draw):
    degree = draw(st.integers(min_value=3, max_value=5))
    count = draw(st.integers(min_value=1, max_value=2))
    gens = [draw(st.permutations(list(range(degree)))) for _ in range(count)]
    return degree, gens


@given(_permutations_of_small_degree())
@settings(max_examples=30, deadline=None)
def test_permutation_closure_yields_valid_group(data):
    degree, gens = data
    G = group_from_permutations(gens, degree=degree)
    # validation ran inside from_table; check arithmetic facts on top
    assert tuple(G.table[0]) == tuple(range(G.order))
    for g in G.elements():
        assert G.order % G.element_orders[g] == 0
        assert G.table[g][G.inverse[g]] == 0


FAILED_TRIPLE = re.compile(r"associativity fails at triple \((\d+), (\d+), (\d+)\)")


def _random_loop(n: int, rng: random.Random) -> list[list[int]]:
    """A random Latin square with identity 0, filled cell by cell with
    seeded random backtracking."""
    rows = [list(range(n))] + [[i] + [-1] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k: int) -> bool:
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(rows[i][:j]) | {rows[r][j] for r in range(i)}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for v in options:
            rows[i][j] = v
            if fill(k + 1):
                return True
        rows[i][j] = -1
        return False

    fill(0)
    return rows


def _near_group(G: FiniteGroup, rng: random.Random) -> list[list[int]]:
    """G relabelled with the identity kept at 0, then with one random 2x2
    Latin subsquare off row and column 0 swapped: a loop that agrees with a
    group table on all but four products."""
    perm = [0] + rng.sample(range(1, G.order), G.order - 1)
    rows = relabel_rows(G, perm)
    n = G.order
    quads = [
        (r1, r2, c1, c2)
        for r1, r2 in combinations(range(1, n), 2)
        for c1, c2 in combinations(range(1, n), 2)
        if rows[r1][c1] == rows[r2][c2] and rows[r1][c2] == rows[r2][c1]
    ]
    if quads:
        r1, r2, c1, c2 = rng.choice(quads)
        rows[r1][c1], rows[r1][c2] = rows[r1][c2], rows[r1][c1]
        rows[r2][c1], rows[r2][c2] = rows[r2][c2], rows[r2][c1]
    return rows


def test_validation_matches_brute_associativity_on_random_loops():
    rng = random.Random(20250206)
    groups = [construct.cyclic(n) for n in range(2, 9)] + [
        construct.elementary_abelian(2),
        construct.elementary_abelian(3),
        construct.direct_product(construct.cyclic(2), construct.cyclic(4)),
        construct.dihedral(6),
        construct.dihedral(8),
        construct.quaternion8(),
    ]
    loops = [_random_loop(n, rng) for n in range(1, 9) for _ in range(100)]
    loops += [_near_group(G, rng) for G in groups for _ in range(50)]
    outcomes = {"accepted": 0, "triple": 0, "inverses": 0}
    for rows in loops:
        associative = is_associative(rows)
        try:
            G = FiniteGroup.from_table(rows)
        except ValueError as exc:
            assert not associative
            found = FAILED_TRIPLE.fullmatch(str(exc))
            if found:
                x, a, y = map(int, found.groups())
                assert rows[rows[x][a]][y] != rows[x][rows[a][y]]
                outcomes["triple"] += 1
            else:
                assert str(exc) == "missing two-sided inverses"
                outcomes["inverses"] += 1
        else:
            assert associative
            assert [list(row) for row in G.table] == rows
            outcomes["accepted"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_every_constructor_keeps_the_table_as_bytes(tmp_path):
    """Row a of ``table`` is the bytes slice of ``packed`` at a, and the
    inverses are bytes, whichever path built the group."""
    d8 = construct.dihedral(8)
    table_file, perm_file = tmp_path / "table.json", tmp_path / "perm.json"
    table_file.write_text(json.dumps({"table": relabel_rows(d8, [3, 0, 1, 2, 4, 5, 6, 7])}))
    perm_file.write_text(json.dumps({"degree": 4, "generators": [[1, 2, 3, 0], [1, 0, 2, 3]]}))
    groups = [
        FiniteGroup.from_table(relabel_rows(construct.cyclic(6), [2, 0, 1, 3, 4, 5])),
        group_from_permutations([[1, 2, 0], [1, 0, 2]]),
        construct.direct_product(d8, construct.cyclic(3)),
        central_product(d8, construct.quaternion8()),
        load_group(table_file),
        load_group(perm_file),
    ]
    for G in groups:
        n = G.order
        assert type(G.inverse) is bytes and len(G.inverse) == n
        for a in G.elements():
            assert type(G.table[a]) is bytes
            assert G.table[a] == G.packed[a * n : (a + 1) * n]
    # from_table of an order-256 group keeps 144,330 bytes alive, by
    # tracemalloc on CPython 3.11: the byte rows, the rows end to end and the
    # inverses (606,673 when the rows were also copied into tuples of ints).
    rows = [list(row) for row in construct.build_named("product(gm1(3),cyclic(2))").table]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        G = FiniteGroup.from_table(rows)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert G.order == 256
    assert held < 200_000


def test_relabelled_order_256_table_loads():
    G = construct.build_named("product(gm1(3),cyclic(2))")
    perm = list(range(G.order))
    random.Random(256).shuffle(perm)
    assert perm[0] != 0
    R = FiniteGroup.from_table(relabel_rows(G, perm))
    # Canonical labels: the identity first, the others in their given order.
    order = [perm[0]] + [p for p in range(G.order) if p != perm[0]]
    pos = {p: i for i, p in enumerate(order)}
    phi = [pos[perm[a]] for a in range(G.order)]
    assert phi[0] == 0
    for a in range(G.order):
        row, image = G.table[a], R.table[phi[a]]
        assert all(image[phi[b]] == phi[row[b]] for b in range(G.order))
        assert R.inverse[phi[a]] == phi[G.inverse[a]]
        assert R.element_orders[phi[a]] == G.element_orders[a]


def _sampled_near_group(G: FiniteGroup, rng: random.Random) -> list[list[int]]:
    """Like ``_near_group``, but the 2x2 Latin subsquare is found by sampling
    (r1, c1, c2) instead of listing every one, so it scales to order 256.
    The subsquare holds no identity, so the inverses stay two-sided and only
    associativity can fail."""
    perm = [0] + rng.sample(range(1, G.order), G.order - 1)
    rows = relabel_rows(G, perm)
    n = G.order
    while True:
        r1 = rng.randrange(1, n)
        c1, c2 = rng.sample(range(1, n), 2)
        r2 = [row[c1] for row in rows].index(rows[r1][c2])
        if r2 != 0 and rows[r2][c2] == rows[r1][c1] and 0 not in (rows[r1][c1], rows[r1][c2]):
            rows[r1][c1], rows[r1][c2] = rows[r1][c2], rows[r1][c1]
            rows[r2][c1], rows[r2][c2] = rows[r2][c2], rows[r2][c1]
            return rows


def _assert_first_light_failure_reported(rows):
    """from_table rejects ``rows`` naming the oracle's first failing triple,
    or, when every triple associates, loads them unchanged; True when it
    rejects them."""
    triple = first_light_failure(rows)
    if triple is None:
        assert [list(row) for row in FiniteGroup.from_table(rows).table] == rows
        return False
    with pytest.raises(ValueError) as caught:
        FiniteGroup.from_table(rows)
    assert str(caught.value) == "associativity fails at triple (%d, %d, %d)" % triple
    return True


NEAR_GROUP_SPECS = [
    ("dihedral(12)", 6), ("q16", 6), ("s4", 6), ("gm1(2)", 4), ("product(s4,cyclic(2))", 4),
    ("dihedral(64)", 4), ("dicyclic(96)", 2), ("gm1(3)", 2), ("product(gm1(3),cyclic(2))", 2),
]


@pytest.mark.parametrize("spec, count", NEAR_GROUP_SPECS)
def test_near_groups_report_the_first_failing_triple(spec, count):
    """Up to order 256 Light's test composes rows as bytes; it must name the
    same first triple as the plain loop."""
    G = construct.build_named(spec)
    rng = random.Random(G.order)
    rejected = sum(
        _assert_first_light_failure_reported(_sampled_near_group(G, rng)) for _ in range(count)
    )
    assert rejected >= count // 2


@pytest.mark.parametrize("spec, order", [("cyclic(256)", 256)])
def test_tables_either_side_of_order_256_match_the_reference(spec, order):
    """At the order cap, where the largest index is 255, packed rows give the
    reference validator's table, inverses and first message."""
    G = construct.build_named(spec)
    assert G.order == order
    rng = random.Random(order)
    perm = rng.sample(range(1, order), order - 1)
    perm.insert(1, 0)
    rows = relabel_rows(G, perm)
    assert isinstance(_assert_matches_reference(rows), tuple)
    R = FiniteGroup.from_table(rows)
    assert R.element_orders == tuple(element_order(R, g) for g in range(order))
    assert sorted(R.element_orders) == sorted(G.element_orders)
    assert _assert_matches_reference(_corrupted(rows, "swap", rng)) == (
        "ValueError: some column is not a permutation of the elements"
    )
    assert _assert_matches_reference(_corrupted(rows, order, rng)) == (
        f"ValueError: table entry {order} out of range [0, {order - 1}]"
    )


def test_permutation_columns_pack_by_order_not_degree():
    """Generators of degree 300, whose images do not fit in a byte, still
    build byte columns when their group has order at most 256."""
    cases = [
        ([_cycle(300, [0, 299])], 300),  # a transposition: order 2
        ([_cycle(300, [296, 297, 298, 299]), _cycle(300, [297, 299]), _cycle(300, [0, 1, 2, 3])],
         300),  # D8 x Z4: order 32
    ]
    for gens, degree in cases:
        G = group_from_permutations(gens, degree=degree)
        assert [list(row) for row in G.table] == brute_permutation_table(gens, degree)


@pytest.mark.parametrize(
    "rows, entry",
    [
        ([[0, 1.5], [1.5, 0]], "1.5"),
        ([["0", "1"], ["1", "0"]], "'0'"),
        ([[0, 1], [1, 0.0]], "0.0"),
        ([[True, False], [False, True]], "True"),
        ([[False]], "False"),
    ],
)
def test_from_table_rejects_entries_that_are_not_ints(rows, entry):
    with pytest.raises(ValueError, match=re.escape(f"entry {entry} is not an integer")):
        FiniteGroup.from_table(rows)


@pytest.mark.parametrize(
    "gens, entry",
    [([[1.9, 0]], "1.9"), ([[1, 0.0]], "0.0"), ([[True, False]], "True"), ([["1", "0"]], "'1'")],
)
def test_permutations_reject_entries_that_are_not_ints(gens, entry):
    with pytest.raises(ValueError, match=re.escape(f"generator 0 entry {entry} is not an integer")):
        group_from_permutations(gens)


def test_import_loads_no_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, perfcode; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
