from __future__ import annotations

from functools import partial

import pytest

from oracles import (
    reference_cyclic,
    reference_dicyclic,
    reference_dihedral,
    reference_direct_product,
    reference_family,
)
from perfcode import construct
from perfcode.extraspecial import Family, build_family, central_product
from perfcode.group import FiniteGroup

REFERENCES = (
    [(f"cyclic({n})", partial(reference_cyclic, n)) for n in (1, 2, 7, 64, 256)]
    + [(f"dihedral({k})", partial(reference_dihedral, k)) for k in (*range(4, 65, 2), 256)]
    + [(f"dicyclic({k})", partial(reference_dicyclic, k)) for k in range(8, 129, 4)]
    + [
        (
            "product(q16,product(dihedral(8),cyclic(2)))",
            lambda: reference_direct_product(
                reference_dicyclic(16),
                reference_direct_product(reference_dihedral(8), reference_cyclic(2)),
            ),
        ),
        (
            "product(gm1(3),cyclic(2))",
            lambda: reference_direct_product(reference_family(3, Family.GM1), reference_cyclic(2)),
        ),
    ]
    + [(f"{f.value}({m})", partial(reference_family, m, f)) for f in Family for m in (1, 2, 3)]
)


@pytest.mark.parametrize("spec, reference", REFERENCES, ids=[spec for spec, _ in REFERENCES])
def test_constructors_match_their_per_product_references(spec, reference):
    G, R = construct.build_named(spec), reference()
    assert G.name == R.name
    assert G.table == R.table


def test_direct_product_keeps_a_given_name(d8):
    G = construct.direct_product(d8, construct.cyclic(3), name="D8xZ3")
    R = reference_direct_product(d8, reference_cyclic(3), name="D8xZ3")
    assert (G.name, G.table) == (R.name, R.table)


@pytest.mark.parametrize(
    "build, order",
    [
        (lambda g21, g22: construct.cyclic(257), 257),
        (lambda g21, g22: construct.elementary_abelian(9), 512),
        (lambda g21, g22: construct.dihedral(258), 258),
        (lambda g21, g22: construct.dicyclic(260), 260),
        (lambda g21, g22: construct.direct_product(g21, g22), 1024),
        (lambda g21, g22: central_product(g21, g22), 512),
        (lambda g21, g22: build_family(4, Family.GM1), 512),
    ],
    ids=["cyclic", "elementary", "dihedral", "dicyclic", "product", "central", "family"],
)
def test_constructors_check_the_cap_before_building(monkeypatch, g21, g22, build, order):
    def from_table(*args, **kwargs):
        pytest.fail("a table above the cap was built")

    monkeypatch.setattr(FiniteGroup, "from_table", from_table)
    with pytest.raises(ValueError, match=f"group order {order} exceeds the order cap 256"):
        build(g21, g22)
