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
        (lambda d8, q8: construct.cyclic(17), 17),
        (lambda d8, q8: construct.elementary_abelian(5), 32),
        (lambda d8, q8: construct.dihedral(18), 18),
        (lambda d8, q8: construct.dicyclic(20), 20),
        (lambda d8, q8: construct.direct_product(d8, q8), 64),
        (lambda d8, q8: central_product(d8, q8), 32),
        (lambda d8, q8: build_family(2, Family.GM1), 32),
    ],
    ids=["cyclic", "elementary", "dihedral", "dicyclic", "product", "central", "family"],
)
def test_constructors_check_the_cap_before_building(monkeypatch, d8, q8, build, order):
    def from_table(*args, **kwargs):
        pytest.fail("a table above the cap was built")

    monkeypatch.setenv("PCL_MAX_ORDER", "16")
    monkeypatch.setattr(FiniteGroup, "from_table", from_table)
    with pytest.raises(ValueError, match=f"group order {order} exceeds the configured cap 16"):
        build(d8, q8)
