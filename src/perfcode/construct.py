"""Constructors for the small named groups used throughout the test corpus."""

from __future__ import annotations

import re
from itertools import chain, product

from .group import FiniteGroup, check_order, group_from_permutations


def cyclic(n: int) -> FiniteGroup:
    """Z_n with additive indexing: element i is the residue i."""
    if n < 1:
        raise ValueError(f"cyclic order must be positive, got {n}")
    sums = list(range(check_order(n))) * 2
    return FiniteGroup.from_table([sums[i : i + n] for i in range(n)], name=f"Z{n}")


def elementary_abelian(k: int) -> FiniteGroup:
    """Z2^k with bit-vector indexing: the product is XOR of indices."""
    if k < 1:
        raise ValueError(f"rank must be positive, got {k}")
    n = check_order(1 << k)
    rows = [[i ^ j for j in range(n)] for i in range(n)]
    return FiniteGroup.from_table(rows, name=f"Z2^{k}")


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given order 2n, n >= 2.

    Indices 0..n-1 are the rotations r^i, indices n..2n-1 the reflections
    r^i s, so the identity is 0.
    """
    if order < 4 or order % 2:
        raise ValueError(f"dihedral order must be an even number >= 4, got {order}")
    return FiniteGroup.from_table(_rotation_rows(check_order(order) // 2, 0), name=f"D{order}")


def dicyclic(order: int) -> FiniteGroup:
    """Dicyclic group of order 4m: <a, b | a^(2m)=1, b^2=a^m, b a b^-1 = a^-1>.

    Orders 8 and 16 are the quaternion groups Q8 and Q16.  Indices 0..2m-1
    are a^i, indices 2m..4m-1 are a^i b.
    """
    if order < 8 or order % 4:
        raise ValueError(f"dicyclic order must be a multiple of 4 >= 8, got {order}")
    name = f"Q{order}" if order in (8, 16) else f"Dic{order}"
    rows = _rotation_rows(check_order(order) // 2, order // 4)
    return FiniteGroup.from_table(rows, name=name)


def _rotation_rows(n: int, twist: int) -> list[list[int]]:
    """The table of the group of order 2n on r^i (index i) and r^i s (index
    n + i) with s r = r^-1 s and s^2 = r^twist.  Each row is two slices of
    the rotation list (i + j) % n or of the difference list (i - j) % n, as
    they are or shifted up by n."""
    sums = list(range(n)) * 2  # (i + j) % n is sums[i + j]
    ups = [x + n for x in sums]
    diffs, up_diffs = sums[::-1], ups[::-1]  # (i - j) % n is diffs[n - 1 - i + j]
    rows = [sums[i : i + n] + ups[i : i + n] for i in range(n)]
    for i in range(n):
        k, t = n - 1 - i, n - 1 - (i + twist) % n
        rows.append(up_diffs[k : k + n] + diffs[t : t + n])
    return rows


def quaternion8() -> FiniteGroup:
    return dicyclic(8)


def symmetric(n: int) -> FiniteGroup:
    """S_n on 0..n-1, generated by (0 1 ... n-1) and (0 1), elements indexed
    lexicographically."""
    if not 1 <= n <= 5:
        raise ValueError(f"symmetric degree must be in 1..5, got {n}")
    cycle = list(range(1, n)) + [0]
    swap = [1, 0] + list(range(2, n)) if n > 1 else [0]
    return group_from_permutations([cycle, swap], degree=n, name=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    """A_n on 0..n-1, generated by the 3-cycles (0 1 k), elements indexed
    lexicographically."""
    if not 3 <= n <= 5:
        raise ValueError(f"alternating degree must be in 3..5, got {n}")
    gens = []
    for k in range(2, n):
        images = list(range(n))
        images[0], images[1], images[k] = 1, k, 0
        gens.append(images)
    return group_from_permutations(gens, degree=n, name=f"A{n}")


def special_linear_2_3() -> FiniteGroup:
    """SL(2,3): the 24 determinant-1 matrices over GF(3) under matrix product."""
    elems = [
        (a, b, c, d)
        for a, b, c, d in product(range(3), repeat=4)
        if (a * d - b * c) % 3 == 1
    ]
    elems.sort()
    index = {mat: i for i, mat in enumerate(elems)}

    def mul(x: tuple[int, int, int, int], y: tuple[int, int, int, int]) -> int:
        a, b, c, d = x
        e, f, g, h = y
        return index[
            ((a * e + b * g) % 3, (a * f + b * h) % 3,
             (c * e + d * g) % 3, (c * f + d * h) % 3)
        ]

    rows = [[mul(x, y) for y in elems] for x in elems]
    return FiniteGroup.from_table(rows, name="SL(2,3)")


def direct_product(A: FiniteGroup, B: FiniteGroup, *, name: str | None = None) -> FiniteGroup:
    """A x B with pairs packed as a * |B| + b."""
    rows = list(map(product_rows(A, B), range(check_order(A.order * B.order))))
    label = name or f"{A.name or '?'}x{B.name or '?'}"
    return FiniteGroup.from_table(rows, name=label)


def product_rows(A: FiniteGroup, B: FiniteGroup):
    """The map from a * |B| + b to its row of A x B, chained from A's row a
    and the |A| copies of B's row b lifted by x * |B| for each x of A."""
    nb = B.order
    lifted = [[[x * nb + y for y in row] for x in A.elements()] for row in B.table]
    return lambda i: list(chain.from_iterable(map(lifted[i % nb].__getitem__, A.table[i // nb])))


_NAMED_RE = re.compile(r"^([a-z0-9_]+)(?:\((.*)\))?$")


def build_named(spec: str) -> FiniteGroup:
    """Build a group from a compact textual spec.

    Grammar: ``cyclic(n)``, ``dihedral(order)``, ``dicyclic(order)``,
    ``elementary(k)``, ``q8``, ``q16``, ``s3``, ``s4``, ``a4``, ``sl23``,
    ``gm1(m)``, ``gm2(m)``, and ``product(spec,spec)``.
    """
    from .extraspecial import Family, build_family

    text = spec.strip().lower().replace(" ", "")
    if text.startswith("product(") and text.endswith(")"):
        inner = text[len("product("):-1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return direct_product(build_named(inner[:i]), build_named(inner[i + 1:]))
        raise ValueError(f"product spec needs two comma-separated factors: {spec!r}")
    m = _NAMED_RE.match(text)
    if not m:
        raise ValueError(f"unrecognized group spec {spec!r}")
    head, arg = m.group(1), m.group(2)
    simple = {
        "q8": quaternion8,
        "q16": lambda: dicyclic(16),
        "s3": lambda: symmetric(3),
        "s4": lambda: symmetric(4),
        "a4": lambda: alternating(4),
        "sl23": special_linear_2_3,
    }
    if head in simple:
        if arg:
            raise ValueError(f"{head!r} takes no parameter")
        return simple[head]()
    if arg is None:
        raise ValueError(f"group spec {spec!r} needs a parameter")
    value = int(arg)
    if head in ("cyclic", "z"):
        return cyclic(value)
    if head in ("dihedral", "d"):
        return dihedral(value)
    if head in ("dicyclic", "dic"):
        return dicyclic(value)
    if head in ("elementary", "z2e"):
        return elementary_abelian(value)
    if head == "gm1":
        return build_family(value, Family.GM1)
    if head == "gm2":
        return build_family(value, Family.GM2)
    raise ValueError(f"unrecognized group spec {spec!r}")
