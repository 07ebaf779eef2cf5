"""Constructors for the small named groups used throughout the test corpus."""

from __future__ import annotations

import re
from itertools import product

from .group import FiniteGroup, group_from_permutations


def cyclic(n: int) -> FiniteGroup:
    """Z_n with additive indexing: element i is the residue i."""
    if n < 1:
        raise ValueError(f"cyclic order must be positive, got {n}")
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup.from_table(rows, name=f"Z{n}")


def elementary_abelian(k: int) -> FiniteGroup:
    """Z2^k with bit-vector indexing: the product is XOR of indices."""
    if k < 1:
        raise ValueError(f"rank must be positive, got {k}")
    n = 1 << k
    rows = [[i ^ j for j in range(n)] for i in range(n)]
    return FiniteGroup.from_table(rows, name=f"Z2^{k}")


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given order 2n, n >= 2.

    Indices 0..n-1 are the rotations r^i, indices n..2n-1 the reflections
    r^i s, so the identity is 0.
    """
    if order < 4 or order % 2:
        raise ValueError(f"dihedral order must be an even number >= 4, got {order}")
    n = order // 2

    def mul(i: int, j: int) -> int:
        ri, fi = i % n, i // n
        rj, fj = j % n, j // n
        rot = (ri + rj) % n if fi == 0 else (ri - rj) % n
        return rot + n * (fi ^ fj)

    rows = [[mul(i, j) for j in range(order)] for i in range(order)]
    return FiniteGroup.from_table(rows, name=f"D{order}")


def dicyclic(order: int) -> FiniteGroup:
    """Dicyclic group of order 4m: <a, b | a^(2m)=1, b^2=a^m, b a b^-1 = a^-1>.

    Orders 8 and 16 are the quaternion groups Q8 and Q16.  Indices 0..2m-1
    are a^i, indices 2m..4m-1 are a^i b.
    """
    if order < 8 or order % 4:
        raise ValueError(f"dicyclic order must be a multiple of 4 >= 8, got {order}")
    m = order // 4
    n = 2 * m

    def mul(i: int, j: int) -> int:
        ri, fi = i % n, i // n
        rj, fj = j % n, j // n
        if fi == 0:
            rot = (ri + rj) % n
        else:
            rot = (ri - rj) % n
            if fj:
                rot = (rot + m) % n
        return rot + n * (fi ^ fj)

    name = f"Q{order}" if order in (8, 16) else f"Dic{order}"
    rows = [[mul(i, j) for j in range(order)] for i in range(order)]
    return FiniteGroup.from_table(rows, name=name)


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
    nb = B.order
    n = A.order * nb

    def mul(i: int, j: int) -> int:
        a1, b1 = divmod(i, nb)
        a2, b2 = divmod(j, nb)
        return A.table[a1][a2] * nb + B.table[b1][b2]

    rows = [[mul(i, j) for j in range(n)] for i in range(n)]
    label = name or f"{A.name or '?'}x{B.name or '?'}"
    return FiniteGroup.from_table(rows, name=label)


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
