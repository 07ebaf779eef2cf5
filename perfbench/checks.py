"""Output checks for the benchmark, computed from group tables alone.

Nothing here imports perfcode.  Every check either recomputes a quantity
with its own arithmetic (closures, cosets, orbits, brute force) or tests a
property that any correct answer must have (a witness is an inverse-closed
transversal, a counterexample satisfies the square-coset condition).  No
check compares against stored output.

A table is a sequence of rows with ``table[a][b]`` the product a*b and the
identity at index 0.  Every check returns a list of error strings; an empty
list means the output passed.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import product
from pathlib import Path

ORACLE_MAX_ORDER = 16
ORACLE_MAX_TUPLES = 100_000


def closure(table, gens) -> frozenset[int]:
    """Element set of the subgroup generated by ``gens``."""
    gens = [g for g in gens if g != 0]
    members = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            row = table[x]
            for g in gens:
                y = row[g]
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(members)


def inverses(table) -> list[int]:
    return [row.index(0) for row in table]


def element_orders(table) -> list[int]:
    out = []
    for g in range(len(table)):
        k, x = 1, g
        while x != 0:
            x = table[x][g]
            k += 1
        out.append(k)
    return out


def is_subgroup(table, elems) -> bool:
    return 0 in elems and all(table[a][b] in elems for a in elems for b in elems)


def coset_label(table, H, g) -> int:
    """Least element of the right coset Hg."""
    return min(table[h][g] for h in H)


def mask(elems) -> int:
    return sum(1 << g for g in elems)


def generating_set(table) -> list[int]:
    """A small generating set of the whole group, chosen greedily."""
    gens: list[int] = []
    span = frozenset({0})
    for g in range(len(table)):
        if g not in span:
            gens.append(g)
            span = closure(table, gens)
    return gens


def conjugate_set(table, inv, elems, x) -> frozenset[int]:
    """{x^-1 h x : h in elems}."""
    row = table[inv[x]]
    return frozenset(table[row[h]][x] for h in elems)


# --- closed forms ------------------------------------------------------------


def prime_factors(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def gaussian_binomial(n: int, k: int, q: int = 2) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def closed_form_subgroup_count(table) -> int | None:
    """Subgroup count for Z_n, Z_2^k and the dihedral group of order 2n.

    The family is recognised from the table itself: cyclic when some element
    has order n; elementary abelian when every non-identity element is an
    involution; dihedral of order 2n (n >= 3) when some element r has order n
    and every element outside <r> is an involution.  Returns None for any
    other group.
    """
    n = len(table)
    orders = element_orders(table)
    if n in orders:
        return len(divisors(n))
    if n > 1 and all(o == 2 for o in orders[1:]):
        k = n.bit_length() - 1
        return sum(gaussian_binomial(k, j) for j in range(k + 1))
    half = n // 2
    if n % 2 == 0 and half >= 3:
        for r, o in enumerate(orders):
            if o == half:
                rot = closure(table, [r])
                if all(table[g][g] == 0 for g in range(n) if g not in rot):
                    return len(divisors(half)) + sum(divisors(half))
                break
    return None


# --- brute-force transversal oracle -------------------------------------------


def transversal_exists(table, H) -> bool:
    """True iff some right transversal of H is closed under inversion.

    Tries every choice of one element per right coset, so it is limited to
    small groups; it shares no logic with any perfcode criterion.
    """
    n = len(table)
    if n > ORACLE_MAX_ORDER:
        raise ValueError(f"transversal oracle is limited to order <= {ORACLE_MAX_ORDER}")
    inv = inverses(table)
    blocks: dict[int, list[int]] = {}
    for g in range(n):
        blocks.setdefault(coset_label(table, H, g), []).append(g)
    size = 1
    for block in blocks.values():
        size *= len(block)
    if size > ORACLE_MAX_TUPLES:
        raise ValueError("transversal oracle would enumerate too many tuples")
    for combo in product(*blocks.values()):
        chosen = set(combo)
        if all(inv[g] in chosen for g in chosen):
            return True
    return False


# --- sweep-96 -----------------------------------------------------------------


def check_sweep_row(table, row, orders) -> list[str]:
    """One cross-check row: agreement, verdict count, oracle, code-perfect."""
    errors = []
    H = frozenset(row["subgroup"])
    label = f"{row['group']} {sorted(H)}"
    if not is_subgroup(table, H):
        errors.append(f"{label}: not a subgroup")
        return errors
    values = set(row["verdicts"].values())
    if len(row["verdicts"]) < 2:
        errors.append(f"{label}: {len(row['verdicts'])} verdict(s), need at least 2")
    if len(values) != 1 or row["agree"] is not True:
        errors.append(f"{label}: criteria disagree: {row['verdicts']}")
        return errors
    verdict = values.pop()
    if 4 not in orders and verdict is not True:
        errors.append(f"{label}: group has no element of order 4 but the row is negative")
    if len(table) <= ORACLE_MAX_ORDER and transversal_exists(table, H) != verdict:
        errors.append(f"{label}: verdict {verdict} contradicts the transversal oracle")
    return errors


def check_sweep_group(table, rows) -> list[str]:
    """Rows of one group: no subgroup twice, closed-form row count."""
    errors = []
    name = rows[0]["group"] if rows else "?"
    subs = [frozenset(r["subgroup"]) for r in rows]
    if len(set(subs)) != len(subs):
        errors.append(f"{name}: a subgroup appears in more than one row")
    expected = closed_form_subgroup_count(table)
    if expected is not None and expected != len(rows):
        errors.append(f"{name}: {len(rows)} rows, the closed form gives {expected}")
    return errors


# --- lattice-128 --------------------------------------------------------------


def check_lattice(table, subgroups, reps) -> list[str]:
    """Every subgroup of G once, and one representative per conjugacy class.

    ``subgroups`` is the enumerated lattice and ``reps`` the representatives
    kept by the conjugacy dedupe, each as an element set.  Completeness is
    checked where a count is known apart from the enumeration: G itself,
    involutions, cyclic subgroups, prime-power orders, index 2, and the
    conjugacy class sizes.
    """
    n = len(table)
    errors = []
    subs = set(subgroups)
    if len(subs) != len(subgroups):
        errors.append("a subgroup is listed twice")
    for K in subs:
        if not is_subgroup(table, K):
            errors.append(f"{sorted(K)[:8]}... is not closed under the product")
            return errors
    if frozenset(range(n)) not in subs:
        errors.append("the group itself is missing")
    by_order = Counter(len(K) for K in subs)
    for p in prime_factors(n):
        q = p
        while n % q == 0:
            # Frobenius: the subgroups of any prime-power order dividing |G|
            # number 1 mod p.
            if by_order[q] % p != 1:
                errors.append(f"{by_order[q]} subgroups of order {q}, not 1 mod {p}")
            q *= p
    if n % 2 == 0:
        # Index-2 subgroups are the hyperplanes of G/<g^2>, an elementary
        # abelian 2-group of rank r, so there are 2^r - 1 of them.
        squares = closure(table, [table[g][g] for g in range(n)])
        expected = n // len(squares) - 1
        if by_order[n // 2] != expected:
            errors.append(f"{by_order[n // 2]} subgroups of index 2, expected {expected}")
    involutions = [g for g in range(1, n) if table[g][g] == 0]
    order2 = by_order[2]
    if order2 != len(involutions):
        errors.append(f"{order2} subgroups of order 2, but {len(involutions)} involutions")
    cyclic = {closure(table, [g]) for g in range(n)}
    if not cyclic <= subs:
        errors.append("a cyclic subgroup is missing from the lattice")
    orders = element_orders(table)
    listed_cyclic = sum(1 for K in subs if any(orders[g] == len(K) for g in K))
    if listed_cyclic != len(cyclic):
        errors.append(f"{listed_cyclic} cyclic subgroups listed, {len(cyclic)} exist")
    inv = inverses(table)
    gens = generating_set(table)
    covered: set[frozenset[int]] = set()
    for K in reps:
        orbit = {K}
        frontier = [K]
        while frontier:
            nxt = []
            for L in frontier:
                for x in gens:
                    M = conjugate_set(table, inv, L, x)
                    if M not in orbit:
                        orbit.add(M)
                        nxt.append(M)
            frontier = nxt
        if min(orbit, key=mask) != K:
            errors.append(f"{sorted(K)[:8]}... is not the least-bitmask conjugate")
        if not orbit <= subs:
            errors.append("a conjugate of a representative is missing from the lattice")
        if orbit & covered:
            errors.append("two representatives are conjugate")
        covered |= orbit
    if len(covered) != len(subs):
        errors.append(
            f"class sizes |G:N_G(K)| sum to {len(covered)}, the lattice has {len(subs)}"
        )
    return errors


# --- check-256 ----------------------------------------------------------------


def load_table(path: str | Path) -> list[list[int]]:
    """Read a group file into the element indexing perfcode documents.

    Table files: the identity moves to index 0 and the other elements keep
    their relative order.  Permutation files: the closure of the generators,
    sorted by image tuple, with p*q meaning "apply p, then q".
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if "table" in doc:
        rows = doc["table"]
        n = len(rows)
        ident = list(range(n))
        e = next(i for i in range(n) if rows[i] == ident)
        old = [e] + [i for i in range(n) if i != e]
        pos = {o: i for i, o in enumerate(old)}
        return [[pos[rows[a][b]] for b in old] for a in old]
    gens = [tuple(p) for p in doc["generators"]]
    degree = len(gens[0])
    seen = {tuple(range(degree))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(q[p[i]] for i in range(degree))
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    elems = sorted(seen)
    index = {p: i for i, p in enumerate(elems)}
    return [[index[tuple(q[p[i]] for i in range(degree))] for q in elems] for p in elems]


def check_verdict(table, gens, doc) -> list[str]:
    """A ``perfcode check --witness`` result, certified from the table.

    Positive verdicts need a witness: an inverse-closed set containing the
    identity that meets every right coset of H exactly once.  Negative
    verdicts need a counterexample x with x^2 in H, |H : H meet H^x| odd and
    no y in Hx with y^2 = 1.
    """
    H = closure(table, gens)
    if sorted(doc.get("subgroup", [])) != sorted(H):
        return [f"subgroup {doc.get('subgroup')} is not <{gens}> (order {len(H)})"]
    n = len(table)
    inv = inverses(table)
    verdict = doc.get("is_perfect_code")
    if verdict is True:
        witness = doc.get("witness")
        if witness is None:
            return ["positive verdict without a witness"]
        W = set(witness)
        errors = []
        if len(W) != len(witness):
            errors.append("witness repeats an element")
        if 0 not in W:
            errors.append("witness lacks the identity")
        if any(inv[w] not in W for w in W):
            errors.append("witness is not inverse-closed")
        labels = {coset_label(table, H, w) for w in W}
        if len(labels) != len(W) or len(W) * len(H) != n:
            errors.append("witness does not meet each right coset of H exactly once")
        return errors
    if verdict is False:
        x = doc.get("counterexample")
        if x is None:
            return ["negative verdict without a counterexample"]
        errors = []
        if table[x][x] not in H:
            errors.append(f"counterexample {x}: x^2 is not in H")
        meet = len(H & conjugate_set(table, inv, H, x))
        if (len(H) // meet) % 2 == 0:
            errors.append(f"counterexample {x}: |H : H meet H^x| is even")
        if any(table[y][y] == 0 for y in (table[h][x] for h in H)):
            errors.append(f"counterexample {x}: the coset Hx holds an element y with y^2 = 1")
        return errors
    return [f"is_perfect_code is {verdict!r}, not a boolean"]
