"""The benchmark's checkers must reject wrong outputs, not only pass right ones.

Run from the repository root with ``python3 perfbench/test_checks.py`` (or
``python3 -m pytest perfbench/test_checks.py``).
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402


def cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral(order):
    n = order // 2

    def mul(i, j):
        ri, fi, rj, fj = i % n, i // n, j % n, j // n
        return ((ri + rj) % n if fi == 0 else (ri - rj) % n) + n * (fi ^ fj)

    return [[mul(i, j) for j in range(order)] for i in range(order)]


def dicyclic(order):
    m = order // 4
    n = 2 * m

    def mul(i, j):
        ri, fi, rj, fj = i % n, i // n, j % n, j // n
        rot = (ri + rj) % n if fi == 0 else (ri - rj + m * fj) % n
        return rot + n * (fi ^ fj)

    return [[mul(i, j) for j in range(order)] for i in range(order)]


def all_subgroups(table):
    """Every subgroup, by closing every subset of at most two generators."""
    n = len(table)
    return list({checks.closure(table, [a, b]) for a in range(n) for b in range(a, n)})


def minimal_reps(table, subgroups):
    inv = checks.inverses(table)
    reps = set()
    for K in subgroups:
        conj = [checks.conjugate_set(table, inv, K, x) for x in range(len(table))]
        reps.add(min(conj, key=checks.mask))
    return list(reps)


def row(group, subgroup, verdict):
    return {
        "group": group,
        "order": 0,
        "subgroup": sorted(subgroup),
        "verdicts": {"decide": verdict, "transversal": verdict},
        "agree": True,
    }


class VerdictChecks(unittest.TestCase):
    # Z6: H = {0, 3} is a perfect code with witness {0, 1, 5}.
    # Z4: H = {0, 2} is not; x = 1 is a counterexample (x^2 = 2, H+1 = {1, 3}).

    def test_true_witness_passes(self):
        doc = {"subgroup": [0, 3], "is_perfect_code": True, "witness": [0, 1, 5]}
        self.assertEqual(checks.check_verdict(cyclic(6), [3], doc), [])

    def test_tampered_witness_is_rejected(self):
        for witness in ([0, 1, 2], [0, 1, 4], [1, 5, 2], [0, 1, 5, 2], [0, 1, 1, 5]):
            doc = {"subgroup": [0, 3], "is_perfect_code": True, "witness": witness}
            self.assertNotEqual(checks.check_verdict(cyclic(6), [3], doc), [], witness)

    def test_positive_verdict_without_witness_is_rejected(self):
        doc = {"subgroup": [0, 3], "is_perfect_code": True}
        self.assertNotEqual(checks.check_verdict(cyclic(6), [3], doc), [])

    def test_wrong_subgroup_is_rejected(self):
        doc = {"subgroup": [0, 2, 4], "is_perfect_code": True, "witness": [0, 1]}
        self.assertNotEqual(checks.check_verdict(cyclic(6), [3], doc), [])

    def test_true_counterexample_passes(self):
        doc = {"subgroup": [0, 2], "is_perfect_code": False, "counterexample": 1}
        self.assertEqual(checks.check_verdict(cyclic(4), [2], doc), [])

    def test_false_counterexample_is_rejected(self):
        for x in (0, 2):
            doc = {"subgroup": [0, 2], "is_perfect_code": False, "counterexample": x}
            self.assertNotEqual(checks.check_verdict(cyclic(4), [2], doc), [], x)
        # Z6 has no element of order 4, so no counterexample exists at all.
        for x in range(6):
            doc = {"subgroup": [0, 3], "is_perfect_code": False, "counterexample": x}
            self.assertNotEqual(checks.check_verdict(cyclic(6), [3], doc), [], x)

    def test_file_indexing_matches_perfcode(self):
        from perfcode.group import load_group

        perm = [3, 0, 1, 2, 5, 4, 7, 6]
        base = dihedral(8)
        table = [[0] * 8 for _ in range(8)]
        for a in range(8):
            for b in range(8):
                table[perm[a]][perm[b]] = perm[base[a][b]]
        docs = [
            {"order": 8, "table": table},
            {"degree": 4, "generators": [[1, 2, 3, 0], [0, 3, 2, 1]]},
        ]
        with tempfile.TemporaryDirectory() as tmp:
            for i, doc in enumerate(docs):
                path = Path(tmp) / f"g{i}.json"
                path.write_text(json.dumps(doc))
                mine = checks.load_table(path)
                self.assertEqual([list(r) for r in load_group(path).table], mine)


class SweepChecks(unittest.TestCase):
    def test_closed_forms(self):
        self.assertEqual(checks.closed_form_subgroup_count(cyclic(12)), 6)
        self.assertEqual(checks.closed_form_subgroup_count(dihedral(8)), 10)
        self.assertEqual(checks.closed_form_subgroup_count(dihedral(12)), 16)
        xor = [[a ^ b for b in range(8)] for a in range(8)]
        self.assertEqual(checks.closed_form_subgroup_count(xor), 16)
        self.assertIsNone(checks.closed_form_subgroup_count(dicyclic(8)))

    def test_off_by_one_row_count_is_rejected(self):
        table = cyclic(8)
        subs = all_subgroups(table)
        rows = [row("Z8", K, True) for K in subs]
        self.assertEqual(checks.check_sweep_group(table, rows), [])
        self.assertNotEqual(checks.check_sweep_group(table, rows[:-1]), [])
        self.assertNotEqual(checks.check_sweep_group(table, rows + rows[:1]), [])

    def test_row_against_oracle(self):
        table = cyclic(4)
        orders = checks.element_orders(table)
        self.assertEqual(checks.check_sweep_row(table, row("Z4", {0, 2}, False), orders), [])
        self.assertNotEqual(checks.check_sweep_row(table, row("Z4", {0, 2}, True), orders), [])

    def test_disagreement_and_single_verdict_are_rejected(self):
        table = cyclic(6)
        orders = checks.element_orders(table)
        split = row("Z6", {0, 3}, True)
        split["verdicts"]["transversal"] = False
        self.assertNotEqual(checks.check_sweep_row(table, split, orders), [])
        lone = row("Z6", {0, 3}, True)
        del lone["verdicts"]["transversal"]
        self.assertNotEqual(checks.check_sweep_row(table, lone, orders), [])

    def test_code_perfect_group_with_negative_row_is_rejected(self):
        table = dihedral(12)  # elements of order 1, 2, 3 and 6 only
        orders = checks.element_orders(table)
        bad = row("D12", {0}, False)
        self.assertIn(
            "no element of order 4",
            " ".join(checks.check_sweep_row(table, bad, orders)),
        )


class LatticeChecks(unittest.TestCase):
    def setUp(self):
        self.table = dihedral(12)
        self.subs = all_subgroups(self.table)
        self.reps = minimal_reps(self.table, self.subs)

    def test_true_lattice_passes(self):
        self.assertEqual(len(self.subs), 16)
        self.assertEqual(checks.check_lattice(self.table, self.subs, self.reps), [])

    def test_off_by_one_subgroup_count_is_rejected(self):
        for i in range(len(self.subs)):
            fewer = self.subs[:i] + self.subs[i + 1:]
            reps = [K for K in self.reps if K in fewer]
            self.assertNotEqual(checks.check_lattice(self.table, fewer, reps), [], i)
        self.assertNotEqual(
            checks.check_lattice(self.table, self.subs + self.subs[:1], self.reps), []
        )

    def test_non_subgroup_is_rejected(self):
        bogus = self.subs + [frozenset({0, 1})]
        self.assertNotEqual(checks.check_lattice(self.table, bogus, self.reps), [])

    def test_wrong_representatives_are_rejected(self):
        self.assertNotEqual(checks.check_lattice(self.table, self.subs, self.reps[1:]), [])
        self.assertNotEqual(checks.check_lattice(self.table, self.subs, self.subs), [])


if __name__ == "__main__":
    unittest.main()
