"""The three workloads: inputs built from a seed, one timed pass, checks.

Each workload puts most of its time in a different perfcode module:
sweep-96 in ``codes`` (the criteria), lattice-128 in ``subgroups`` (the
lattice and its conjugacy dedupe) and check-256 in ``group`` (loading and
validating group files).  A pass is one whole round of the same operations;
the runner repeats passes until the run length is reached.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# Calls go through the module attributes so that the wrappers tracer.py
# installs after this import are the ones called.
from perfcode import cli, construct, corpus, subgroups
from perfcode.group import FiniteGroup

import checks


@dataclass
class PassResult:
    """Op wall times in ms, the timed wall time of the pass, and failures."""

    op_ms: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def relabel_rows(G: FiniteGroup, perm: list[int]) -> list[list[int]]:
    """G's table with element a renamed perm[a]."""
    n = G.order
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        row, src = rows[perm[a]], G.table[a]
        for b in range(n):
            row[perm[b]] = perm[src[b]]
    return rows


def random_relabel(G: FiniteGroup, rng: random.Random, name: str) -> FiniteGroup:
    """An isomorphic copy with shuffled labels, rebuilt through ``from_table``.

    The identity usually moves off index 0, so canonicalization runs too.
    """
    perm = list(range(G.order))
    rng.shuffle(perm)
    return FiniteGroup.from_table(relabel_rows(G, perm), name=name)


# --- sweep-96 -----------------------------------------------------------------

# The order 48-96 band: the built-in corpus has no group of order 33-127.
SWEEP_BAND = (
    "product(gm1(2),cyclic(3))",
    "product(s4,cyclic(2))",
    "dihedral(64)",
    "dihedral(96)",
    "dicyclic(48)",
    "product(q8,cyclic(6))",
)
# Only groups this small are relabelled: a relabelling changes the order of
# the transversal backtracking, which on the band groups changes its time by
# orders of magnitude.
SWEEP_RELABEL_MAX_ORDER = 16


class Sweep:
    """cross_check with the default criteria plus report_emit to JSON."""

    name = "sweep-96"
    tail_percentile = 99
    min_passes = 1
    setup_reps = 8

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        first = []
        for i, entry in enumerate(corpus.builtin_corpus()):
            G = entry.group
            if G.order <= SWEEP_RELABEL_MAX_ORDER:
                G = random_relabel(G, rng, f"{G.name}#{i}")
                entry = corpus.make_entry(G, entry.provenance)
            first.append(entry)
        second = [
            corpus.make_entry(construct.build_named(spec), corpus.Provenance.CONSTRUCTED)
            for spec in SWEEP_BAND
        ]
        names = [e.group.name for e in first + second]
        if len(set(names)) != len(names):
            raise RuntimeError(f"sweep group names must be unique: {sorted(names)}")
        rng.shuffle(first)
        rng.shuffle(second)
        return ((first, 32), (second, 96))

    def run_pass(self, inputs) -> PassResult:
        start = perf_counter()
        outputs = []
        for entries, max_order in inputs:
            report = corpus.cross_check(entries, max_order=max_order)
            outputs.append((entries, report, corpus.report_emit(report, fmt="json")))
        result = PassResult(wall_s=perf_counter() - start)
        for entries, report, text in outputs:
            result.op_ms.extend(report.row_ms)
            self._check(entries, report, text, result)
        return result

    @staticmethod
    def _check(entries, report, text, result: PassResult) -> None:
        doc = json.loads(text)
        if doc["rows"] != list(report.rows) or doc["summary"] != report.summary:
            result.errors.append("report_emit JSON does not round-trip the report")
        if report.summary["disagreements"] != 0:
            result.errors.append(f"{report.summary['disagreements']} disagreements")
        by_group = defaultdict(list)
        for row in report.rows:
            by_group[row["group"]].append(row)
        tables = {e.group.name: e.group.table for e in entries}
        if set(by_group) != set(tables):
            result.errors.append("the rows do not cover exactly the corpus groups")
        for name, rows in by_group.items():
            table = tables.get(name)
            if table is None:
                result.failed += len(rows)
                continue
            orders = checks.element_orders(table)
            group_errors = checks.check_sweep_group(table, rows)
            result.errors.extend(group_errors)
            for row in rows:
                row_errors = checks.check_sweep_row(table, row, orders)
                result.errors.extend(row_errors)
                if group_errors or row_errors:
                    result.failed += 1


# --- lattice-128 --------------------------------------------------------------

LATTICE_GROUPS = (
    # 2-groups, abelian
    "elementary(3)", "cyclic(8)", "product(cyclic(2),cyclic(4))", "elementary(4)",
    "cyclic(16)", "product(cyclic(4),cyclic(4))", "elementary(5)",
    "product(cyclic(8),cyclic(4))", "product(cyclic(8),cyclic(8))", "cyclic(128)",
    # 2-groups, non-abelian
    "dihedral(8)", "q8", "dihedral(16)", "q16", "product(q8,cyclic(2))",
    "product(dihedral(8),cyclic(2))", "gm1(2)", "gm2(2)", "product(dihedral(8),cyclic(4))",
    "product(q8,cyclic(4))", "dihedral(32)", "dicyclic(32)", "product(q8,q8)",
    "product(q16,cyclic(4))", "dihedral(64)", "product(dihedral(8),dihedral(8))",
    "dicyclic(128)", "gm2(3)",
    # mixed order, abelian
    "cyclic(36)", "product(cyclic(3),cyclic(27))",
    # mixed order, non-abelian
    "a4", "s4", "sl23", "dihedral(24)", "dicyclic(24)", "product(s3,cyclic(4))",
    "product(s3,s3)", "product(s4,cyclic(2))", "product(a4,cyclic(4))",
    "product(sl23,cyclic(2))", "dihedral(48)", "dicyclic(48)",
    "product(cyclic(9),dihedral(8))", "product(cyclic(5),q16)",
    "product(dihedral(10),cyclic(10))", "product(gm1(2),cyclic(3))",
)


class Lattice:
    """all_subgroups, then one subgroup per conjugacy class (the stage that
    ``cross-check --dedupe-conjugates`` runs before its rows)."""

    name = "lattice-128"
    tail_percentile = 75
    min_passes = 1
    setup_reps = 3

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        groups = [random_relabel(construct.build_named(spec), rng, spec) for spec in LATTICE_GROUPS]
        rng.shuffle(groups)
        return groups

    def run_pass(self, groups) -> PassResult:
        result = PassResult()
        for G in groups:
            start = perf_counter()
            subs = subgroups.all_subgroups(G, None, 128)
            keep, seen = [], set()
            for H in subs:
                rep = subgroups.minimal_conjugate(G, H)
                if rep.elements not in seen:
                    seen.add(rep.elements)
                    keep.append(rep)
            elapsed = perf_counter() - start
            result.op_ms.append(elapsed * 1000.0)
            result.wall_s += elapsed
            errors = checks.check_lattice(
                G.table, [H.elements for H in subs], [K.elements for K in keep]
            )
            if errors:
                result.failed += 1
                result.errors.extend(f"{G.name}: {e}" for e in errors)
        return result


# --- check-256 ----------------------------------------------------------------

CHECK_TABLES = (
    "product(gm1(3),cyclic(2))",
    "dihedral(256)",
    "product(q16,product(dihedral(8),cyclic(2)))",
    "product(cyclic(4),product(q8,dihedral(8)))",
)


def _cycle(degree: int, points: list[int]) -> list[int]:
    images = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return images


def _swaps(degree: int, *pairs: tuple[int, int]) -> list[int]:
    images = list(range(degree))
    for a, b in pairs:
        images[a], images[b] = b, a
    return images


# Two permutation groups of order 256: D8 x D8 x Z4 on 4 + 4 + 4 points, and
# a Sylow 2-subgroup of S8 (Z2 wr Z2 wr Z2) times Z2 on 8 + 2 points.
CHECK_PERMUTATIONS = {
    "d8xd8xz4": [
        _cycle(12, [0, 1, 2, 3]), _swaps(12, (1, 3)),
        _cycle(12, [4, 5, 6, 7]), _swaps(12, (5, 7)),
        _cycle(12, [8, 9, 10, 11]),
    ],
    "syl2s8xz2": [
        _swaps(10, (0, 1)), _swaps(10, (0, 2), (1, 3)),
        _swaps(10, (0, 4), (1, 5), (2, 6), (3, 7)), _swaps(10, (8, 9)),
    ],
}
CHECK_ORDER = 256
QUERIES_PER_FILE = 8


class Check:
    """In-process ``perfcode check FILE --subgroup GENS --witness`` calls."""

    name = "check-256"
    tail_percentile = 90
    min_passes = 3
    setup_reps = 2

    def __init__(self) -> None:
        self._tables: dict[str, list[list[int]]] = {}

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        files = []
        for i, spec in enumerate(CHECK_TABLES):
            G = construct.build_named(spec)
            perm = list(range(G.order))
            rng.shuffle(perm)
            if perm[0] == 0:
                j = rng.randrange(1, G.order)
                perm[0], perm[j] = perm[j], perm[0]
            doc = {"name": spec, "order": G.order, "table": relabel_rows(G, perm)}
            files.append(self._write(workdir / f"table{i}.json", doc))
        for name, gens in CHECK_PERMUTATIONS.items():
            degree = len(gens[0])
            sigma = list(range(degree))
            rng.shuffle(sigma)
            moved = []
            for g in gens:
                images = [0] * degree
                for i in range(degree):
                    images[sigma[i]] = sigma[g[i]]
                moved.append(images)
            doc = {"name": name, "degree": degree, "generators": moved}
            files.append(self._write(workdir / f"{name}.json", doc))
        queries = []
        for path in files:
            for q in range(QUERIES_PER_FILE):
                gens = [rng.randrange(1, CHECK_ORDER) for _ in range(1 + q % 2)]
                queries.append((path, gens))
        rng.shuffle(queries)
        return queries

    @staticmethod
    def _write(path: Path, doc: dict) -> str:
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def run_pass(self, queries) -> PassResult:
        result = PassResult()
        for path, gens in queries:
            argv = ["check", path, "--subgroup", ",".join(map(str, gens)), "--witness"]
            out = io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            elapsed = perf_counter() - start
            result.op_ms.append(elapsed * 1000.0)
            result.wall_s += elapsed
            if code != 0:
                errors = [f"exit code {code}"]
            else:
                if path not in self._tables:
                    self._tables[path] = checks.load_table(path)
                errors = checks.check_verdict(self._tables[path], gens, json.loads(out.getvalue()))
            if errors:
                result.failed += 1
                result.errors.extend(f"{Path(path).name} <{gens}>: {e}" for e in errors)
        return result


WORKLOADS = {w.name: w for w in (Sweep, Lattice, Check)}
