"""Built-in group corpus, cross-criterion verification sweeps, and reports."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from enum import Enum

from . import construct
from .codes import (
    GRAPH_SEARCH_CAP,
    Criterion,
    _omega,
    _sylow_chain,
    connection_set_from_transversal,
    decide,
    double_coset_condition,
    find_inverse_closed_transversal,
    is_perfect_code_in_cayley_graph,
    search_connection_set,
    square_coset_condition,
    sylow_reduction,
)
from .extraspecial import (
    Family,
    build_family,
    classify_extraspecial,
    classify_sylow_extraspecial,
    is_extraspecial,
    sylow_2_classification,
)
from .group import FiniteGroup, Subgroup, full_subgroup
from .subgroups import all_subgroups, is_normal, minimal_conjugate, normalizer

DEFAULT_CRITERIA = (
    "decide",
    "transversal",
    "square-coset",
    "double-coset",
    "omega-quotient",
    "sylow-reduction",
)

ALL_CRITERIA = DEFAULT_CRITERIA + ("graph",)


class Provenance(str, Enum):
    BUILTIN = "builtin"
    FILE = "file"
    CONSTRUCTED = "constructed"


@dataclass(frozen=True)
class CorpusEntry:
    group: FiniteGroup
    provenance: Provenance
    tags: frozenset[str]


def auto_tags(G: FiniteGroup) -> frozenset[str]:
    """Structural labels computed at ingestion, each selecting a closed-form
    classification for the sweep: ``extraspecial``, and
    ``sylow2-extraspecial`` when the Sylow 2-subgroup is extraspecial.
    """
    tags: set[str] = set()
    if is_extraspecial(G).is_extraspecial:
        tags.add("extraspecial")
    if G.order % 2 == 0 and sylow_2_classification(G).is_extraspecial:
        tags.add("sylow2-extraspecial")
    return frozenset(tags)


def make_entry(G: FiniteGroup, provenance: Provenance = Provenance.BUILTIN) -> CorpusEntry:
    return CorpusEntry(group=G, provenance=provenance, tags=auto_tags(G))


def builtin_corpus(include_m3: bool = False) -> list[CorpusEntry]:
    """The deterministic built-in corpus.

    Cyclic groups up to order 16, elementary abelian 2-groups up to rank 4,
    dihedral groups up to order 16, the quaternion groups Q8 and Q16, the
    extraspecial families at m <= 2 (m = 3 behind the flag), S3, S4, A4,
    SL(2,3) and D8 x Z3.
    """
    groups: list[tuple[FiniteGroup, Provenance]] = []
    for n in range(1, 17):
        groups.append((construct.cyclic(n), Provenance.BUILTIN))
    for k in range(2, 5):
        groups.append((construct.elementary_abelian(k), Provenance.BUILTIN))
    for order in range(6, 17, 2):
        groups.append((construct.dihedral(order), Provenance.BUILTIN))
    groups.append((construct.dicyclic(8), Provenance.BUILTIN))
    groups.append((construct.dicyclic(16), Provenance.BUILTIN))
    top_m = 3 if include_m3 else 2
    for m in range(1, top_m + 1):
        groups.append((build_family(m, Family.GM1), Provenance.CONSTRUCTED))
        groups.append((build_family(m, Family.GM2), Provenance.CONSTRUCTED))
    groups.append((construct.symmetric(3), Provenance.BUILTIN))
    groups.append((construct.symmetric(4), Provenance.BUILTIN))
    groups.append((construct.alternating(4), Provenance.BUILTIN))
    groups.append((construct.special_linear_2_3(), Provenance.BUILTIN))
    groups.append(
        (
            construct.direct_product(
                construct.dihedral(8), construct.cyclic(3), name="D8xZ3"
            ),
            Provenance.BUILTIN,
        )
    )
    return [make_entry(G, prov) for G, prov in groups]


@dataclass(frozen=True, eq=False)
class CrossCheckReport:
    """Per-(group, subgroup) verdicts with an agreement gate.

    ``rows`` is the byte-stable section; ``row_ms`` carries the wall-clock
    timings in row order and is excluded from stable output.
    """

    criteria: tuple[str, ...]
    rows: tuple[dict, ...]
    summary: dict
    row_ms: tuple[float, ...]

    @property
    def disagreements(self) -> int:
        return self.summary["disagreements"]


def _square_coset(G: FiniteGroup, H: Subgroup, within: Subgroup) -> bool:
    return square_coset_condition(G, H, within=within).is_perfect_code


def _row_verdicts(
    G: FiniteGroup, H: Subgroup, criteria: tuple[str, ...], tags: frozenset[str]
) -> tuple[dict[str, bool], dict[str, str]]:
    """Each selected key's verdict, and ``same_as``: each key whose statement
    (one implementation on its subgroups) another key evaluated, mapped to
    that key.  A statement is evaluated once per row.  ``decide`` seeds the
    statements it evaluated and is the alias of the one that settled it,
    never the original.
    """
    full = full_subgroup(G)
    verdicts: dict[str, bool] = {}
    same_as: dict[str, str] = {}
    memo: dict[tuple, bool] = {}
    first: dict[tuple, str] = {}
    settled = None

    def ask(key: str, *statement) -> None:
        if statement in first:
            same_as[key] = first[statement]
        elif statement not in memo:
            memo[statement] = statement[0](G, *statement[1:])
        first.setdefault(statement, key)
        verdicts[key] = memo[statement]

    if "sylow-reduction" in criteria:
        H2, N, N2, P = sylow_reduction(G, H)
    if "decide" in criteria:
        verdict = decide(G, H)
        verdicts["decide"] = verdict.is_perfect_code
        if verdict.criterion is not Criterion.ODD_ORDER:
            # decide ran omega on (H2, N2); when that failed, the scan of H in G
            H2, _, N2 = _sylow_chain(G, H)
            settled = (_omega, H2, N2)
            memo[settled] = verdict.criterion is Criterion.OMEGA_QUOTIENT
            if verdict.criterion is Criterion.SQUARE_COSET:
                settled = (_square_coset, H, full)
                memo[settled] = verdict.is_perfect_code
    if "transversal" in criteria:
        T = find_inverse_closed_transversal(G, H)
        verdicts["transversal"] = T is not None
        if T is not None:
            S = connection_set_from_transversal(G, H, T)
            verdicts["graph-witness"] = is_perfect_code_in_cayley_graph(G, S, H)
    if "square-coset" in criteria:
        ask("square-coset", _square_coset, H, full)
    if "double-coset" in criteria:
        verdicts["double-coset"] = double_coset_condition(G, H).is_perfect_code
    if "omega-quotient" in criteria:
        size = len(H)
        if size & (size - 1) == 0 or is_normal(G, H):
            ask("omega-quotient", _omega, H, normalizer(G, H))
    if "sylow-reduction" in criteria:
        ask("reduction-h2-in-p", _square_coset, H2, P)
        ask("reduction-omega-n2", _omega, H2, N2)
        ask("reduction-omega-n", _omega, H2, N)
        ask("reduction-h-in-g", _square_coset, H, full)
    if "graph" in criteria and G.order <= GRAPH_SEARCH_CAP:
        verdicts["graph"] = search_connection_set(G, H) is not None
    if "extraspecial" in tags:
        verdicts["extraspecial-classification"] = classify_extraspecial(
            G, H
        ).is_perfect_code
    if "sylow2-extraspecial" in tags:
        verdicts["sylow-extraspecial-classification"] = classify_sylow_extraspecial(
            G, H
        ).is_perfect_code
    if settled in first:
        same_as["decide"] = first[settled]
    return verdicts, same_as


def cross_check(
    corpus: list[CorpusEntry],
    criteria: tuple[str, ...] | list[str] | None = None,
    max_order: int = 64,
    dedupe_conjugates: bool = False,
) -> CrossCheckReport:
    """Run every selected criterion on every subgroup of every corpus group.

    Groups larger than ``max_order`` are skipped.  Disagreements are counted,
    never resolved: the criteria are provably equivalent, so any disagreement
    is an implementation bug.  A key in the row's ``same_as`` repeats a
    statement another key evaluated and is no vote; a row with fewer than
    two votes is ``unchecked``: it does not agree, is counted apart from
    disagreements, and takes its consensus from ``decide``.  Each row
    records its consensus as ``perfect_code``.  Rows are produced in
    canonical order, so stable report sections are byte-identical across runs.
    """
    selected = tuple(criteria) if criteria else DEFAULT_CRITERIA
    for name in selected:
        if name not in ALL_CRITERIA:
            raise ValueError(f"unknown criterion {name!r}; choose from {ALL_CRITERIA}")
    rows: list[dict] = []
    timings: list[float] = []
    groups_run = 0
    disagreements = 0
    unchecked = 0
    for entry in corpus:
        G = entry.group
        if G.order > max_order:
            continue
        groups_run += 1
        subs = all_subgroups(G, None, max(128, max_order))
        if dedupe_conjugates:
            keep = []
            seen: set[int] = set()
            for H in subs:
                rep = minimal_conjugate(G, H)
                if rep.mask not in seen:
                    seen.add(rep.mask)
                    keep.append(rep)
            subs = tuple(keep)
        for H in subs:
            start = time.perf_counter()
            verdicts, same_as = _row_verdicts(G, H, selected, entry.tags)
            timings.append((time.perf_counter() - start) * 1000.0)
            checked = len(verdicts) - len(same_as) >= 2
            agree = checked and len(set(verdicts.values())) == 1
            if "decide" in verdicts:
                consensus = verdicts["decide"]
            elif checked:
                consensus = next(iter(verdicts.values()))
            else:
                consensus = decide(G, H).is_perfect_code
            if not checked:
                unchecked += 1
            elif not agree:
                disagreements += 1
            rows.append(
                {
                    "group": G.name or "",
                    "order": G.order,
                    "subgroup": H.indices(),
                    "verdicts": verdicts,
                    "same_as": same_as,
                    "perfect_code": consensus,
                    "agree": agree,
                }
            )
    summary = {
        "groups": groups_run,
        "rows": len(rows),
        "perfect_codes": sum(row["perfect_code"] for row in rows),
        "disagreements": disagreements,
        "unchecked": unchecked,
        "criteria": list(selected),
        "max_order": max_order,
    }
    return CrossCheckReport(
        criteria=selected,
        rows=tuple(rows),
        summary=summary,
        row_ms=tuple(timings),
    )


def _agreement_block(rows: tuple[dict, ...], keys: tuple[str, ...]) -> tuple[int, int]:
    """(rows where all evaluated keys agree, rows where any key was evaluated)."""
    agreeing = 0
    present = 0
    for row in rows:
        verdicts, same_as = row["verdicts"], row["same_as"]
        values = [verdicts[k] for k in keys if k in verdicts and k not in same_as]
        if not values:
            continue
        present += 1
        baseline = verdicts.get("decide", values[0])
        if all(v == baseline for v in values):
            agreeing += 1
    return agreeing, present


_COSET_KEYS = ("transversal", "square-coset", "double-coset", "graph-witness")
_REDUCTION_KEYS = (
    "reduction-h2-in-p",
    "reduction-omega-n2",
    "reduction-omega-n",
    "reduction-h-in-g",
)
_CLASSIFICATION_KEYS = (
    "extraspecial-classification",
    "sylow-extraspecial-classification",
)


def report_emit(
    report: CrossCheckReport, fmt: str = "json", include_timings: bool = True
) -> str:
    """Render a report; field order is stable and timings sit in their own
    (non-stable) trailing section."""
    if fmt == "json":
        doc: dict = {
            "schema": "cross-check-report/v2",
            "summary": report.summary,
            "rows": list(report.rows),
        }
        if include_timings:
            doc["timings"] = {
                "row_ms": [round(ms, 3) for ms in report.row_ms],
                "total_ms": round(sum(report.row_ms), 3),
            }
        return json.dumps(doc, indent=2) + "\n"
    if fmt in ("md", "markdown"):
        s = report.summary
        lines = [
            "# Cross-check report",
            "",
            "## Summary",
            "",
            f"- groups: {s['groups']}",
            f"- subgroup rows: {s['rows']}",
            f"- perfect codes: {s['perfect_codes']}",
            f"- disagreements: {s['disagreements']}",
            f"- unchecked: {s['unchecked']}",
            f"- criteria: {', '.join(s['criteria'])}",
            "",
            "## Criterion agreement",
            "",
        ]
        for title, keys in (
            ("Coset criteria (transversal / square / double / witness)", _COSET_KEYS),
            ("Sylow reduction (statements no other key evaluated)", _REDUCTION_KEYS),
            ("Classifications", _CLASSIFICATION_KEYS),
        ):
            agreeing, present = _agreement_block(report.rows, keys)
            lines.append(f"- {title}: {agreeing}/{present} rows agree")
        lines += ["", "## Rows", "", "| group | subgroup | perfect code | agree |", "| --- | --- | --- | --- |"]
        for row in report.rows:
            sub = ",".join(str(i) for i in row["subgroup"])
            checked = len(row["verdicts"]) - len(row["same_as"]) >= 2
            agree = str(row["agree"]).lower() if checked else "unchecked"
            lines.append(
                f"| {row['group']} | {{{sub}}} | {str(row['perfect_code']).lower()} | {agree} |"
            )
        if include_timings:
            lines += [
                "",
                "## Timings (non-stable)",
                "",
                f"- total: {sum(report.row_ms):.1f} ms over {len(report.row_ms)} rows",
            ]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unsupported report format {fmt!r}")
