"""Built-in group corpus, cross-criterion verification sweeps, and reports."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from enum import Enum
from functools import cache
from json.encoder import c_make_encoder
from typing import Iterator

from . import construct
from .codes import (
    GRAPH_SEARCH_CAP,
    Criterion,
    decide,
    double_coset_condition,
    find_inverse_closed_transversal,
    is_perfect_code_in_cayley_graph,
    omega_criterion,
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
from .subgroups import all_subgroups, is_normal, minimal_conjugate, normalizer, sylow_2_subgroup

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

    rows: tuple[dict, ...]
    summary: dict
    row_ms: tuple[float, ...]


def _row_verdicts(
    G: FiniteGroup, H: Subgroup, criteria: tuple[str, ...], tags: frozenset[str]
) -> tuple[dict[str, bool], dict[str, str]]:
    """Each selected key's verdict, and ``same_as``: each key whose statement
    (one implementation on its subgroups) another key evaluated, mapped to
    that key.  A statement is evaluated once per row.  ``decide`` seeds the
    statements it evaluated and is the alias of the one that settled it,
    never the original.  Each implementation is read from this module's
    names at the call, so a wrapper bound over one is what runs.  The Sylow
    chain is computed once, for an even-order H's ``decide`` or the reduction.
    """
    full = full_subgroup(G)
    even_decide = "decide" in criteria and len(H) % 2 == 0
    if even_decide or "sylow-reduction" in criteria:
        H2, N, N2 = sylow_reduction(G, H)
    verdicts: dict[str, bool] = {}
    same_as: dict[str, str] = {}
    seen: dict[tuple, list] = {}  # statement -> [key that evaluated it, or None; verdict]
    settled = None

    def ask(key: str, *statement) -> None:
        entry = seen.get(statement)
        if entry is None:
            entry = seen[statement] = [key, statement[0](G, *statement[1:]).is_perfect_code]
        elif entry[0] is None:
            entry[0] = key
        else:
            same_as[key] = entry[0]
        verdicts[key] = entry[1]

    if "decide" in criteria:
        verdict = decide(G, H)
        verdicts["decide"] = verdict.is_perfect_code
        if even_decide:
            # decide ran omega on (H2, N2); when that failed, the scan of H in G
            settled = (omega_criterion, H2, N2)
            seen[settled] = [None, verdict.criterion is Criterion.OMEGA_QUOTIENT]
            if verdict.criterion is Criterion.SQUARE_COSET:
                settled = (square_coset_condition, H, full)
                seen[settled] = [None, verdict.is_perfect_code]
    if "transversal" in criteria:
        T = find_inverse_closed_transversal(G, H)
        verdicts["transversal"] = T is not None
        if T is not None:
            # the graph check shows T an inverse-closed transversal holding 1
            verdicts["graph-witness"] = is_perfect_code_in_cayley_graph(G, set(T) - {0}, H)
    if "square-coset" in criteria:
        ask("square-coset", square_coset_condition, H, full)
    if "double-coset" in criteria:
        ask("double-coset", double_coset_condition, H)
    if "omega-quotient" in criteria and (len(H) & (len(H) - 1) == 0 or is_normal(G, H)):
        ask("omega-quotient", omega_criterion, H, normalizer(G, H))
    if "sylow-reduction" in criteria:
        ask("reduction-h2-in-p", square_coset_condition, H2, sylow_2_subgroup(G, full, N2))
        ask("reduction-omega-n2", omega_criterion, H2, N2)
        ask("reduction-omega-n", omega_criterion, H2, N)
        ask("reduction-h-in-g", square_coset_condition, H, full)
    if "graph" in criteria and G.order <= GRAPH_SEARCH_CAP:
        verdicts["graph"] = search_connection_set(G, H) is not None
    if "extraspecial" in tags:
        ask("extraspecial-classification", classify_extraspecial, H)
    if "sylow2-extraspecial" in tags:
        ask("sylow-extraspecial-classification", classify_sylow_extraspecial, H)
    if settled is not None and seen[settled][0] is not None:
        same_as["decide"] = seen[settled][0]
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
    selected = DEFAULT_CRITERIA if criteria is None else tuple(criteria)
    if not selected or len(set(selected)) < len(selected):
        raise ValueError(f"select each criterion at most once and at least one, got {selected}")
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
        subs = all_subgroups(G, None, G.order)
        if dedupe_conjugates:  # the lattice meets each class first at its least member
            subs = tuple(H for H in subs if minimal_conjugate(G, H).mask == H.mask)
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
    return CrossCheckReport(rows=tuple(rows), summary=summary, row_ms=tuple(timings))


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


def report_emit(report: CrossCheckReport, fmt: str = "json") -> str:
    """Render a report: the chunks of ``report_chunks`` joined."""
    return "".join(report_chunks(report, fmt))


_string = json.encoder.encode_basestring_ascii
_LEAVES = {str: _string, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__}
_SCALARS = {*_LEAVES, float, type(None)}
_MD_CELL = str.maketrans({"|": "\\|", "\r": " ", "\n": " "})


@cache
def _flat_encoder(inner: str):
    """``json.dumps``'s C encoder, no cycle check, items apart by a newline and ``inner``."""
    return c_make_encoder(None, None, _string, None, ": ", ",\n" + inner, False, False, True)


def _render(value, pad: str) -> str:
    """``json.dumps(value, indent=2)`` with ``pad`` after each newline: one C
    call per leaf and per list or dict of scalars, one join per other dict
    keyed by strings, and ``json.dumps`` for the rest (no JSON string holds a
    raw newline)."""
    kind = type(value)
    if kind in _LEAVES:
        return _LEAVES[kind](value)
    inner = pad + "  "
    if kind is list or kind is dict:
        if _SCALARS.issuperset(map(type, value.values() if kind is dict else value)):
            text = "".join(_flat_encoder(inner)(value, 0))
            return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}" if value else text
        if kind is dict and {*map(type, value)} == {str}:
            items = [f"{_string(k)}: {_render(v, inner)}" for k, v in value.items()]
            return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def report_chunks(report: CrossCheckReport, fmt: str = "json") -> Iterator[str]:
    """Render a report piece by piece, so a writer never holds the whole
    text: JSON as ``json.dumps(indent=2)`` plus a newline, in one chunk for
    the schema and summary, one per row (built by ``_render`` from C-level
    encoders) and one for the timings; markdown line by line, with ``|``
    escaped and line breaks made spaces in the group cell.  Field order is
    stable and timings sit in their own (non-stable) trailing section."""
    if fmt == "json":
        summary = _render(report.summary, "  ")
        yield f'{{\n  "schema": "cross-check-report/v2",\n  "summary": {summary},\n  "rows": ['
        for i, row in enumerate(report.rows):
            yield (",\n    " if i else "\n    ") + _render(row, "    ")
        row_ms = [round(ms, 3) for ms in report.row_ms]
        timings = _render({"row_ms": row_ms, "total_ms": round(sum(report.row_ms), 3)}, "  ")
        yield ("\n  ]" if report.rows else "]") + f',\n  "timings": {timings}\n}}\n'
    elif fmt in ("md", "markdown"):
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
        yield from (line + "\n" for line in lines)
        for row in report.rows:
            sub = ",".join(str(i) for i in row["subgroup"])
            checked = len(row["verdicts"]) - len(row["same_as"]) >= 2
            agree = str(row["agree"]).lower() if checked else "unchecked"
            code = str(row["perfect_code"]).lower()
            yield f"| {row['group'].translate(_MD_CELL)} | {{{sub}}} | {code} | {agree} |\n"
        yield "\n## Timings (non-stable)\n\n"
        yield f"- total: {sum(report.row_ms):.1f} ms over {len(report.row_ms)} rows\n"
    else:
        raise ValueError(f"unsupported report format {fmt!r}")
