"""Command-line interface.

Exit codes: 0 on success (and full agreement for cross-check), 1 on input
errors or a failed internal consistency check (one ``error:`` line on
stderr), 2 when a cross-check sweep finds any disagreement.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache
from pathlib import Path

from .codes import decide, verdict_to_json
from .corpus import (
    Provenance,
    builtin_corpus,
    cross_check,
    make_entry,
    report_emit,
)
from .extraspecial import (
    Family,
    build_family,
    classify_extraspecial,
    classify_sylow_extraspecial,
    is_extraspecial,
)
from .group import FiniteGroup, closure, group_to_json, load_group
from .subgroups import all_subgroups


def _parse_subgroup(G: FiniteGroup, text: str):
    """Comma-separated element indices: ASCII digits after an optional minus."""
    parts = [part for part in text.split(",") if part.strip() != ""]
    for part in parts:
        if not re.fullmatch(r"-?[0-9]+", part):
            raise ValueError(f"subgroup index {part!r} is not an integer")
    return closure(G, [int(part) for part in parts])


def _cmd_validate(args: argparse.Namespace) -> int:
    G = load_group(args.file)
    print(f"ok: {G.name or Path(args.file).stem} order={G.order}")
    return 0


def _cmd_subgroups(args: argparse.Namespace) -> int:
    G = load_group(args.file)
    subs = all_subgroups(G, None, args.max_order)
    doc = {
        "group": G.name or "",
        "order": G.order,
        "count": len(subs),
        "subgroups": [H.indices() for H in subs],
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    G = load_group(args.file)
    H = _parse_subgroup(G, args.subgroup)
    verdict = decide(G, H, with_witness=args.witness)
    print(json.dumps(verdict_to_json(G, H, verdict), indent=2))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    G = load_group(args.file)
    H = _parse_subgroup(G, args.subgroup)
    if is_extraspecial(G).is_extraspecial:
        verdict = classify_extraspecial(G, H)
    else:
        verdict = classify_sylow_extraspecial(G, H)
    print(json.dumps(verdict_to_json(G, H, verdict), indent=2))
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    family = Family.GM1 if args.family == "gm1" else Family.GM2
    G = build_family(args.m, family)
    doc = json.dumps(group_to_json(G), indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(doc, encoding="utf-8")
        print(f"wrote {G.name} (order {G.order}) to {args.output}")
    else:
        print(doc, end="")
    return 0


def _cmd_cross_check(args: argparse.Namespace) -> int:
    corpus = builtin_corpus(include_m3=args.include_m3)
    if args.corpus:
        directory = Path(args.corpus)
        if not directory.is_dir():
            raise ValueError(f"corpus {args.corpus} is not a directory")
        for path in sorted(directory.glob("*.json")):
            corpus.append(make_entry(load_group(path), Provenance.FILE))
    criteria = None
    if args.criteria:
        criteria = tuple(part.strip() for part in args.criteria.split(",") if part.strip())
    report = cross_check(
        corpus,
        criteria=criteria,
        max_order=args.max_order,
        dedupe_conjugates=args.dedupe_conjugates,
    )
    print(report_emit(report, fmt=args.format), end="")
    return 2 if report.disagreements else 0


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfcode",
        description="Decide which subgroups of a finite group are perfect codes "
        "in some Cayley graph, and cross-validate every criterion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a group file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("subgroups", help="enumerate all subgroups of a group file")
    p.add_argument("file")
    p.add_argument("--max-order", type=int, default=128)
    p.set_defaults(func=_cmd_subgroups)

    p = sub.add_parser("check", help="decide whether a subgroup is a perfect code")
    p.add_argument("file")
    p.add_argument("--subgroup", required=True, help="comma-separated generator indices")
    p.add_argument("--witness", action="store_true", help="attach a transversal witness")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="closed-form classification verdict")
    p.add_argument("file")
    p.add_argument("--subgroup", required=True, help="comma-separated generator indices")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("construct", help="emit an extraspecial family group file")
    p.add_argument("--family", choices=("gm1", "gm2"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("cross-check", help="run every criterion over a corpus")
    p.add_argument("--max-order", type=int, default=64)
    p.add_argument("--corpus", default=None, help="directory of extra group files")
    p.add_argument("--criteria", default=None, help="comma-separated criterion names")
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.add_argument("--include-m3", action="store_true", help="add the order-128 family groups")
    p.add_argument(
        "--dedupe-conjugates",
        action="store_true",
        help="sweep one subgroup per conjugacy class",
    )
    p.set_defaults(func=_cmd_cross_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
