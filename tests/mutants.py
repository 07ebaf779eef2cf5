"""Mutants that the tier-1 tests must kill.

Usage, from the repository root:

    python3 tests/mutants.py

Each mutant names a file of the repository, an exact text patch that must
match that file exactly once, and a pytest ``-k`` selection.  For each one
the script copies ``src``, ``tests`` and ``pyproject.toml`` into a temporary
directory, applies the patch to the copy and runs the selection there.  A
mutant is killed when a selected test fails.  The script exits 1 if a
patch does not match exactly once or a selection does not fail that way
(it passes, runs no test, or pytest stops on an error of its own).  pytest
does not collect this file (its name does not start with ``test_``), so
tier-1 does not run it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (file, text, replacement, pytest -k selection)
MUTANTS = (
    (
        "src/perfcode/extraspecial.py",
        "len(H) ** 2 == 2 * G.order",
        "len(H) ** 2 == 4 * G.order",
        "classify_d8_klein or classify_agrees_with_decide",
    ),
    (
        "src/perfcode/group.py",
        "    for g in values:\n        if not 0 <= g < G.order:",
        "    for g in ():\n        if not 0 <= g < G.order:",
        "out_of_range",
    ),
    (
        "src/perfcode/group.py",
        "square = G.packed[:: n + 1]",
        "square = G.packed[:: n]",
        "scans",
    ),
    (
        "src/perfcode/group.py",
        'bytes.maketrans(b"\\0" + members, b"\\1" + bytes(len(members)))',
        'bytes.maketrans(b"\\0" + members[:-1], b"\\1" + bytes(len(members) - 1))',
        "double_coset_vote or coset_criteria_equivalence",
    ),
    (
        "src/perfcode/codes.py",
        "if find_mirror(i, start, end) >= 0 and",
        "if find_mirror(i, start, end) >= -1 and",
        "scans",
    ),
    (
        "src/perfcode/codes.py",
        "_lookup(G.table[x])",
        "_lookup(G.packed[x::G.order])",
        "scans",
    ),
    (
        "src/perfcode/codes.py",
        "_lookup(G.table[s])",
        "_lookup(G.packed[s::n])",
        "graph_check or scans",
    ),
    (
        "src/perfcode/subgroups.py",
        "if H.mask & ~ambient.mask:",
        "if False:",
        "omega_criterion_precondition",
    ),
    (
        "src/perfcode/subgroups.py",
        "_lookup(G.packed[k::n])",
        "_lookup(G.packed[k * n : k * n + n])",
        "normalizer_matches_the_reference_walk",
    ),
    (
        "src/perfcode/codes.py",
        "if inside >> x & 1 and find_involution(0, i, end) < 0:",
        "if find_involution(0, i, end) < 0:",
        "coset_counterexamples_are_the_least_failing_x or scans",
    ),
    (
        "tests/oracles.py",
        "if 0 not in reps:",
        "if False:",
        "connection_set_from_transversal_requires_identity",
    ),
    (
        "src/perfcode/codes.py",
        "if witness is None or not is_perfect_code_in_cayley_graph(G, set(witness) - {0}, H):",
        "if witness is None:",
        "graph_check_fails",
    ),
    (
        "src/perfcode/subgroups.py",
        "for table in conjugations:",
        "for table in conjugations[:1]:",
        "least_conjugate or minimal_conjugate",
    ),
    (
        "src/perfcode/subgroups.py",
        "while not is_normal(G, D):",
        "while False:",
        "derived_mask",
    ),
    (
        "src/perfcode/subgroups.py",
        "derived & ~K.mask",
        "K.mask & ~derived",
        "least_conjugate or minimal_conjugate",
    ),
    (
        "src/perfcode/subgroups.py",
        "t[k][h] for k in gens)",
        "t[k][h] for k in gens[:1])",
        "structure_operators_match_brute_force",
    ),
    (
        "src/perfcode/group.py",
        "for s in used:",
        "for s in used[-1:]:",
        "generate_extends or closure",
    ),
    (
        "src/perfcode/subgroups.py",
        "generate(G, found, K)",
        "generate(G, found[:1], K)",
        "normalizer_matches_the_reference_walk",
    ),
    (
        "src/perfcode/subgroups.py",
        "(len(Q) & (len(Q) - 1) or Q.mask & ~H.mask)",
        "(Q.mask & ~H.mask)",
        "rejects_a_seed",
    ),
    (
        "src/perfcode/subgroups.py",
        "(len(Q) & (len(Q) - 1) or Q.mask & ~H.mask)",
        "(len(Q) & (len(Q) - 1))",
        "rejects_a_seed",
    ),
    (
        "src/perfcode/subgroups.py",
        "if gcd(i, k) == 1)",
        "if gcd(i, k) < 3)",
        "lattice",
    ),
    (
        "src/perfcode/subgroups.py",
        "_prime_factors(len(powers))",
        "_prime_factors(len(powers) - 1)",
        "lattice",
    ),
    (
        "src/perfcode/corpus.py",
        "minimal_conjugate(G, H).mask == H.mask",
        "minimal_conjugate(G, H).mask != H.mask",
        "nonsolvable_groups_cross_check",
    ),
    (
        "src/perfcode/corpus.py",
        "{text[-1]}\" if value else text",
        "{text[-1]}\" if True else text",
        "json_dumps_with_indent_2",
    ),
    (
        "src/perfcode/corpus.py",
        '"\\r": " ", "\\n": " "',
        '"\\r": " "',
        "keeps_each_group_name_in_its_cell",
    ),
    (
        "src/perfcode/corpus.py",
        "is_perfect_code_in_cayley_graph(G, set(T) - {0}, H)",
        "is_perfect_code_in_cayley_graph(G, set(T[:-1]) - {0}, H)",
        "random_groups_cross_check",
    ),
    (
        "src/perfcode/codes.py",
        "if chosen[j] is None and (j != i or inverse[cand] == cand):",
        "if chosen[j] is None:",
        "transversal_search_matches_brute_oracle",
    ),
    (
        "src/perfcode/codes.py",
        "chosen[i] = chosen[j] = None",
        "chosen[i] = None",
        "witness_is_the_first_transversal",
    ),
    (
        "src/perfcode/group.py",
        'if "order" in doc and doc["order"] != G.order:',
        "if False:",
        "load_checks_declared_order_of_table",
    ),
)


def run(path: str, text: str, replacement: str, selection: str) -> str | None:
    """Apply one mutant to a fresh copy and run its selection; the reason it
    survived, or None when it was killed."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        target = copy / path
        source = target.read_text(encoding="utf-8")
        if source.count(text) != 1:
            return f"the patch matches {source.count(text)} times"
        target.write_text(source.replace(text, replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests", "-k", selection],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if done.returncode == 1:  # some selected test failed
        return None
    if done.returncode == 0:
        return "the selection passes"
    return "the selection runs no test" if done.returncode == 5 else f"pytest exit {done.returncode}"


def main() -> int:
    survived = 0
    for path, text, replacement, selection in MUTANTS:
        reason = run(path, text, replacement, selection)
        status = "killed" if reason is None else f"SURVIVED: {reason}"
        print(f"{path}: {text!r} -> {replacement!r} [-k {selection!r}] {status}", flush=True)
        survived += reason is not None
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
