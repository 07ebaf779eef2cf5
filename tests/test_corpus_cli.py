from __future__ import annotations

import gc
import json
import random
import re
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from oracles import conjugate, permutation_groups, relabel_rows
from perfcode import cli, codes, construct, extraspecial
from perfcode import corpus as corpus_module
from perfcode.codes import decide, search_connection_set
from perfcode.corpus import (
    CrossCheckReport,
    builtin_corpus,
    cross_check,
    make_entry,
    report_emit,
)
from perfcode.group import FiniteGroup, closure, load_group
from perfcode.subgroups import all_subgroups


@pytest.fixture(scope="module")
def corpus():
    return builtin_corpus()


def test_corpus_contains_order32_extraspecial_per_family(corpus):
    tagged = [
        e.group.name
        for e in corpus
        if e.group.order == 32 and "extraspecial" in e.tags
    ]
    assert tagged == ["G(2,1)", "G(2,2)"]


def test_corpus_tags_s4_and_sl23(corpus):
    by_name = {e.group.name: e for e in corpus}
    assert "sylow2-extraspecial" in by_name["S4"].tags
    assert "sylow2-extraspecial" in by_name["SL(2,3)"].tags
    assert "sylow2-extraspecial" in by_name["D8xZ3"].tags
    assert by_name["Z15"].tags == frozenset()
    assert by_name["A4"].tags == frozenset()


def test_corpus_include_m3_flag():
    names = {e.group.name for e in builtin_corpus(include_m3=True)}
    assert {"G(3,1)", "G(3,2)"} <= names


def test_cross_check_d8_rows_and_code_count(d8):
    report = cross_check([make_entry(d8)], max_order=8)
    assert report.summary["rows"] == 10
    assert report.summary["disagreements"] == 0
    # derive the expected code count from the exhaustive graph oracle
    oracle_count = sum(
        1
        for H in all_subgroups(d8)
        if search_connection_set(d8, H) is not None
    )
    assert report.summary["perfect_codes"] == oracle_count == 9


def test_cross_check_group_without_order4_elements():
    G = construct.elementary_abelian(3)
    report = cross_check([make_entry(G)], max_order=8)
    assert report.summary["perfect_codes"] == report.summary["rows"]
    assert report.summary["disagreements"] == 0


def test_cross_check_s4_rows(s4, s4_elem):
    report = cross_check([make_entry(s4)], max_order=24)
    rows = {tuple(r["subgroup"]): r for r in report.rows}
    a4 = tuple(
        sorted(closure(s4, [s4_elem[(1, 2, 0, 3)], s4_elem[(0, 2, 3, 1)]]).elements)
    )
    double = tuple(sorted({0, s4_elem[(1, 0, 3, 2)]}))
    assert rows[a4]["verdicts"]["decide"] is True
    assert rows[double]["verdicts"]["decide"] is False
    assert report.summary["disagreements"] == 0


def test_cross_check_respects_max_order(corpus):
    report = cross_check(corpus, max_order=8)
    assert all(r["order"] <= 8 for r in report.rows)


def test_cross_check_dedupe_conjugates(s4):
    full = cross_check([make_entry(s4)], max_order=24)
    deduped = cross_check([make_entry(s4)], max_order=24, dedupe_conjugates=True)
    assert deduped.summary["rows"] == 11  # conjugacy classes of subgroups of S4
    assert full.summary["rows"] == 30
    assert deduped.summary["disagreements"] == 0


def test_cross_check_rejects_unknown_criterion(d8):
    with pytest.raises(ValueError, match="unknown criterion"):
        cross_check([make_entry(d8)], criteria=("frobnicate",))


@pytest.mark.parametrize("criteria", [(), ("decide", "decide")], ids=repr)
def test_cross_check_rejects_empty_or_repeated_criteria(capsys, d8, criteria):
    with pytest.raises(ValueError, match="select each criterion at most once and at least one"):
        cross_check([make_entry(d8)], criteria=criteria, max_order=8)
    assert cli.main(["cross-check", "--max-order", "8", "--criteria", ",".join(criteria) or ","]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_cross_check_graph_criterion_on_tiny_groups(d8, q8):
    report = cross_check(
        [make_entry(d8), make_entry(q8)],
        criteria=("decide", "graph"),
        max_order=8,
    )
    assert report.summary["disagreements"] == 0
    assert all("graph" in r["verdicts"] for r in report.rows)


def test_cross_check_rows_with_one_verdict_are_unchecked(corpus):
    full = cross_check(corpus, max_order=24)
    omega = cross_check(corpus, criteria=("omega-quotient",), max_order=24)
    assert omega.summary["rows"] == full.summary["rows"]
    assert omega.summary["perfect_codes"] == full.summary["perfect_codes"]
    assert omega.summary["disagreements"] == 0
    assert full.summary["unchecked"] == 0
    # only the classification verdicts of tagged groups join omega-quotient
    thin = [r for r in omega.rows if len(r["verdicts"]) < 2]
    assert omega.summary["unchecked"] == len(thin) > 0
    assert not any(r["agree"] for r in thin)
    # the order-3 subgroups of A4 get no verdict at all
    a4_rows = [r for r in thin if r["group"] == "A4" and len(r["subgroup"]) == 3]
    assert len(a4_rows) == 4
    assert all(r["verdicts"] == {} for r in a4_rows)
    text = report_emit(omega, "md")
    assert f"- unchecked: {len(thin)}" in text
    # odd order: the consensus counted in perfect_codes is "code"
    for row in a4_rows:
        assert row["perfect_code"] is True
        sub = ",".join(str(i) for i in row["subgroup"])
        assert f"| A4 | {{{sub}}} | true | unchecked |" in text
    assert omega.summary["perfect_codes"] == sum(r["perfect_code"] for r in omega.rows)


def test_cross_check_keeps_no_group_alive():
    G = construct.build_named("product(s4,cyclic(2))")
    report = cross_check([make_entry(G)], max_order=48)
    assert report.summary["rows"] > 0
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None


def test_sylow_subgroup_is_classified_once_per_group(monkeypatch):
    """Tagging and sweeping build no second group: the Sylow 2-subgroup is
    classified in its own group's table."""
    groups = [
        construct.build_named(spec)
        for spec in ("s4", "sl23", "product(dihedral(8),cyclic(3))", "product(gm1(2),cyclic(3))")
    ]
    calls = []
    from_table = FiniteGroup.__dict__["from_table"].__func__

    def counted(cls, *args, **kwargs):
        calls.append(kwargs.get("name"))
        return from_table(cls, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "from_table", classmethod(counted))
    report = cross_check([make_entry(G) for G in groups], criteria=("decide",), max_order=96)
    assert report.summary["disagreements"] == 0
    assert all("sylow-extraspecial-classification" in r["verdicts"] for r in report.rows)
    assert calls == []


def test_report_emit_empty_corpus():
    report = cross_check([], max_order=8)
    doc = json.loads(report_emit(report, "json"))
    assert doc["schema"] == "cross-check-report/v2"
    assert doc["rows"] == []
    assert doc["summary"]["rows"] == 0


def test_report_stable_sections_byte_identical(d8, q8):
    entries = [make_entry(d8), make_entry(q8)]
    # everything before the trailing non-stable "timings" key, byte for byte
    first = report_emit(cross_check(entries, max_order=8), "json")
    second = report_emit(cross_check(entries, max_order=8), "json")
    stable = first[: first.index(',\n  "timings": ')]
    assert stable == second[: second.index(',\n  "timings": ')]
    doc = json.loads(first)
    assert list(doc) == ["schema", "summary", "rows", "timings"]
    doc.pop("timings")
    assert json.dumps(doc, indent=2)[:-2] == stable


def test_report_markdown_sections(d8, s4):
    text = report_emit(cross_check([make_entry(d8)], max_order=8), "md")
    assert "## Summary" in text
    assert "## Criterion agreement" in text
    assert "| D8 |" in text
    # D8 is a 2-group: every reduction statement is another key's, so the
    # block counts no row, while each coset criterion is evaluated
    assert "- Sylow reduction (statements no other key evaluated): 0/0 rows agree" in text
    assert "- Coset criteria (transversal / square / double / witness): 10/10 rows agree" in text
    # one item per line: the header, a table row per subgroup, the timings last
    lines = text.splitlines()
    assert lines[:5] == ["# Cross-check report", "", "## Summary", "", "- groups: 1"]
    assert sum(line.startswith("| D8 | {") for line in lines) == 10
    assert lines[-3:-1] == ["## Timings (non-stable)", ""] and text.endswith(" rows\n")
    text = report_emit(cross_check([make_entry(s4)], max_order=24), "md")
    # in S4 the Sylow 2-subgroup P = D8 is not G, so the scan of H2 inside P
    # is a statement of its own on every row
    assert "- Sylow reduction (statements no other key evaluated): 30/30 rows agree" in text


def _row(report, members):
    return next(r for r in report.rows if r["subgroup"] == sorted(members))


def test_cross_check_two_group_reduction_keys_are_aliases(d8):
    report = cross_check([make_entry(d8)], max_order=8)
    for H in all_subgroups(d8):
        row = _row(report, H.members)
        same_as = row["same_as"]
        assert same_as["reduction-h-in-g"] == "square-coset"
        assert same_as["reduction-h2-in-p"] == "square-coset"
        assert same_as["reduction-omega-n2"] == "omega-quotient"
        assert same_as["reduction-omega-n"] == "omega-quotient"
        if len(H) > 1:
            code = row["verdicts"]["decide"]
            assert same_as["decide"] == ("omega-quotient" if code else "square-coset")
        # aliases keep their verdicts, and at least two votes remain
        assert set(same_as) < set(row["verdicts"])
        assert len(row["verdicts"]) - len(same_as) >= 4
    assert report.summary["unchecked"] == 0


def test_cross_check_reduction_keys_evaluated_where_h2_differs(s4, s4_elem):
    # A4 in S4: H2 = V4, N = S4, N2 = P = D8, so the reduction's statements
    # are its own; only the square-coset scan of H in G is shared
    A = closure(s4, [s4_elem[(1, 2, 0, 3)], s4_elem[(0, 2, 3, 1)]])
    row = _row(cross_check([make_entry(s4)], max_order=24), A.members)
    assert row["same_as"] == {
        "reduction-h-in-g": "square-coset",
        "decide": "reduction-omega-n2",
    }
    assert row["verdicts"]["reduction-omega-n"] is True
    assert row["agree"] is True


def test_cross_check_evaluates_each_statement_once(monkeypatch, d8):
    calls = {"omega": 0, "square": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    omega = counted("omega", codes.omega_coset_sets)
    square = counted("square", codes.square_coset_condition)
    monkeypatch.setattr(codes, "omega_coset_sets", omega)
    for module in (codes, corpus_module):
        monkeypatch.setattr(module, "square_coset_condition", square)
    report = cross_check([make_entry(d8)], max_order=8)
    # one involution-coset comparison and one square-coset scan per row,
    # whichever keys read them and whether or not decide ran them
    assert calls == {"omega": 10, "square": 10} and report.summary["rows"] == 10


@pytest.mark.parametrize("criteria", [None, ("decide", "square-coset")])
def test_cross_check_computes_the_sylow_chain_once_per_row(monkeypatch, criteria):
    """decide's statement and the reduction keys share one chain: a row
    computes it once when the reduction keys are selected, and otherwise
    once for each even-order H that decide reads it for."""
    calls = []
    chain = corpus_module.sylow_reduction

    def counted(G, H):
        calls.append((G.name, H.mask))
        return chain(G, H)

    monkeypatch.setattr(corpus_module, "sylow_reduction", counted)
    report = cross_check(builtin_corpus(), criteria=criteria, max_order=32)
    rows = [(r["group"], sum(1 << g for g in r["subgroup"])) for r in report.rows]
    if criteria is None:
        expected = rows
    else:
        expected = [(name, mask) for name, mask in rows if mask.bit_count() % 2 == 0]
    assert report.summary["rows"] == 509 and len(expected) >= 441
    assert calls == expected


def test_cross_check_catches_omega_fault_that_decide_hides(monkeypatch, d8):
    # an involution-coset comparison that always fails: decide falls back to
    # the square-coset scan and still finds the codes, so only the omega
    # keys, read from the comparison decide ran, can expose the fault
    def failing(G, N, H):
        return frozenset({-1}), frozenset()

    monkeypatch.setattr(codes, "omega_coset_sets", failing)
    report = cross_check([make_entry(d8)], max_order=8)
    row = _row(report, range(8))
    assert row["verdicts"]["decide"] is True
    assert row["verdicts"]["omega-quotient"] is False
    assert row["agree"] is False
    assert report.summary["disagreements"] >= 1


def test_double_coset_vote_does_not_share_the_square_coset_root_search(monkeypatch):
    # a lookup that misses H's last member hides roots from the square-coset
    # scan alone: the double-coset scan tests HxH = Hx^-1H through inverses
    # and coset positions, so the two votes split on some row
    zeros = codes._zeros
    monkeypatch.setattr(codes, "_zeros", lambda members: zeros(members[:-1]))
    report = cross_check(builtin_corpus(), max_order=32)
    split = [r for r in report.rows if r["verdicts"]["square-coset"] != r["verdicts"]["double-coset"]]
    assert split and report.summary["disagreements"] >= len(split)


# groups of order at most 64: generated by random permutations of degree 4
# or 5, or the direct product of two such groups of degree 3-4 and 2-3
_RANDOM_GROUPS = st.one_of(
    permutation_groups(min_degree=4),
    st.builds(
        construct.direct_product,
        permutation_groups(min_degree=3, max_degree=4),
        permutation_groups(min_degree=2, max_degree=3),
    ),
).filter(lambda G: G.order <= 64)


@given(_RANDOM_GROUPS)
@settings(max_examples=8, deadline=None, derandomize=True)
def test_random_groups_cross_check(G):
    report = cross_check([make_entry(G)], max_order=64)
    votes = min(len(r["verdicts"]) - len(r["same_as"]) for r in report.rows)
    s = report.summary
    assert (s["disagreements"], s["unchecked"], votes >= 2) == (0, 0, True), (G.order, s, votes)


@given(_RANDOM_GROUPS, st.data())
@settings(max_examples=8, deadline=None, derandomize=True)
def test_random_groups_decide_alike_when_relabelled_or_conjugated(G, data):
    n = G.order
    perm = [0] + data.draw(st.permutations(range(1, n)))
    R = FiniteGroup.from_table(relabel_rows(G, perm))
    x = data.draw(st.integers(min_value=0, max_value=n - 1))
    for H in all_subgroups(G):
        code = decide(G, H).is_perfect_code
        assert decide(R, closure(R, [perm[h] for h in H.generators])).is_perfect_code == code
        assert decide(G, closure(G, [conjugate(G, h, x) for h in H.generators])).is_perfect_code == code


def test_report_rejects_unknown_format(d8):
    report = cross_check([make_entry(d8)], max_order=8)
    with pytest.raises(ValueError):
        report_emit(report, "yaml")


def test_exit_code_semantics_for_disagreements():
    fake = CrossCheckReport(
        rows=({"group": "X", "order": 2, "subgroup": [0], "verdicts": {}, "agree": False},),
        summary={"groups": 1, "rows": 1, "perfect_codes": 0, "disagreements": 1, "criteria": ["decide"], "max_order": 8},
        row_ms=(0.0,),
    )
    assert fake.disagreements == 1


# --- CLI integration -------------------------------------------------------


def _write_group(tmp_path, G, name="group.json"):
    from perfcode.group import group_to_json

    path = tmp_path / name
    path.write_text(json.dumps(group_to_json(G)), encoding="utf-8")
    return path


def test_cli_validate_ok(tmp_path, capsys, d8):
    path = _write_group(tmp_path, d8)
    assert cli.main(["validate", str(path)]) == 0
    assert "order=8" in capsys.readouterr().out


def test_cli_validate_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"order": 2, "table": [[0, 1], [1, 1]]}', encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"table": 5}',
        '{"table": [1, 2]}',
        '{"order": null, "table": [[0]]}',
        '{"order": "1", "table": [[0]]}',
        '{"generators": 3}',
        '{"generators": [5]}',
        '{"table": [[0.5]]}',
        '{"table": [[false]]}',
        '{"degree": 2.0, "generators": [[1, 0]]}',
        '{"generators": [[1, 0.0]]}',
        '{"degree": -3, "generators": []}',
        '{"order": 5, "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}',
    ],
)
def test_cli_validate_malformed_file(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_cli_validate_empty_generator_list_at_huge_degree(tmp_path, capsys):
    path = tmp_path / "trivial.json"
    path.write_text('{"degree": 1000000000000, "generators": []}', encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 0
    assert "order=1" in capsys.readouterr().out
    path.write_text('{"order": 2, "degree": 1000000000000, "generators": []}', encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: declared order 2 does not match group order 1\n"


def test_cli_subgroups(tmp_path, capsys, d8):
    path = _write_group(tmp_path, d8)
    assert cli.main(["subgroups", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 10
    assert [0] in doc["subgroups"]


def test_cli_check_with_witness(tmp_path, capsys, d8):
    # the witness joins the verdict; the criterion that decided it stays
    path = _write_group(tmp_path, d8)
    for gens, criterion in (("4", "omega-quotient"), ("", "odd-order")):
        assert cli.main(["check", str(path), "--subgroup", gens]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert cli.main(["check", str(path), "--subgroup", gens, "--witness"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["is_perfect_code"] is True
        assert doc.pop("witness")
        assert doc == plain and doc["criterion"] == criterion


def test_cli_check_center_not_code(tmp_path, capsys, d8):
    path = _write_group(tmp_path, d8)
    assert cli.main(["check", str(path), "--subgroup", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_perfect_code"] is False
    assert doc["counterexample"] == 1


def test_cli_check_witness_failure_is_one_error_line(monkeypatch, tmp_path, capsys, d8):
    monkeypatch.setattr(codes, "find_inverse_closed_transversal", lambda G, H: None)
    path = _write_group(tmp_path, d8)
    assert cli.main(["check", str(path), "--subgroup", "4", "--witness"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_cli_classify_family_mismatch_is_one_error_line(monkeypatch, tmp_path, capsys):
    # every element but the identity counted as squaring to g^2 != 1
    monkeypatch.setattr(extraspecial, "_lookups", lambda G: (b"", b"", bytes(range(1, G.order))))
    path = _write_group(tmp_path, construct.dihedral(8))
    assert cli.main(["classify", str(path), "--subgroup", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "matches neither family" in err
    assert err.count("\n") == 1


def test_cli_check_rejects_bad_indices(tmp_path, capsys, d8):
    path = _write_group(tmp_path, d8)
    assert cli.main(["check", str(path), "--subgroup", "42"]) == 1


def test_cli_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("text", ["1_0", "\u0663", " 3"])
def test_cli_check_rejects_non_ascii_digit_indices(tmp_path, capsys, d8, text):
    path = _write_group(tmp_path, d8)
    assert cli.main(["check", str(path), "--subgroup", text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: subgroup index {text!r} is not an integer\n"
    # a sign is part of an integer, so -1 reaches the range check
    assert cli.main(["check", str(path), "--subgroup=-1"]) == 1
    assert "out of range" in capsys.readouterr().err


def test_cli_construct_roundtrip(tmp_path, capsys):
    out = tmp_path / "g21.json"
    assert cli.main(["construct", "--family", "gm1", "--m", "2", "-o", str(out)]) == 0
    G = load_group(out)
    assert G.order == 32
    assert G.name == "G(2,1)"


def test_cli_classify_extraspecial(tmp_path, capsys):
    out = tmp_path / "g22.json"
    assert cli.main(["construct", "--family", "gm2", "--m", "2", "-o", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["classify", str(out), "--subgroup", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["criterion"] == "extraspecial-classification"


def test_cli_classify_sylow_extraspecial(tmp_path, capsys, s4):
    path = _write_group(tmp_path, s4)
    assert cli.main(["classify", str(path), "--subgroup", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["criterion"] == "sylow-extraspecial-classification"


def test_cli_classify_rejects_unsuitable_group(tmp_path, capsys):
    path = _write_group(tmp_path, construct.cyclic(16))
    assert cli.main(["classify", str(path), "--subgroup", "1"]) == 1


def test_cli_cross_check_json(capsys):
    assert cli.main(["cross-check", "--max-order", "8", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["disagreements"] == 0


@pytest.mark.parametrize("fmt", ["json", "md"])
def test_cli_cross_check_streams_the_report_emit_bytes(monkeypatch, capsys, s4, fmt):
    """The CLI writes the chunks of ``report_chunks``; in JSON each row is
    one chunk of its own, between the head and the timings."""
    report = cross_check([make_entry(s4), make_entry(s4)], max_order=24)
    monkeypatch.setattr(cli, "cross_check", lambda *a, **k: report)
    assert cli.main(["cross-check", "--max-order", "24", "--format", fmt]) == 0
    assert capsys.readouterr().out == report_emit(report, fmt)
    if fmt == "json":
        chunks = list(corpus_module.report_chunks(report, fmt))
        assert len(chunks) == len(report.rows) + 2
        assert [json.loads(chunk.lstrip(",")) for chunk in chunks[1:-1]] == list(report.rows)


_TEXT = st.text(st.characters() | st.sampled_from('"\\/\n\r\t\x00\x1f\x7f|\u00e9\u2028\U0001f600'), max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)
_ROWS = st.fixed_dictionaries(
    {
        "group": _TEXT,
        "order": st.integers(0, 256),
        "subgroup": st.lists(st.integers(0, 255), max_size=8),
        "verdicts": st.dictionaries(_TEXT, st.booleans(), max_size=4),
        "same_as": st.dictionaries(_TEXT, _TEXT, max_size=3),
        "perfect_code": st.booleans(),
        "agree": st.booleans(),
    },
    optional={"extra": st.none() | st.lists(st.lists(st.integers(), max_size=2), min_size=1, max_size=2)},
)


@given(
    rows=st.lists(
        _ROWS
        | st.dictionaries(_TEXT, _JSON, max_size=3)
        | st.dictionaries(st.integers() | st.floats() | st.booleans() | st.none(), _JSON, max_size=2),
        max_size=4,
    ),
    summary=st.dictionaries(_TEXT, _JSON, max_size=4),
    row_ms=st.lists(st.floats(), max_size=4),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_report_emit_is_json_dumps_with_indent_2(rows, summary, row_ms):
    """Byte for byte ``json.dumps(indent=2)`` of the report document on any
    report: strings with quotes, backslashes, control and non-ASCII
    characters, empty dicts and reports, None, floats, nested containers,
    keys that are not strings and rows of other shapes; and one JSON chunk
    per row."""
    report = CrossCheckReport(rows=tuple(rows), summary=summary, row_ms=tuple(row_ms))
    doc = {
        "schema": "cross-check-report/v2",
        "summary": summary,
        "rows": rows,
        "timings": {"row_ms": [round(ms, 3) for ms in row_ms], "total_ms": round(sum(row_ms), 3)},
    }
    assert report_emit(report, "json") == json.dumps(doc, indent=2) + "\n"
    assert len(list(corpus_module.report_chunks(report, "json"))) == len(rows) + 2


@pytest.mark.parametrize(
    "name, cell", [("Z2|odd\nname", "Z2\\|odd name"), ("Z2|odd\r\nname", "Z2\\|odd  name")]
)
def test_cli_markdown_keeps_each_group_name_in_its_cell(tmp_path, capsys, name, cell):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"name": name, "order": 2, "table": [[0, 1], [1, 0]]}), encoding="utf-8")
    argv = ["cross-check", "--max-order", "2", "--corpus", str(tmp_path), "--format", "md"]
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    table = text[text.index("| group |") : text.index("\n## Timings")].splitlines()
    assert f"| {cell} | {{0,1}} | true | true |" in table
    # the header, its rule and one line of four cells for each row of Z1, Z2 and the file's group
    assert len(table) == 2 + 1 + 2 + 2
    assert all(len(re.split(r"(?<!\\)\|", line)) == 6 for line in table)


def test_cli_cross_check_exit_code_on_disagreement(monkeypatch, capsys):
    fake = CrossCheckReport(
        rows=(
            {
                "group": "X",
                "order": 2,
                "subgroup": [0],
                "verdicts": {"decide": True, "square-coset": False},
                "agree": False,
            },
        ),
        summary={
            "groups": 1,
            "rows": 1,
            "perfect_codes": 1,
            "disagreements": 1,
            "criteria": ["decide"],
            "max_order": 8,
        },
        row_ms=(0.0,),
    )
    monkeypatch.setattr(cli, "cross_check", lambda *a, **k: fake)
    assert cli.main(["cross-check", "--max-order", "8"]) == 2


def test_cli_cross_check_extra_corpus_dir(tmp_path, capsys):
    _write_group(tmp_path, construct.cyclic(6), "z6.json")
    code = cli.main(
        ["cross-check", "--max-order", "6", "--corpus", str(tmp_path)]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    # Z6 appears twice: builtin and file-provenance copies
    names = [r["group"] for r in doc["rows"]]
    assert names.count("Z6") == 2 * 4  # 4 subgroups each


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_cli_cross_check_corpus_must_be_a_directory(tmp_path, capsys, kind):
    path = tmp_path / "does-not-exist"
    if kind == "file":
        path = _write_group(tmp_path, construct.cyclic(6), "z6.json")
    assert cli.main(["cross-check", "--max-order", "6", "--corpus", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_cli_decide_matches_library(tmp_path, capsys, q8):
    path = _write_group(tmp_path, q8)
    assert cli.main(["check", str(path), "--subgroup", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    H = closure(q8, [1])
    assert doc["is_perfect_code"] == decide(q8, H).is_perfect_code


def test_cli_check_maps_onto_a_relabelled_order_256_file(tmp_path, capsys):
    """With the identity off index 0 the file loads with the identity first
    and the other labels in file order; each verdict is the canonical
    file's, with its indices mapped."""
    G = construct.build_named("product(gm1(3),cyclic(2))")
    perm = random.Random(256).sample(range(1, G.order), G.order - 1)
    perm.insert(1, 0)  # element a is written perm[a]; the identity as perm[0]
    canonical = _write_group(tmp_path, G, "canonical.json")
    relabelled = tmp_path / "relabelled.json"
    rows = relabel_rows(G, perm)
    relabelled.write_text(json.dumps({"order": G.order, "table": rows}), encoding="utf-8")
    loaded = [perm[0]] + [p for p in range(G.order) if p != perm[0]]
    phi = [loaded.index(perm[a]) for a in range(G.order)]
    verdicts = []
    for gens in ([1], [2], [5, 9], [7, 100]):
        argv = ["--subgroup", ",".join(map(str, gens)), "--witness"]
        assert cli.main(["check", str(canonical), *argv]) == 0
        want = json.loads(capsys.readouterr().out)
        argv[1] = ",".join(str(phi[g]) for g in gens)
        assert cli.main(["check", str(relabelled), *argv]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["subgroup"] == sorted(phi[h] for h in want["subgroup"])
        for key in ("is_perfect_code", "criterion"):
            assert got[key] == want[key]
        assert ("witness" in got, "counterexample" in got) == (
            "witness" in want, "counterexample" in want
        )
        verdicts.append(got["is_perfect_code"])
    assert verdicts == [True, False, True, False]
    rows[5][rows[5].index(1)] = True
    relabelled.write_text(json.dumps({"order": G.order, "table": rows}), encoding="utf-8")
    assert cli.main(["check", str(relabelled), "--subgroup", "1", "--witness"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: table row 5 entry True is not an integer\n"
