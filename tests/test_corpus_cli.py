from __future__ import annotations

import gc
import json
import weakref

import pytest

from perfcode import cli, construct, extraspecial
from perfcode.codes import decide, search_connection_set
from perfcode.corpus import (
    CrossCheckReport,
    builtin_corpus,
    cross_check,
    make_entry,
    report_emit,
)
from perfcode.group import closure, load_group
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
    assert "odd-order" in by_name["Z15"].tags
    assert "code-perfect" in by_name["A4"].tags


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
    calls = []
    original = extraspecial.subgroup_as_group

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(extraspecial, "subgroup_as_group", counted)
    G = construct.build_named("product(gm1(2),cyclic(3))")
    report = cross_check([make_entry(G)], criteria=("decide",), max_order=96)
    assert report.summary["disagreements"] == 0
    assert all("sylow-extraspecial-classification" in r["verdicts"] for r in report.rows)
    assert len(calls) <= 1


def test_report_emit_empty_corpus():
    report = cross_check([], max_order=8)
    doc = json.loads(report_emit(report, "json"))
    assert doc["schema"] == "cross-check-report/v1"
    assert doc["rows"] == []
    assert doc["summary"]["rows"] == 0


def test_report_stable_sections_byte_identical(d8, q8):
    entries = [make_entry(d8), make_entry(q8)]
    first = report_emit(cross_check(entries, max_order=8), "json", include_timings=False)
    second = report_emit(cross_check(entries, max_order=8), "json", include_timings=False)
    assert first == second
    with_timings = json.loads(report_emit(cross_check(entries, max_order=8), "json"))
    assert "timings" in with_timings
    stripped = dict(with_timings)
    stripped.pop("timings")
    assert json.dumps(stripped, indent=2) + "\n" == first


def test_report_markdown_sections(d8):
    text = report_emit(cross_check([make_entry(d8)], max_order=8), "md")
    assert "## Summary" in text
    assert "## Criterion agreement" in text
    assert "Sylow reduction" in text
    assert "| D8 |" in text


def test_report_rejects_unknown_format(d8):
    report = cross_check([make_entry(d8)], max_order=8)
    with pytest.raises(ValueError):
        report_emit(report, "yaml")


def test_exit_code_semantics_for_disagreements():
    fake = CrossCheckReport(
        criteria=("decide",),
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
    ],
)
def test_cli_validate_malformed_file(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_cli_subgroups(tmp_path, capsys, d8):
    path = _write_group(tmp_path, d8)
    assert cli.main(["subgroups", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 10
    assert [0] in doc["subgroups"]


def test_cli_check_with_witness(tmp_path, capsys, d8):
    path = _write_group(tmp_path, d8)
    assert cli.main(["check", str(path), "--subgroup", "4", "--witness"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_perfect_code"] is True
    assert "witness" in doc


def test_cli_check_center_not_code(tmp_path, capsys, d8):
    path = _write_group(tmp_path, d8)
    assert cli.main(["check", str(path), "--subgroup", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_perfect_code"] is False
    assert doc["counterexample"] == 1


def test_cli_check_rejects_bad_indices(tmp_path, capsys, d8):
    path = _write_group(tmp_path, d8)
    assert cli.main(["check", str(path), "--subgroup", "42"]) == 1


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


def test_cli_cross_check_exit_code_on_disagreement(monkeypatch, capsys):
    fake = CrossCheckReport(
        criteria=("decide",),
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


def test_cli_decide_matches_library(tmp_path, capsys, q8):
    path = _write_group(tmp_path, q8)
    assert cli.main(["check", str(path), "--subgroup", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    H = closure(q8, [1])
    assert doc["is_perfect_code"] == decide(q8, H).is_perfect_code
