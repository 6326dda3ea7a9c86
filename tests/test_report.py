"""The CSV writer's bytes against its per-cell reference, and summary.json's writer and
the strict JSON it writes: the types it refuses, the non-finite floats it refuses, the five
record keys that quote them instead, and the memory it holds while it writes a file."""

import csv
import io
import json
import shutil
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semdrift import DegenerateVarianceWarning
from semdrift.cli import main
from semdrift.report import _Table, write_summary

from helpers import DATA, read_summary

NAN, INF = float("nan"), float("inf")


def reference_cell(value) -> str:
    """A CSV cell as each value was rendered before str and int passed to `csv` as they are."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, list):
        return "|".join(value)
    return str(value)


def reference_csv(table: _Table, mode_line: str, checksum: str) -> str:
    out = io.StringIO()
    out.write(f"# table: {table.name}\n# mode: {mode_line}\n# inputs: sha256={checksum}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.headers)
    keys = [table.cells.get(h, h) for h in table.headers]
    writer.writerows([reference_cell(r[key]) for key in keys] for r in table.records)
    out.write(table.footer)
    return out.getvalue()


_TRICKY_TEXT = st.text(st.sampled_from(',"\n\r| aé\x00'), max_size=6) | st.text(max_size=6)
_CELL = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, INF, -INF, NAN, 5e-324, -2.2250738585072014e-308,
                                  1e300, -1e-300, 1e-300]),
    st.integers(), st.booleans(), st.none(), _TRICKY_TEXT, st.lists(_TRICKY_TEXT, max_size=3))


@given(st.lists(st.fixed_dictionaries({"a": _CELL, "b": _CELL, "c": _CELL}), max_size=6),
       st.sampled_from(["", "# footer\n"]))
def test_csv_bytes_are_the_per_cell_references(records, footer):
    table = _Table("t", ["a", "b"], {"b": "c"}, footer=footer, records=records)  # "b" shows "c"
    out = io.StringIO()
    table.write_csv(out, "deviation=difference", "0" * 64)
    assert out.getvalue() == reference_csv(table, "deviation=difference", "0" * 64)


def summary_json(value) -> str:
    out = io.StringIO()
    write_summary(out, value)
    return out.getvalue()


@pytest.mark.parametrize("value", [
    {"a": 1, 2: "b"}, {"a": {1, 2}}, {"a": frozenset()}, {"a": b"x"}, [bytearray(b"x")],
    {"a": [set()]}, {"a": 1j}, [{"a": ({"b": b""},)}],
], ids=repr)
def test_refuses_a_non_str_key_and_a_non_json_value(value):
    with pytest.raises(TypeError):
        summary_json(value)


def test_summary_records_are_the_tables_own_unless_a_key_is_csv_only():
    records = [{"a": 1, "groups": 2}]
    assert _Table("t", ["a"], records=records).to_summary() is records
    assert _Table("t", ["a"], csv_only=("groups",), records=records).to_summary() == [{"a": 1}]
    assert records == [{"a": 1, "groups": 2}]


@pytest.mark.parametrize("value", [NAN, INF, -INF])
@pytest.mark.parametrize("wrap", [
    lambda v: v, lambda v: {"a": v}, lambda v: [1, {"a": [{"b": (0.5, v)}]}],
], ids=["top", "in a dict", "deep"])
def test_refuses_a_non_finite_float_at_any_depth(value, wrap):
    with pytest.raises(ValueError, match="not JSON compliant"):
        summary_json(wrap(value))


def analyze_copy(tmp_path, edit, *flags):
    """The bundle of `analyze` on a copy of the fixture data that `edit` has changed."""
    data = shutil.copytree(DATA, tmp_path / "data")
    edit(data)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(data / "config.json"), "--output-dir", str(out),
                 *flags]) == 0
    return out


def assert_quoted_where_infinite(out, table, section, key):
    """Some record's `key` reads inf in the table's CSV, and each such record, and no
    other, holds "inf" in summary.json, which `read_summary` parses as strict JSON."""
    lines = (out / f"{table}.csv").read_text(encoding="utf-8").splitlines()[3:]
    cells = [(row[key], record[key]) for row, record in
             zip(csv.DictReader(lines), read_summary(out)[section], strict=True)]
    assert ("inf", "inf") in cells
    assert all((text == "inf") == (value == "inf") for text, value in cells)


def test_an_infinite_f_q_and_levene_statistic_are_quoted(tmp_path):
    # the two English human translations of each term hold the same text, so the term
    # groups of the human slice have no within-group variance: F and each q are inf.
    # Levene's W is inf where groups of two values differ in spread, as in the fixture
    def same_text_per_term(data):
        for term in ("t1", "t2"):
            shutil.copyfile(data / "texts" / f"en_human_g20_{term}.txt",
                            data / "texts" / f"en_human_g8_{term}.txt")

    with pytest.warns(DegenerateVarianceWarning):
        out = analyze_copy(tmp_path, same_text_per_term)
    assert_quoted_where_infinite(out, "anova", "anova", "f_stat")
    assert_quoted_where_infinite(out, "anova", "anova", "levene_stat")
    assert_quoted_where_infinite(out, "tukey", "tukey", "q_stat")


def test_an_infinite_mean_and_median_deviation_are_quoted(tmp_path):
    # every English epistemic lemma at 1e-310 per million, 1e-314 percent: each ratio to
    # it overflows to inf, and so do the class's mean and median
    def subnormal_epistemic(data):
        epistemic = {line.split("\t")[0] for name in ("lex_en_core", "lex_en_extra")
                     for line in (data / "lexicons" / f"{name}.tsv").read_text(
                         encoding="utf-8").splitlines() if line.endswith("\tepistemic")}
        freq = data / "freq_en.tsv"
        lines = [line.split("\t")[0] + "\t1e-310" if line.split("\t")[0] in epistemic
                 else line for line in freq.read_text(encoding="utf-8").splitlines()]
        freq.write_text("\n".join(lines) + "\n", encoding="utf-8")

    out = analyze_copy(tmp_path, subnormal_epistemic, "--deviation-mode", "ratio")
    assert_quoted_where_infinite(out, "deviation", "deviations", "mean_deviation")
    assert_quoted_where_infinite(out, "deviation", "deviations", "median_deviation")


def test_writing_the_summary_holds_less_than_a_quarter_of_its_file(tmp_path):
    golden = (DATA / "expected_bundle" / "summary.json").read_text(encoding="utf-8")
    summary = json.loads(golden)
    assert summary_json(summary) == golden
    # the file object holds up to 8 KiB of written text and its encoded copy, about a third
    # of the golden file; eight copies of it show that the peak does not follow the size
    summary = {f"copy{i}": summary for i in range(8)}
    path = tmp_path / "summary.json"
    with path.open("w", encoding="utf-8") as out:
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_summary(out, summary)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    assert json.loads(path.read_text(encoding="utf-8")) == summary
    size = path.stat().st_size
    assert peak < size / 4, (peak, size)
