"""The CSV writer's bytes against its per-cell reference; the CSV-only tables, whose rows
are made as each file is written, against the dict records each row once was; the heap the
bundle holds; and summary.json's writer and the strict JSON it writes: the types it
refuses, the non-finite floats it refuses, the five record keys that quote them instead,
and the memory it holds while it writes a file."""

import csv
import gc
import io
import json
import shutil
import tracemalloc
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semdrift import DegenerateVarianceWarning, freq, semfield
from semdrift.cli import RunConfig, ValidationReport, analyze, load_config, main, run_validation
from semdrift.ingest import CorpusStratum, group_strata
from semdrift.inputs import DeviationMode, FrequencyTable, TranslationKind
from semdrift.lexicon import SentimentClass, SentimentLexicon, Side
from semdrift.report import _record_rows, _Table, write_summary

from helpers import DATA, fixture_concept_map, fixture_lexicons, make_stratum, read_summary

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


def reference_csv(name: str, headers: list[str], records: list[dict], mode_line: str,
                  checksum: str, cells: dict | None = None, footer: str = "") -> str:
    """A table's CSV as its dict records render it, a cell at a time: each header shows the
    record key of the same name unless `cells` maps it to another key."""
    out = io.StringIO()
    out.write(f"# table: {name}\n# mode: {mode_line}\n# inputs: sha256={checksum}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    keys = [(cells or {}).get(h, h) for h in headers]
    writer.writerows([reference_cell(r[key]) for key in keys] for r in records)
    out.write(footer)
    return out.getvalue()


def written(writer) -> str:
    out = io.StringIO()
    writer(out)
    return out.getvalue()


_TRICKY_TEXT = st.text(st.sampled_from(',"\n\r| aé\x00'), max_size=6) | st.text(max_size=6)
_CELL = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, INF, -INF, NAN, 5e-324, -2.2250738585072014e-308,
                                  1e300, -1e-300, 1e-300]),
    st.integers(), st.booleans(), st.none(), _TRICKY_TEXT, st.lists(_TRICKY_TEXT, max_size=3))


@given(st.lists(st.fixed_dictionaries({"a": _CELL, "b": _CELL, "c": _CELL}), max_size=6),
       st.sampled_from(["", "# footer\n"]))
# the first `st.text()` draw of a run with no .hypothesis directory builds hypothesis's
# Unicode tables, which takes over a second and would fail the health check
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_csv_bytes_are_the_per_cell_references(records, footer):
    table = _Table("t", ["a", "b"], _record_rows(records, ("a", "c")), footer)  # "b" shows "c"
    assert written(partial(table.write_csv, mode_line="deviation=difference",
                           checksum="0" * 64)) == reference_csv(
        "t", ["a", "b"], records, "deviation=difference", "0" * 64, {"b": "c"}, footer)


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


def test_a_table_writes_the_rows_its_function_makes_on_each_write():
    records = [{"a": 1, "group_means": {"x": 0.5, "y": 1.5}}]
    table = _Table("t", ["a", "groups"],
                   lambda: ((r["a"], len(r["group_means"])) for r in records))
    write = partial(table.write_csv, mode_line="m", checksum="0" * 64)
    first = written(write)
    assert first.splitlines()[3:] == ["a,groups", "1,2"]
    assert written(write) == first
    assert records == [{"a": 1, "group_means": {"x": 0.5, "y": 1.5}}]


# --- the CSV-only tables: rows made as each file is written ---

class RecordTable:
    """A table as a list of dict records, one per row: the reference rendering."""

    def __init__(self, name: str, headers: list[str], cells: dict | None = None):
        self.name, self.headers, self.cells, self.records = name, headers, cells, []

    def csv(self, mode_line: str, checksum: str) -> str:
        return reference_csv(self.name, self.headers, self.records, mode_line, checksum,
                             self.cells)


def reference_tables(config: RunConfig, inputs: ValidationReport) -> list[RecordTable]:
    """The per-stratum and variant tables as dict records, one per row, built from the
    same analysis results: the rendering each write-time row must match."""
    unique = RecordTable("unique_lemmas", ["stratum", "language", "translation_kind", "class",
                                           "unique_lemmas", "tokens", "mean_tokens_per_lemma"],
                         {"unique_lemmas": "unique_lemma_count", "tokens": "token_count"})
    hist = RecordTable("tokens_per_lemma_hist", ["stratum", "class", "tokens_per_lemma",
                                                 "lemma_count"])
    deviation = RecordTable("deviation", ["stratum", "class", "mode", "mean_deviation",
                                          "median_deviation", "covered_lemmas",
                                          "uncovered_lemmas"])
    by_lemma = RecordTable("deviation_lemmas", ["stratum", "class", "lemma", "observed_pct",
                                                "expected_pct", "value", "status"])
    for stratum in inputs.strata:
        lexicon = inputs.lexicons.get(stratum.language_code)
        if lexicon is None:
            continue
        class_stats = freq.sentiment_stats(stratum, lexicon)
        per_lemma = freq.tokens_per_lemma(stratum, lexicon)
        ref = inputs.tables.get(stratum.language_code)
        deviations = (freq.expected_deviation(stratum, lexicon, ref, config.deviation_mode)
                      if ref is not None and stratum.total_word_count else None)
        for cls in SentimentClass:
            at = {"stratum": stratum.label, "class": cls.value}
            unique.records.append({
                **at, "language": stratum.language_code,
                "translation_kind": stratum.translation_kind.value,
                "unique_lemma_count": class_stats[cls].unique_lemma_count,
                "token_count": class_stats[cls].token_count,
                "mean_tokens_per_lemma": class_stats[cls].mean_tokens_per_lemma})
            histogram = per_lemma[cls].histogram
            hist.records += [{**at, "tokens_per_lemma": n, "lemma_count": histogram[n]}
                             for n in sorted(histogram)]
            if deviations is None:
                continue
            dev = deviations[cls]
            deviation.records.append({
                **at, "mode": dev.mode.value, "mean_deviation": dev.mean_deviation,
                "median_deviation": dev.median_deviation, "covered_lemmas": len(dev.per_lemma),
                "uncovered_lemmas": len(dev.uncovered)})
            by_lemma.records += [{**at, "lemma": lemma, "observed_pct": dev.observed_pct[lemma],
                                  "expected_pct": dev.expected_pct[lemma],
                                  "value": dev.per_lemma[lemma], "status": "covered"}
                                 for lemma in sorted(dev.per_lemma)]
            by_lemma.records += [{**at, "lemma": lemma, "observed_pct": dev.observed_pct[lemma],
                                  "expected_pct": None, "value": None, "status": "uncovered"}
                                 for lemma in dev.uncovered]
    tables = [unique, hist, deviation, by_lemma]
    cmap = inputs.concept_map
    if cmap is None:
        return tables
    headers = ["concept_id", "class", "variant_count", "token_total", "variants_list"]
    variants = RecordTable("variants", ["stratum", *headers], {"variants_list": "variants"})
    top = RecordTable("top_concepts", ["stratum", "rank", *headers],
                      {"variants_list": "variants"})
    sides = {cmap.target_language: Side.TARGET, cmap.source_language: Side.SOURCE}
    for (language, kind), members in group_strata(inputs.strata,
                                                  ("language", "translation_kind")).items():
        if language not in sides:
            continue
        merged = CorpusStratum(language, TranslationKind(kind), {},
                               [d for m in members for d in m.documents])
        profiles = semfield.variant_counts(merged, cmap, sides[language])
        record_of = {p.concept_id: {
            "stratum": merged.label, "concept_id": p.concept_id, "class": p.sentiment.value,
            "variant_count": p.variant_count, "token_total": p.token_total,
            "variants": sorted(p.attested_variants)} for p in profiles}
        variants.records += record_of.values()
        top.records += [{**record_of[p.concept_id], "rank": rank} for rank, p in
                        enumerate(semfield.top_k_concepts(profiles, config.top_k), 1)]
    return [*tables, variants, top]


def assert_rows_match_the_records(config, inputs, names):
    """Each named CSV of the bundle is its dict-record rendering, byte for byte, and each
    bundle writer writes the same text when it is called again."""
    bundle = analyze(config, inputs)
    texts = {name: written(writer) for name, writer in bundle.items()}
    assert {name: written(writer) for name, writer in bundle.items()} == texts
    references = {f"{t.name}.csv": t for t in reference_tables(config, inputs)}
    assert set(names) <= set(references)
    for name in names:
        mode_line, checksum = (line.split(": ", 1)[1] for line in texts[name].splitlines()[1:3])
        assert texts[name] == references[name].csv(mode_line,
                                                   checksum.removeprefix("sha256=")), name
    return texts


def stratum(lemmas, language="en", kind=TranslationKind.SOURCE, term="t1") -> CorpusStratum:
    return make_stratum(lemmas, language, kind, {"term": term}, doc_id=f"{language}-{term}")


_PER_STRATUM = ["unique_lemmas.csv", "tokens_per_lemma_hist.csv", "deviation.csv",
                "deviation_lemmas.csv"]


@pytest.mark.parametrize("mode", list(DeviationMode))
def test_write_time_rows_render_the_dict_records(mode):
    ru, en = fixture_lexicons()
    cmap = fixture_concept_map()
    # "tell" is attested but the table does not list it; "say" is listed at 0 per million,
    # so in ratio mode it is uncovered too; "fine" is not in the concept map
    ref = FrequencyTable("en", {"good": 120.0, "kind": 80.0, "say": 0.0, "doubt": 3.5,
                                "fine": 40.0})
    strata = [
        stratum(["good", "good", "say", "tell", "fine", "doubt", "the"]),
        stratum(["good", "kind", "kind", "say"], kind=TranslationKind.HUMAN),
        stratum([], kind=TranslationKind.HUMAN, term="t2"),  # zero words, merged with t1
        stratum(["хороший", "сказать", "сказать"], language="ru"),  # no ru table
        stratum(["gut", "sagen"], language="de"),  # no de lexicon
    ]
    config = RunConfig(deviation_mode=mode, top_k=100)  # more than the concept map holds
    assert len(cmap.concepts) < config.top_k
    inputs = ValidationReport(lexicons={"ru": ru, "en": en}, concept_map=cmap,
                              tables={"en": ref}, strata=strata)
    texts = assert_rows_match_the_records(
        config, inputs, [*_PER_STRATUM, "variants.csv", "top_concepts.csv"])
    lemma_rows = list(csv.DictReader(texts["deviation_lemmas.csv"].splitlines()[3:]))
    assert {r["stratum"] for r in lemma_rows} == {"en/source/term=t1", "en/human/term=t1"}
    uncovered = {r["lemma"] for r in lemma_rows if r["status"] == "uncovered"}
    assert uncovered == ({"tell", "say"} if mode is DeviationMode.RATIO else {"tell"})
    hist_rows = texts["tokens_per_lemma_hist.csv"].splitlines()[4:]
    hist_strata = {row.split(",")[0] for row in hist_rows}
    assert hist_strata == {"en/source/term=t1", "en/human/term=t1", "ru/source/term=t1"}
    assert "de/" not in texts["unique_lemmas.csv"]
    assert len(texts["top_concepts.csv"].splitlines()) == 4 + 3 * len(cmap.concepts)


def test_write_time_rows_of_a_run_without_a_concept_map_or_a_table():
    ru, en = fixture_lexicons()
    inputs = ValidationReport(lexicons={"ru": ru, "en": en},
                              strata=[stratum(["good", "say"]), stratum([], term="t2"),
                                      stratum(["хороший"], language="ru")])
    texts = assert_rows_match_the_records(RunConfig(), inputs, _PER_STRATUM)
    assert texts["deviation_lemmas.csv"].splitlines()[3:] == [
        "stratum,class,lemma,observed_pct,expected_pct,value,status"]
    assert "variants.csv" not in texts


def test_class_counts_are_those_of_sentiment_stats():
    config = load_config(DATA / "config.json")
    inputs = run_validation(config)
    texts = {name: written(writer) for name, writer in analyze(config, inputs).items()}
    summary = json.loads(texts["summary.json"])
    rows = {(r["stratum"], r["class"]): r
            for r in csv.DictReader(texts["unique_lemmas.csv"].splitlines()[3:])}
    checked = 0
    for entry, stratum_ in zip(summary["strata"], inputs.strata, strict=True):
        expected = freq.sentiment_stats(stratum_, inputs.lexicons[stratum_.language_code])
        for cls, stats in expected.items():
            values = (stats.unique_lemma_count, stats.token_count, stats.mean_tokens_per_lemma)
            counts = entry["classes"][cls.value]
            assert (counts["unique_lemma_count"], counts["token_count"],
                    counts["mean_tokens_per_lemma"]) == values
            row = rows[entry["label"], cls.value]
            cells = (row["unique_lemmas"], row["tokens"], row["mean_tokens_per_lemma"])
            assert cells == tuple(map(reference_cell, values))
            checked += 1
    assert checked == len(rows) == 3 * len(inputs.strata)


_WORDS = [f"w{i:05d}" for i in range(3600)]


def bundle_heap(lemmas: int) -> int:
    """Bytes of heap that `analyze`'s bundle holds for one English stratum that attests
    the first `lemmas` of 3,600 lexicon lemmas twice each; the reference table lists all
    of them."""
    lexicon = SentimentLexicon("en", {cls: frozenset(_WORDS[i::3])
                                      for i, cls in enumerate(SentimentClass)})
    inputs = ValidationReport(lexicons={"en": lexicon},
                              tables={"en": FrequencyTable("en", dict.fromkeys(_WORDS, 25.0))},
                              strata=[make_stratum(_WORDS[:lemmas] * 2)])
    inputs.strata[0].lemma_counts()  # the stratum's own cache is no part of the bundle
    gc.collect()
    tracemalloc.start()
    try:
        bundle = analyze(RunConfig(), inputs)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del bundle
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_the_bundle_holds_no_record_per_deviation_lemma_row():
    # a dict per deviation_lemmas row, with its floats, held 352 B a row here; the class
    # results that the rows are made from at write time hold 130-175 B
    bundle_heap(30)  # the first analyze loads the report module
    small, large = 600, 3600
    per_row = (bundle_heap(large) - bundle_heap(small)) / (large - small)
    assert per_row < 250, per_row


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
