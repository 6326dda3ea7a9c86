"""The report bundle, loaded by `analyze` alone: its table model, the builders of its
tables, each built once as records that render both its CSV and its summary.json section,
and the writer of summary.json. Each file is rendered straight into its open file, so no
file's text is ever held whole.
"""

from __future__ import annotations

import csv
import math
from json.encoder import encode_basestring
from typing import TYPE_CHECKING

from . import freq, semfield, stats, vectors
from .errors import AnalysisError, Record
from .ingest import CorpusStratum, TranslationKind, group_strata, read_bytes, sha256_hex
from .lexicon import ConceptMap, SentimentClass, Side

if TYPE_CHECKING:  # `python -m semdrift.cli` runs cli as __main__: importing it would run it twice
    from .cli import RunConfig, ValidationReport


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, list):
        return "|".join(value)
    return str(value)


def checksum_inputs(config: RunConfig) -> tuple[str, dict[str, str]]:
    """The sha256 of each file the config names, keyed as written, and one combined
    checksum over them. A file that cannot be read is an IngestError naming it."""
    files = {raw: sha256_hex(read_bytes(p)) for raw, p in config.inputs.items()}
    combined = sha256_hex("".join(f"{k}:{v}\n" for k, v in sorted(files.items())).encode())
    return combined, files


class _Table(Record):
    """One bundle table, built once: its records render both the CSV and summary.json.

    A record is a dict of native values. Each CSV header shows the record key
    of the same name unless `cells` maps it to another key or to a function of
    the record; a list shows joined with "|". Keys in `csv_only` stay out of
    the summary; keys no header shows appear only there.
    """

    def __init__(self, name: str, headers: list[str], cells: dict | None = None,
                 csv_only: tuple[str, ...] = (), footer: str = "",
                 records: list[dict] | None = None):
        self.name = name
        self.headers = headers
        self.cells = {} if cells is None else cells
        self.csv_only = csv_only
        self.footer = footer
        self.records = [] if records is None else records

    def write_csv(self, out, mode_line: str, checksum: str) -> None:
        """Write the table's CSV text into the open text file `out`, a row at a time."""
        out.write(f"# table: {self.name}\n# mode: {mode_line}\n# inputs: sha256={checksum}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.headers)
        getters = [self.cells.get(h, h) for h in self.headers]
        writer.writerows([_fmt(g(r) if callable(g) else r[g]) for g in getters]
                         for r in self.records)
        out.write(self.footer)

    def to_summary(self) -> list[dict]:
        if not self.csv_only:  # summary.json is rendered from the same records, unchanged
            return self.records
        return [{k: v for k, v in r.items() if k not in self.csv_only} for r in self.records]


_CLASS_KEYS = ("unique_lemma_count", "token_count", "mean_tokens_per_lemma")
# ANOVA metric -> the unique_lemmas record key it tests
_METRICS = {"unique_lemmas": "unique_lemma_count",
            "mean_tokens_per_lemma": "mean_tokens_per_lemma"}


def stratum_tables(config: RunConfig, inputs: ValidationReport, summary: dict) -> list[_Table]:
    """Per-stratum sentiment counts and their deviations from the reference norm, in one
    pass; the ANOVA stage tests the unique_lemmas records."""
    unique = _Table("unique_lemmas", ["stratum", "language", "translation_kind", "class",
                                      "unique_lemmas", "tokens", "mean_tokens_per_lemma"],
                    {"unique_lemmas": "unique_lemma_count", "tokens": "token_count"})
    hist = _Table("tokens_per_lemma_hist",
                  ["stratum", "class", "tokens_per_lemma", "lemma_count"])
    deviation = _Table(
        "deviation", ["stratum", "class", "mode", "mean_deviation", "median_deviation",
                      "covered_lemmas", "uncovered_lemmas"],
        {"covered_lemmas": "n_covered", "uncovered_lemmas": lambda r: len(r["uncovered"])})
    by_lemma = _Table("deviation_lemmas", ["stratum", "class", "lemma", "observed_pct",
                                           "expected_pct", "value", "status"])
    summary["strata"] = []
    for stratum in inputs.strata:
        where = {"language": stratum.language_code,
                 "translation_kind": stratum.translation_kind.value}
        entry = {"label": stratum.label, **where, "group_keys": stratum.group_keys,
                 "total_word_count": stratum.total_word_count}
        summary["strata"].append(entry)
        lexicon = inputs.lexicons.get(stratum.language_code)
        if lexicon is None:
            summary["skipped"].append(
                f"stratum {stratum.label}: no lexicon for {stratum.language_code}")
            continue
        class_stats = freq.sentiment_stats(stratum, lexicon)
        per_lemma = freq.tokens_per_lemma(stratum, lexicon)
        ref = inputs.tables.get(stratum.language_code)
        deviations = (freq.expected_deviation(stratum, lexicon, ref, config.deviation_mode)
                      if ref is not None and stratum.total_word_count else None)
        entry["classes"] = {}
        for cls in SentimentClass:
            cs = class_stats[cls]
            record = {"stratum": stratum.label, **where, "class": cls.value,
                      "unique_lemma_count": cs.unique_lemma_count,
                      "token_count": cs.token_count,
                      "mean_tokens_per_lemma": cs.mean_tokens_per_lemma}
            unique.records.append(record)
            entry["classes"][cls.value] = {key: record[key] for key in _CLASS_KEYS}
            histogram = per_lemma[cls].histogram
            hist.records += [{"stratum": stratum.label, "class": cls.value,
                              "tokens_per_lemma": n, "lemma_count": histogram[n]}
                             for n in sorted(histogram)]
            if deviations is None:
                continue
            dev = deviations[cls]
            at = {"stratum": stratum.label, "class": cls.value}
            deviation.records.append({
                **at, "mode": dev.mode.value, "mean_deviation": dev.mean_deviation,
                "median_deviation": dev.median_deviation, "n_covered": len(dev.per_lemma),
                "uncovered": list(dev.uncovered)})
            by_lemma.records += [{**at, "lemma": lemma, "observed_pct": dev.observed_pct[lemma],
                                  "expected_pct": dev.expected_pct[lemma],
                                  "value": dev.per_lemma[lemma], "status": "covered"}
                                 for lemma in sorted(dev.per_lemma)]
            by_lemma.records += [{**at, "lemma": lemma, "observed_pct": dev.observed_pct[lemma],
                                  "expected_pct": None, "value": None, "status": "uncovered"}
                                 for lemma in dev.uncovered]
    summary["deviations"] = deviation.to_summary()
    return [unique, hist, deviation, by_lemma]


def anova_tables(config: RunConfig, inputs: ValidationReport, by_kind: dict,
                  unique: _Table, summary: dict) -> list[_Table]:
    """ANOVA + Tukey per factor, class and metric.

    Grouping-key factors run within one (language, translation kind) slice so
    a term or summit effect is not confounded with the translation kind (`by_kind`
    holds those slices); the translation_kind factor itself runs per language.
    """
    anova = _Table("anova", ["language", "slice", "factor", "class", "metric", "groups",
                             "df_between", "df_within", "f_stat", "p_value", "levene_stat",
                             "levene_p", "degenerate"], csv_only=("groups",))
    tukey = _Table("tukey", ["language", "slice", "factor", "class", "metric", "group_a",
                             "group_b", "mean_diff", "q_stat", "p_adj", "significant"],
                   {"group_a": "a", "group_b": "b"})
    observed = {(r["stratum"], r["class"]): r for r in unique.records}
    group_factors = [f for f in dict.fromkeys(config.group_by) if f != "translation_kind"]
    by_language = group_strata(inputs.strata, ("language",))
    for language in sorted(inputs.lexicons):
        slices = [("all", by_language.get((language,), []), ["translation_kind"])]
        if group_factors:
            slices += [(kind, members, group_factors)
                       for (lang, kind), members in by_kind.items() if lang == language]
        for slice_label, members, factors in slices:
            for factor in factors:
                groups = group_strata(members, (factor,))
                for cls in SentimentClass:
                    for metric, key in _METRICS.items():
                        where = {"language": language, "slice": slice_label,
                                 "factor": factor, "class": cls.value, "metric": metric}
                        samples = []
                        for (value,), group in groups.items():
                            xs = [observed[(m.label, cls.value)][key] for m in group]
                            xs = tuple(float(x) for x in xs if x is not None)
                            if len(xs) >= 2:
                                samples.append(stats.GroupSample(value, xs))
                        if len(samples) < 2:
                            summary["skipped"].append(
                                f"anova {'/'.join(where.values())}: "
                                f"needs >= 2 groups with >= 2 values")
                            continue
                        result = stats.one_way_anova(samples)
                        anova.records.append({
                            **where, "groups": len(samples), "df_between": result.df_between,
                            "df_within": result.df_within, "f_stat": result.f_stat,
                            "p_value": result.p_value, "levene_stat": result.levene_stat,
                            "levene_p": result.levene_p, "degenerate": result.degenerate,
                            "group_means": result.group_means})
                        tukey.records += [{
                            **where, "a": pair.a, "b": pair.b, "mean_diff": pair.mean_diff,
                            "q_stat": pair.q_stat, "p_adj": pair.p_adj,
                            "significant": pair.significant}
                            for pair in stats.tukey_hsd(samples, config.alpha).pairs]
    summary["anova"] = anova.to_summary()
    summary["tukey"] = tukey.to_summary()
    return [anova, tukey]


def concept_tables(config: RunConfig, cmap: ConceptMap, merged: list[CorpusStratum],
                    summary: dict) -> list[_Table]:
    """Variant profiles, top-k concepts and concept vectors in one pass over the merged
    strata; then field width against the source-kind stratum in the concept map's source
    language, cosine and Euclidean matrices over the concept vectors, and their 2-D
    projection."""
    def cosine_or_none(u, v) -> float | None:
        try:
            return vectors.cosine(u, v)
        except AnalysisError:
            return None

    sides = {cmap.target_language: Side.TARGET, cmap.source_language: Side.SOURCE}
    variant_headers = ["concept_id", "class", "variant_count", "token_total", "variants_list"]
    variants = _Table("variants", ["stratum", *variant_headers], {"variants_list": "variants"})
    top = _Table("top_concepts", ["stratum", "rank", *variant_headers],
                 {"variants_list": "variants"})
    width = _Table("field_width", ["stratum", "baseline", "mean_variants_per_concept",
                                   "width_ratio_vs_baseline", "excluded_concepts"])
    summary["variants"] = {}
    profiles_of: dict[str, list] = {}
    concept_vectors = []
    baseline_label = None
    for stratum in merged:
        side = sides.get(stratum.language_code)
        if side is None:
            summary["skipped"].append(f"variants {stratum.label}: language "
                                      f"{stratum.language_code} not in concept map")
            continue
        profiles = profiles_of[stratum.label] = semfield.variant_counts(stratum, cmap, side)
        if stratum.translation_kind is TranslationKind.SOURCE and side is Side.SOURCE:
            baseline_label = stratum.label  # the originals the translations are measured by
        record_of = {p.concept_id: {
            "stratum": stratum.label, "concept_id": p.concept_id, "class": p.sentiment.value,
            "variant_count": p.variant_count, "token_total": p.token_total,
            "variants": sorted(p.attested_variants)} for p in profiles}
        variants.records += record_of.values()
        summary["variants"][stratum.label] = [
            {k: v for k, v in r.items() if k != "stratum"} for r in record_of.values()]
        top.records += [{**record_of[p.concept_id], "rank": rank} for rank, p in
                        enumerate(semfield.top_k_concepts(profiles, config.top_k), 1)]
        try:
            concept_vectors.append(vectors.concept_vector(stratum, cmap, side))
        except AnalysisError as exc:
            raise AnalysisError(f"concept vector for {stratum.label}: {exc}") from exc
    if baseline_label is None:
        summary["skipped"].append("field width: no source-kind stratum as baseline")
    else:
        baseline = profiles_of[baseline_label]
        for label in sorted(profiles_of.keys() - {baseline_label}):
            try:
                report = semfield.field_width_report(profiles_of[label], baseline)
            except AnalysisError as exc:
                summary["skipped"].append(f"field width {label}: {exc}")
                continue
            width.records.append({
                "stratum": label, "baseline": baseline_label,
                "mean_variants_per_concept": report.mean_variants_per_concept,
                "width_ratio_vs_baseline": report.width_ratio_vs_baseline,
                "excluded_concepts": list(report.excluded_concepts)})
    summary["field_width"] = width.to_summary()

    labels = [v.stratum_label for v in concept_vectors]
    cosine = _Table("cosine", ["label", *labels])
    euclidean = _Table("euclidean", ["label", *labels])
    tables = [variants, top, width, cosine, euclidean]
    if len(concept_vectors) < 2:
        summary["similarity"] = {}
        summary["skipped"].append("similarity: fewer than 2 concept vectors")
        return tables
    summary["similarity"] = {"labels": labels}
    for table, metric in ((cosine, cosine_or_none), (euclidean, vectors.euclidean)):
        table.records = [{"label": u.stratum_label,
                          **{v.stratum_label: metric(u, v) for v in concept_vectors}}
                         for u in concept_vectors]
        summary["similarity"][table.name] = {r["label"]: [r[label] for label in labels]
                                             for r in table.records}
    try:
        projection = vectors.pca_2d(concept_vectors)
    except AnalysisError as exc:
        summary["skipped"].append(f"pca: {exc}")
        return tables
    ev = list(projection.explained_variance)
    pca = _Table("pca", ["label", "x", "y"],
                 footer=f"# explained_variance: {_fmt(ev[0])},{_fmt(ev[1])}\n")
    pca.records = [{"label": label, "x": float(x), "y": float(y)}
                   for label, (x, y) in zip(projection.labels, projection.coords)]
    summary["pca"] = {"labels": labels, "coords": [[r["x"], r["y"]] for r in pca.records],
                      "explained_variance": ev}
    return [*tables, pca]


def _scalar(value) -> str | None:
    """The JSON text of a scalar, or None for a container or any other type."""
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, float):  # a non-finite float as its quoted repr: strict JSON
        text = float.__repr__(value)
        return text if math.isfinite(value) else f'"{text}"'
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return None


def _render(value, newline: str, write) -> None:
    """Write the text of a dict, list or tuple that opens on a line indented as `newline`.
    A container of scalars only, such as a table record, is written as one string; any
    other as one string per item head, since a join per level would copy all text below
    it."""
    if isinstance(value, dict):
        keys = sorted(value)
        heads = [encode_basestring(key) + ": " for key in keys]  # TypeError unless a str
        items = [value[key] for key in keys]
        opened, closed = "{", "}"
    elif isinstance(value, (list, tuple)):
        heads, items, opened, closed = [""] * len(value), value, "[", "]"
    else:
        raise TypeError(f"summary.json cannot hold a {type(value).__name__}")
    if not items:
        write(opened + closed)
        return
    inner = newline + "  "
    texts = [_scalar(item) for item in items]
    if None not in texts:
        write(opened + inner + f",{inner}".join(map(str.__add__, heads, texts))
              + newline + closed)
        return
    write(opened)
    separator = inner
    for head, item, text in zip(heads, items, texts):
        if text is None:
            write(separator + head)
            _render(item, inner, write)
        else:
            write(separator + head + text)
        separator = "," + inner
    write(newline + closed)


def write_summary(out, summary: dict) -> None:
    """Write summary.json's text into the open text file `out`: the bytes of
    `json.dumps(summary, ensure_ascii=False, indent=2, sort_keys=True) + "\n"`, but with
    each non-finite float written as its quoted repr ("nan", "inf", "-inf") so the file
    stays strict JSON. Dict keys must be str; a value other than a str, int, float, bool,
    None, dict, list or tuple raises TypeError.

    The stdlib's encoder indents in Python before 3.13: it holds one string per token, and
    it needed a copy of the summary for the non-finite floats. This writes each table
    record, and each other item head, straight into `out`, so it holds no more of the text
    than one record; the file object buffers up to 8 KiB of it.
    """
    _render(summary, "\n", out.write)
    out.write("\n")
