"""The report bundle, loaded by `analyze` alone: `bundle`, which computes it, its table
model, the builders of its tables and the writer of summary.json, the stdlib's `json.dump`.
Every value is computed once, before any file is written, and held once. No table holds
rows of its own: each makes its rows as its file is written. Most make them from the
summary.json section that holds the same values (unique_lemmas from `strata`, then
deviation, anova, tukey, variants, field_width, cosine, euclidean and pca). The three that
summary.json does not hold make them from the per-stratum results they keep:
tokens_per_lemma_hist from each class's histogram, deviation_lemmas from each class's
`ClassDeviation`, and top_concepts from the ranked variant records. Each file is rendered
straight into its open file, so no file's text is ever held whole. The five record keys
that can hold a non-finite float hold its quoted repr instead, so summary.json stays
strict JSON.
"""

import csv
import json
import math
from functools import partial

from . import freq, semfield, stats, vectors
from .errors import AnalysisError, Record
from .ingest import CorpusStratum, group_strata
from .inputs import TranslationKind, read_bytes, sha256_hex
from .lexicon import ConceptMap, SentimentClass, Side

TYPE_CHECKING = False  # type checkers read it as True, and `typing` stays unloaded
if TYPE_CHECKING:  # `python -m semdrift.cli` runs cli as __main__: importing it would run it twice
    from collections.abc import Callable, Iterable

    from .cli import RunConfig, ValidationReport


def _fmt(value):
    """A record value as its CSV cell. A str or an int passes as it is: `csv` writes
    either as its `str()`. A float shows 12 significant digits, a bool true or false,
    None nothing and a list its items joined with "|"; anything else is its `str()`."""
    kind = type(value)
    if kind is str or kind is int:
        return value
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return ""
    if kind is bool:
        return "true" if value else "false"
    if isinstance(value, list):
        return "|".join(value)
    return str(value)


def _strict(value: float | None) -> float | str | None:
    """A float as it is, or its repr ("nan", "inf", "-inf") when it is not finite, since
    strict JSON holds neither; None passes through. Its CSV cell is the same text."""
    return value if value is None or math.isfinite(value) else repr(value)


def checksum_inputs(config: "RunConfig") -> tuple[str, dict[str, str]]:
    """The sha256 of each file the config names, keyed as written, and one combined
    checksum over them. A file that cannot be read is an IngestError naming it."""
    files = {raw: sha256_hex(read_bytes(p)) for raw, p in config.inputs.items()}
    combined = sha256_hex("".join(f"{k}:{v}\n" for k, v in sorted(files.items())).encode())
    return combined, files


class _Table(Record):
    """One bundle CSV: its name, its headers and `rows`, which returns a new iterable of
    the table's rows on each call, each row its cells' values in header order. A row is
    made as the CSV is written, from results computed before any file is written."""

    def __init__(self, name: str, headers: list[str], rows: "Callable[[], Iterable]",
                 footer: str = ""):
        self.name = name
        self.headers = headers
        self.rows = rows
        self.footer = footer

    def write_csv(self, out, mode_line: str, checksum: str) -> None:
        """Write the table's CSV text into the open text file `out`, a row at a time."""
        out.write(f"# table: {self.name}\n# mode: {mode_line}\n# inputs: sha256={checksum}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.headers)
        writer.writerows(map(_fmt, row) for row in self.rows())
        out.write(self.footer)


def _record_rows(records: list[dict], keys) -> "Callable[[], Iterable]":
    """The `rows` of a table whose records summary.json holds: each record's values at
    `keys`, in order."""
    return lambda: (map(r.__getitem__, keys) for r in records)


_CLASS_KEYS = ("unique_lemma_count", "token_count", "mean_tokens_per_lemma")
# ANOVA metric -> the class count it tests
_METRICS = {"unique_lemmas": "unique_lemma_count",
            "mean_tokens_per_lemma": "mean_tokens_per_lemma"}


def stratum_tables(config: "RunConfig", inputs: "ValidationReport", summary: dict) -> list[_Table]:
    """Per-stratum sentiment counts and their deviations from the reference norm, in one
    pass. summary.json holds each stratum's class counts, which unique_lemmas shows and
    the ANOVA stage tests, and each class's deviation; the histogram and per-lemma
    tables keep each stratum's results and make their rows from them."""
    summary["strata"], summary["deviations"] = [], []
    histograms = []  # (stratum label, each class's histogram in class order)
    deviations = []  # (stratum label, each class's ClassDeviation)

    def unique_rows():
        for entry in summary["strata"]:
            for cls, counts in entry.get("classes", {}).items():
                yield (entry["label"], entry["language"], entry["translation_kind"], cls,
                       *map(counts.__getitem__, _CLASS_KEYS))

    def hist_rows():
        for label, per_class in histograms:
            for cls, histogram in zip(SentimentClass, per_class):
                for n in sorted(histogram):
                    yield label, cls.value, n, histogram[n]

    def deviation_rows():
        for r in summary["deviations"]:
            yield (r["stratum"], r["class"], r["mode"], r["mean_deviation"],
                   r["median_deviation"], r["n_covered"], len(r["uncovered"]))

    def lemma_rows():
        for label, per_class in deviations:
            for cls in SentimentClass:
                dev = per_class[cls]
                for lemma in sorted(dev.per_lemma):
                    yield (label, cls.value, lemma, dev.observed_pct[lemma],
                           dev.expected_pct[lemma], dev.per_lemma[lemma], "covered")
                for lemma in dev.uncovered:
                    yield label, cls.value, lemma, dev.observed_pct[lemma], None, None, "uncovered"

    for stratum in inputs.strata:
        entry = {"label": stratum.label, "language": stratum.language_code,
                 "translation_kind": stratum.translation_kind.value,
                 "group_keys": stratum.group_keys, "total_word_count": stratum.total_word_count}
        summary["strata"].append(entry)
        lexicon = inputs.lexicons.get(stratum.language_code)
        if lexicon is None:
            summary["skipped"].append(
                f"stratum {stratum.label}: no lexicon for {stratum.language_code}")
            continue
        per_lemma = freq.tokens_per_lemma(stratum, lexicon)
        histograms.append((stratum.label, [per_lemma[cls].histogram for cls in SentimentClass]))
        entry["classes"] = {cls.value: {"unique_lemma_count": counts.lemma_count,
                                        "token_count": counts.token_count,
                                        "mean_tokens_per_lemma": counts.mean}
                            for cls, counts in per_lemma.items()}
        ref = inputs.tables.get(stratum.language_code)
        if ref is None or not stratum.total_word_count:
            continue
        per_class = freq.expected_deviation(stratum, lexicon, ref, config.deviation_mode)
        deviations.append((stratum.label, per_class))
        summary["deviations"] += [{
            "stratum": stratum.label, "class": cls.value, "mode": dev.mode.value,
            "mean_deviation": _strict(dev.mean_deviation),
            "median_deviation": _strict(dev.median_deviation),
            "n_covered": len(dev.per_lemma), "uncovered": dev.uncovered}
            for cls, dev in per_class.items()]
    return [
        _Table("unique_lemmas", ["stratum", "language", "translation_kind", "class",
                                 "unique_lemmas", "tokens", "mean_tokens_per_lemma"],
               unique_rows),
        _Table("tokens_per_lemma_hist", ["stratum", "class", "tokens_per_lemma", "lemma_count"],
               hist_rows),
        _Table("deviation", ["stratum", "class", "mode", "mean_deviation", "median_deviation",
                             "covered_lemmas", "uncovered_lemmas"], deviation_rows),
        _Table("deviation_lemmas", ["stratum", "class", "lemma", "observed_pct",
                                    "expected_pct", "value", "status"], lemma_rows)]


def anova_tables(config: "RunConfig", inputs: "ValidationReport", by_kind: dict,
                 summary: dict) -> list[_Table]:
    """ANOVA + Tukey per factor, class and metric, over summary.json's per-stratum class
    counts.

    Grouping-key factors run within one (language, translation kind) slice so
    a term or summit effect is not confounded with the translation kind (`by_kind`
    holds those slices); the translation_kind factor itself runs per language.
    """
    anova, tukey = summary["anova"], summary["tukey"] = [], []
    where_keys = ("language", "slice", "factor", "class", "metric")
    result_keys = ("df_between", "df_within", "f_stat", "p_value", "levene_stat", "levene_p",
                   "degenerate")

    def anova_rows():
        for r in anova:
            yield (*map(r.__getitem__, where_keys), len(r["group_means"]),
                   *map(r.__getitem__, result_keys))

    observed = {entry["label"]: entry["classes"] for entry in summary["strata"]
                if "classes" in entry}
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
                            xs = [observed[m.label][cls.value][key] for m in group]
                            xs = [x for x in xs if x is not None]
                            if len(xs) >= 2:
                                samples.append(stats.GroupSample(value, xs))
                        if len(samples) < 2:
                            summary["skipped"].append(
                                f"anova {'/'.join(where.values())}: "
                                f"needs >= 2 groups with >= 2 values")
                            continue
                        result = stats.one_way_anova(samples)
                        anova.append({
                            **where, "df_between": result.df_between,
                            "df_within": result.df_within,
                            "f_stat": _strict(result.f_stat), "p_value": result.p_value,
                            "levene_stat": _strict(result.levene_stat),
                            "levene_p": result.levene_p, "degenerate": result.degenerate,
                            "group_means": result.group_means})
                        tukey += [{
                            **where, "a": pair.a, "b": pair.b, "mean_diff": pair.mean_diff,
                            "q_stat": _strict(pair.q_stat), "p_adj": pair.p_adj,
                            "significant": pair.significant}
                            for pair in stats.tukey_hsd(samples, config.alpha).pairs]
    return [
        _Table("anova", [*where_keys, "groups", *result_keys], anova_rows),
        _Table("tukey", [*where_keys, "group_a", "group_b", "mean_diff", "q_stat", "p_adj",
                         "significant"],
               _record_rows(tukey, (*where_keys, "a", "b", "mean_diff", "q_stat", "p_adj",
                                    "significant")))]


def concept_tables(config: "RunConfig", cmap: ConceptMap, merged: list[CorpusStratum],
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
    summary["variants"], summary["field_width"] = {}, []
    top_of: dict[str, list[dict]] = {}  # stratum label -> its top-k variant records, ranked
    variant_keys = ("concept_id", "class", "variant_count", "token_total", "variants")

    def variant_rows():
        for label, records in summary["variants"].items():
            for r in records:
                yield label, *map(r.__getitem__, variant_keys)

    def top_rows():
        for label, ranked in top_of.items():
            for rank, r in enumerate(ranked, 1):
                yield label, rank, *map(r.__getitem__, variant_keys)

    variant_headers = [*variant_keys[:-1], "variants_list"]
    width_headers = ["stratum", "baseline", "mean_variants_per_concept",
                     "width_ratio_vs_baseline", "excluded_concepts"]
    tables = [_Table("variants", ["stratum", *variant_headers], variant_rows),
              _Table("top_concepts", ["stratum", "rank", *variant_headers], top_rows),
              _Table("field_width", width_headers,
                     _record_rows(summary["field_width"], width_headers))]
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
            "concept_id": p.concept_id, "class": p.sentiment.value,
            "variant_count": p.variant_count, "token_total": p.token_total,
            "variants": sorted(p.attested_variants)} for p in profiles}
        summary["variants"][stratum.label] = list(record_of.values())
        top_of[stratum.label] = [record_of[p.concept_id]
                                 for p in semfield.top_k_concepts(profiles, config.top_k)]
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
            summary["field_width"].append({
                "stratum": label, "baseline": baseline_label,
                "mean_variants_per_concept": report.mean_variants_per_concept,
                "width_ratio_vs_baseline": report.width_ratio_vs_baseline,
                "excluded_concepts": list(report.excluded_concepts)})

    labels = [v.stratum_label for v in concept_vectors]
    similarity = summary["similarity"] = {}  # metric -> row label -> the row, in label order

    def matrix_rows(name):
        return lambda: ((label, *row) for label, row in similarity.get(name, {}).items())

    tables += [_Table(name, ["label", *labels], matrix_rows(name))
               for name in ("cosine", "euclidean")]
    if len(concept_vectors) < 2:
        summary["skipped"].append("similarity: fewer than 2 concept vectors")
        return tables
    similarity["labels"] = labels
    for name, metric in (("cosine", cosine_or_none), ("euclidean", vectors.euclidean)):
        similarity[name] = {u.stratum_label: [metric(u, v) for v in concept_vectors]
                            for u in concept_vectors}
    try:
        projection = vectors.pca_2d(concept_vectors)
    except AnalysisError as exc:
        summary["skipped"].append(f"pca: {exc}")
        return tables
    ev = list(projection.explained_variance)
    coords = [[float(x), float(y)] for x, y in projection.coords]
    summary["pca"] = {"labels": labels, "coords": coords, "explained_variance": ev}
    return [*tables, _Table("pca", ["label", "x", "y"],
                            lambda: ((label, *xy) for label, xy in zip(projection.labels, coords)),
                            footer=f"# explained_variance: {_fmt(ev[0])},{_fmt(ev[1])}\n")]


def write_summary(out, summary: dict) -> None:
    """Write summary.json's text into the open text file `out`, a chunk at a time as the
    stdlib's encoder makes it. The builders quote each non-finite float (`_strict`), so
    the file stays strict JSON; one they missed raises ValueError rather than writing
    NaN or Infinity."""
    json.dump(summary, out, ensure_ascii=False, indent=2, sort_keys=True, allow_nan=False)
    out.write("\n")


def bundle(config: "RunConfig", inputs: "ValidationReport") -> dict[str, partial]:
    """The report bundle of `inputs`, an error-free `run_validation(config)` report, as
    filename -> a function that writes the file's text into an open text file.

    Every table is computed here and nothing is written. A CSV-only table holds no rows:
    each is made, from the results computed here, as its file is written, so each writer
    may be called again.
    """
    checksum, files = checksum_inputs(config)
    summary: dict = {
        "inputs": {"sha256": checksum, "files": files},
        "mode": {
            "deviation_mode": config.deviation_mode.value,
            "priority": [c.value for c in config.priority],
            "alpha": config.alpha,
            "top_k": config.top_k,
            "group_by": config.group_by,
        },
        "skipped": [],
    }
    by_kind = group_strata(inputs.strata, ("language", "translation_kind"))
    tables = [*stratum_tables(config, inputs, summary),
              *anova_tables(config, inputs, by_kind, summary)]
    if inputs.concept_map is not None:
        # semantic field and vectors over (language, translation kind) merges
        merged = [CorpusStratum(language, TranslationKind(kind), {},
                                [d for m in members for d in m.documents])
                  for (language, kind), members in by_kind.items()]
        tables += concept_tables(config, inputs.concept_map, merged, summary)

    priority = ">".join(cls.value for cls in config.priority)
    mode = (f"deviation={config.deviation_mode.value} priority={priority} "
            f"alpha={config.alpha:g} top_k={config.top_k}")
    writers = {f"{table.name}.csv": partial(table.write_csv, mode_line=mode, checksum=checksum)
               for table in tables}
    writers["summary.json"] = partial(write_summary, summary=summary)
    return writers
