"""Command-line front end: validate inputs, run the analysis bundle, or synthesize corpora.

Exit codes: 0 success, 1 analysis error, 2 configuration/validation error.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import freq, ingest, semfield, stats, synth, vectors
from .errors import (NUMBER, AnalysisError, SemdriftError, ValidationError, check_type,
                     check_types)
from .freq import DeviationMode, FrequencyTable
from .ingest import CorpusStratum, TranslationKind
from .lexicon import (DEFAULT_PRIORITY, ConceptMap, SentimentClass, SentimentLexicon, Side,
                      find_conflicts, load_concept_map, load_lexicon_sources, merge_disjoint)
from .synth import ChannelKind, ChannelParams

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_CONFIG = 2


@dataclass
class RunConfig:
    """Resolved run settings; paths are absolute, `raw_paths` keeps them as written."""

    base_dir: Path
    manifest: Path | None = None
    source_language: str | None = None
    target_language: str | None = None
    lexicons: dict[str, list[Path]] = field(default_factory=dict)
    concept_map: Path | None = None
    frequency_tables: dict[str, Path] = field(default_factory=dict)
    priority: tuple[SentimentClass, ...] = DEFAULT_PRIORITY
    group_by: list[str] = field(default_factory=list)
    alpha: float = 0.05
    deviation_mode: DeviationMode = DeviationMode.DIFFERENCE
    top_k: int = 5
    attested: bool = False
    output_dir: Path = Path("out")
    synth_options: dict = field(default_factory=dict)
    raw_paths: dict[str, str] = field(default_factory=dict)

    def mode_line(self) -> str:
        priority = ">".join(cls.value for cls in self.priority)
        return (f"deviation={self.deviation_mode.value} priority={priority} "
                f"alpha={self.alpha:g} top_k={self.top_k}")


# JSON type of each config key; a key that is absent or null takes the RunConfig default.
_CONFIG_TYPES = {
    "manifest": str, "source_language": str, "target_language": str, "lexicons": dict,
    "concept_map": str, "frequency_tables": dict, "priority": list, "group_by": list,
    "alpha": NUMBER, "deviation_mode": str, "top_k": int, "attested": bool,
    "output_dir": str, "synth": dict,
}
_SYNTH_TYPES = {
    "words": int, "seed": int, "kind": str, "factor": NUMBER, "norm_pull": NUMBER,
    "length_inflation": NUMBER, "concept_density": NUMBER, "filler_size": int,
    "concept_budget": dict,
}


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Read a JSON config file and apply command-line overrides.

    Every value is checked against its JSON type, so a malformed config ends
    in a ValidationError rather than a misread value or a traceback.
    """
    path = Path(path)
    try:
        body = json.loads(ingest.read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    if overrides:
        body = {**body, **{k: v for k, v in overrides.items() if v is not None}}
    body = check_types(body, _CONFIG_TYPES)

    base = path.parent
    config = RunConfig(base_dir=base)

    def resolve(raw: str, label: str) -> Path:
        config.raw_paths[label] = raw
        p = Path(raw)
        return p if p.is_absolute() else base / p

    if "manifest" in body:
        config.manifest = resolve(body["manifest"], "manifest")
    config.source_language = body.get("source_language")
    config.target_language = body.get("target_language")
    for lang, paths in body.get("lexicons", {}).items():
        if isinstance(paths, str):
            paths = [paths]
        check_type(f"lexicons.{lang}", paths, list)
        for p in paths:
            check_type(f"lexicons.{lang} entry", p, str)
        config.lexicons[lang] = [
            resolve(p, f"lexicon:{lang}:{i}") for i, p in enumerate(paths)]
    if body.get("concept_map"):
        config.concept_map = resolve(body["concept_map"], "concept_map")
    for lang, p in body.get("frequency_tables", {}).items():
        check_type(f"frequency_tables.{lang}", p, str)
        config.frequency_tables[lang] = resolve(p, f"frequency_table:{lang}")

    if "priority" in body:
        try:
            config.priority = tuple(SentimentClass(c) for c in body["priority"])
        except ValueError as exc:
            raise ValidationError(f"invalid priority entry: {exc}") from None
        if sorted(config.priority) != sorted(SentimentClass):
            raise ValidationError(
                f"priority must be a permutation of the three classes: {body['priority']}")
    for factor in body.get("group_by", []):
        check_type("group_by entry", factor, str)
    config.group_by = list(body.get("group_by", []))
    config.alpha = float(body.get("alpha", 0.05))
    if not 0.0 < config.alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {config.alpha}")
    try:
        config.deviation_mode = DeviationMode(body.get("deviation_mode", "difference"))
    except ValueError:
        raise ValidationError(
            f"deviation_mode must be 'difference' or 'ratio', "
            f"got {body.get('deviation_mode')!r}") from None
    config.top_k = body.get("top_k", 5)
    if config.top_k < 1:
        raise ValidationError(f"top_k must be >= 1, got {config.top_k}")
    config.attested = body.get("attested", False)
    if "output_dir" in body:
        raw = body["output_dir"]
        p = Path(raw)
        config.output_dir = p if p.is_absolute() else base / p
        config.raw_paths["output_dir"] = raw
    config.synth_options = check_types(body.get("synth", {}), _SYNTH_TYPES, "synth.")
    for cid, weight in config.synth_options.get("concept_budget", {}).items():
        check_type(f"synth.concept_budget.{cid}", weight, NUMBER)
    return config


@dataclass
class ValidationReport:
    """Validation messages plus every input that loaded, so a run reads each input once."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    lexicons: dict[str, SentimentLexicon] = field(default_factory=dict)
    concept_map: ConceptMap | None = None
    tables: dict[str, FrequencyTable] = field(default_factory=dict)
    strata: list[CorpusStratum] = field(default_factory=list)

    def error(self, message: str):
        self.errors.append(message)

    def warning(self, message: str):
        self.warnings.append(message)


def _load_lexicons(config: RunConfig, report: ValidationReport) -> dict[str, SentimentLexicon]:
    lexicons: dict[str, SentimentLexicon] = {}
    for lang in sorted(config.lexicons):
        try:
            raws = load_lexicon_sources(config.lexicons[lang], lang)
        except SemdriftError as exc:
            report.error(f"lexicon {lang}: {exc}")
            continue
        for lemma, classes in sorted(find_conflicts(raws).items()):
            winner = next(c for c in config.priority if c in classes)
            names = ", ".join(c.value for c in sorted(classes, key=list(SentimentClass).index))
            report.warning(
                f"lexicon {lang}: cross-listed lemma {lemma!r} ({names}) "
                f"resolved to {winner.value}")
        lexicon = merge_disjoint(raws, config.priority,
                                 language_code=lang, attested=config.attested)
        for cls in SentimentClass:
            if not lexicon.lists[cls]:
                report.error(f"lexicon {lang}: empty {cls.value} list after merge")
        lexicons[lang] = lexicon
    return lexicons


def _load_concept_map(config: RunConfig, lexicons: dict[str, SentimentLexicon],
                      report: ValidationReport) -> ConceptMap | None:
    if config.concept_map is None:
        return None
    if not config.source_language or not config.target_language:
        report.error("concept_map requires source_language and target_language")
        return None
    src = lexicons.get(config.source_language)
    tgt = lexicons.get(config.target_language)
    if src is None or tgt is None:
        report.error("concept_map requires lexicons for both configured languages")
        return None
    try:
        return load_concept_map(config.concept_map, src, tgt)
    except SemdriftError as exc:
        report.error(f"concept map: {exc}")
        return None


def _load_frequency_tables(config: RunConfig,
                           report: ValidationReport) -> dict[str, FrequencyTable]:
    tables: dict[str, FrequencyTable] = {}
    for lang in sorted(config.frequency_tables):
        try:
            tables[lang] = FrequencyTable.load(config.frequency_tables[lang], lang)
        except SemdriftError as exc:
            report.error(f"frequency table {lang}: {exc}")
    for lang in sorted(config.lexicons):
        if lang not in config.frequency_tables:
            report.warning(f"no frequency table for {lang}; deviations skipped")
    return tables


def run_validation(config: RunConfig, *, need_manifest: bool = True) -> ValidationReport:
    """Load and check every input named by the config.

    The report keeps what loaded (lexicons, concept map, frequency tables and,
    with `need_manifest`, the corpus) for `analyze` to reuse. A `group_by`
    factor that no document carries as a group key is an error, since every
    ANOVA over it would be skipped.
    """
    report = ValidationReport()
    report.lexicons = _load_lexicons(config, report)
    report.concept_map = _load_concept_map(config, report.lexicons, report)
    report.tables = _load_frequency_tables(config, report)
    if need_manifest:
        if config.manifest is None:
            report.error("config does not name a manifest")
        else:
            try:
                report.strata = ingest.load_corpus(config.manifest)
                if not report.strata:
                    report.error("manifest lists no documents")
            except SemdriftError as exc:
                report.error(f"manifest: {exc}")
        carried = {key for stratum in report.strata for key in stratum.group_keys}
        for factor in config.group_by:
            if report.strata and factor != "translation_kind" and factor not in carried:
                report.error(f"group_by factor {factor!r}: no document has this group key")
    return report


def cmd_validate(config: RunConfig) -> int:
    report = run_validation(config)
    for message in report.errors:
        print(f"error: {message}")
    for message in report.warnings:
        print(f"warning: {message}")
    print(f"{len(report.errors)} errors, {len(report.warnings)} warnings")
    return EXIT_CONFIG if report.errors else EXIT_OK


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _checksum_inputs(config: RunConfig) -> tuple[str, dict[str, str]]:
    files: dict[str, str] = {}
    paths: list[tuple[str, Path]] = []
    if config.manifest:
        paths.append((config.raw_paths.get("manifest", str(config.manifest)), config.manifest))
    for lang, lex_paths in sorted(config.lexicons.items()):
        for i, p in enumerate(lex_paths):
            paths.append((config.raw_paths.get(f"lexicon:{lang}:{i}", str(p)), p))
    if config.concept_map:
        paths.append((config.raw_paths.get("concept_map", str(config.concept_map)),
                      config.concept_map))
    for lang, p in sorted(config.frequency_tables.items()):
        paths.append((config.raw_paths.get(f"frequency_table:{lang}", str(p)), p))
    for raw, p in sorted(paths):
        if p.exists():
            files[raw] = hashlib.sha256(p.read_bytes()).hexdigest()
    combined = hashlib.sha256(
        "".join(f"{k}:{v}\n" for k, v in sorted(files.items())).encode()).hexdigest()
    return combined, files


def _table(name: str, mode_line: str, checksum: str, header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write(f"# table: {name}\n")
    buf.write(f"# mode: {mode_line}\n")
    buf.write(f"# inputs: sha256={checksum}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _merge_by_kind(strata: list[CorpusStratum]) -> dict[tuple[str, str], CorpusStratum]:
    grouped: dict[tuple[str, str], list[CorpusStratum]] = {}
    for stratum in strata:
        if stratum.translation_kind is None:
            continue
        key = (stratum.language_code, stratum.translation_kind.value)
        grouped.setdefault(key, []).append(stratum)
    merged = {}
    for key in sorted(grouped):
        members = grouped[key]
        docs = [d for m in members for d in m.documents]
        merged[key] = CorpusStratum(key[0], TranslationKind(key[1]), {}, docs)
    return merged


def _factor_groups(strata: list[CorpusStratum], factor: str) -> dict[str, list[CorpusStratum]]:
    groups: dict[str, list[CorpusStratum]] = {}
    for stratum in strata:
        if factor == "translation_kind":
            if stratum.translation_kind is None:
                continue
            value = stratum.translation_kind.value
        else:
            if factor not in stratum.group_keys:
                continue
            value = stratum.group_keys[factor]
        groups.setdefault(value, []).append(stratum)
    return groups


def analyze(config: RunConfig, inputs: ValidationReport) -> dict[str, str]:
    """Run the full pipeline and return the report bundle as filename -> contents.

    `inputs` is the `run_validation(config)` report, whose loaded inputs are
    analyzed. Nothing is written here; callers persist the bundle only after
    every table is computed, so failures leave no partial output behind.
    """
    if inputs.errors:
        raise ValidationError("; ".join(inputs.errors))
    lexicons, cmap, tables = inputs.lexicons, inputs.concept_map, inputs.tables
    strata = inputs.strata
    checksum, files = _checksum_inputs(config)
    mode = config.mode_line()
    summary: dict = {
        "inputs": {"sha256": checksum, "files": files},
        "mode": {
            "deviation_mode": config.deviation_mode.value,
            "priority": [c.value for c in config.priority],
            "alpha": config.alpha,
            "top_k": config.top_k,
            "group_by": config.group_by,
            "attested": config.attested,
        },
        "skipped": [],
    }
    bundle: dict[str, str] = {}

    # per-stratum sentiment statistics, reused by the ANOVA stage below
    count_rows, hist_rows = [], []
    stratum_summaries = []
    class_stats_of: dict[str, dict] = {}
    for stratum in strata:
        lexicon = lexicons.get(stratum.language_code)
        entry = {
            "label": stratum.label,
            "language": stratum.language_code,
            "translation_kind": stratum.translation_kind.value,
            "group_keys": stratum.group_keys,
            "total_word_count": stratum.total_word_count,
        }
        if lexicon is None:
            summary["skipped"].append(
                f"stratum {stratum.label}: no lexicon for {stratum.language_code}")
            stratum_summaries.append(entry)
            continue
        class_stats = class_stats_of[stratum.label] = freq.sentiment_stats(stratum, lexicon)
        per_lemma = freq.tokens_per_lemma(stratum, lexicon)
        entry["classes"] = {}
        for cls in SentimentClass:
            cs = class_stats[cls]
            count_rows.append([
                stratum.label, stratum.language_code, stratum.translation_kind.value,
                cls.value, cs.unique_lemma_count, cs.token_count, cs.mean_tokens_per_lemma])
            for token_count in sorted(per_lemma[cls].histogram):
                hist_rows.append([stratum.label, cls.value, token_count,
                                  per_lemma[cls].histogram[token_count]])
            entry["classes"][cls.value] = {
                "unique_lemma_count": cs.unique_lemma_count,
                "token_count": cs.token_count,
                "mean_tokens_per_lemma": cs.mean_tokens_per_lemma,
            }
        stratum_summaries.append(entry)
    summary["strata"] = stratum_summaries
    bundle["unique_lemmas.csv"] = _table(
        "unique_lemmas", mode, checksum,
        ["stratum", "language", "translation_kind", "class",
         "unique_lemmas", "tokens", "mean_tokens_per_lemma"], count_rows)
    bundle["tokens_per_lemma_hist.csv"] = _table(
        "tokens_per_lemma_hist", mode, checksum,
        ["stratum", "class", "tokens_per_lemma", "lemma_count"], hist_rows)

    # observed-vs-expected deviations
    dev_rows, dev_lemma_rows = [], []
    deviation_summary = []
    for stratum in strata:
        lexicon = lexicons.get(stratum.language_code)
        ref = tables.get(stratum.language_code)
        if lexicon is None or ref is None or stratum.total_word_count == 0:
            continue
        deviations = freq.expected_deviation(stratum, lexicon, ref, config.deviation_mode)
        for cls in SentimentClass:
            dev = deviations[cls]
            dev_rows.append([
                stratum.label, cls.value, dev.mode.value, dev.mean_deviation,
                dev.median_deviation, len(dev.per_lemma), len(dev.uncovered)])
            for lemma in sorted(dev.per_lemma):
                dev_lemma_rows.append([
                    stratum.label, cls.value, lemma, dev.observed_pct[lemma],
                    dev.expected_pct[lemma], dev.per_lemma[lemma], "covered"])
            for lemma in dev.uncovered:
                dev_lemma_rows.append([
                    stratum.label, cls.value, lemma, dev.observed_pct[lemma],
                    None, None, "uncovered"])
            deviation_summary.append({
                "stratum": stratum.label,
                "class": cls.value,
                "mode": dev.mode.value,
                "mean_deviation": dev.mean_deviation,
                "median_deviation": dev.median_deviation,
                "n_covered": len(dev.per_lemma),
                "uncovered": list(dev.uncovered),
            })
    summary["deviations"] = deviation_summary
    bundle["deviation.csv"] = _table(
        "deviation", mode, checksum,
        ["stratum", "class", "mode", "mean_deviation", "median_deviation",
         "covered_lemmas", "uncovered_lemmas"], dev_rows)
    bundle["deviation_lemmas.csv"] = _table(
        "deviation_lemmas", mode, checksum,
        ["stratum", "class", "lemma", "observed_pct", "expected_pct", "value", "status"],
        dev_lemma_rows)

    # ANOVA + Tukey per factor, class, and metric. Grouping-key factors run
    # within one (language, translation kind) slice so a term or summit effect
    # is not confounded with the translation kind; the translation_kind factor
    # itself runs per language.
    anova_rows, tukey_rows = [], []
    anova_summary, tukey_summary = [], []
    factors = list(dict.fromkeys(config.group_by + ["translation_kind"]))
    metric_names = ("unique_lemmas", "mean_tokens_per_lemma")
    for language in sorted(lexicons):
        lang_strata = [s for s in strata if s.language_code == language]
        slices: list[tuple[str, list[CorpusStratum], list[str]]] = [
            ("all", lang_strata, ["translation_kind"])]
        group_factors = [f for f in factors if f != "translation_kind"]
        if group_factors:
            kinds = sorted({s.translation_kind.value for s in lang_strata
                            if s.translation_kind is not None})
            for kind in kinds:
                members = [s for s in lang_strata
                           if s.translation_kind is not None
                           and s.translation_kind.value == kind]
                slices.append((kind, members, group_factors))
        for slice_label, members, slice_factors in slices:
            for factor in slice_factors:
                grouped = _factor_groups(members, factor)
                for cls in SentimentClass:
                    for metric in metric_names:
                        samples = []
                        for value in sorted(grouped):
                            observations = []
                            for member in grouped[value]:
                                cs = class_stats_of[member.label][cls]
                                x = (cs.unique_lemma_count if metric == "unique_lemmas"
                                     else cs.mean_tokens_per_lemma)
                                if x is not None:
                                    observations.append(float(x))
                            if len(observations) >= 2:
                                samples.append(stats.GroupSample(value, tuple(observations)))
                        if len(samples) < 2:
                            summary["skipped"].append(
                                f"anova {language}/{slice_label}/{factor}/{cls.value}/"
                                f"{metric}: needs >= 2 groups with >= 2 values")
                            continue
                        result = stats.one_way_anova(samples)
                        anova_rows.append([
                            language, slice_label, factor, cls.value, metric, len(samples),
                            result.df_between, result.df_within, result.f_stat,
                            result.p_value, result.levene_stat, result.levene_p,
                            result.degenerate])
                        anova_summary.append({
                            "language": language, "slice": slice_label, "factor": factor,
                            "class": cls.value, "metric": metric, "f_stat": result.f_stat,
                            "df_between": result.df_between, "df_within": result.df_within,
                            "p_value": result.p_value, "levene_stat": result.levene_stat,
                            "levene_p": result.levene_p, "degenerate": result.degenerate,
                            "group_means": result.group_means,
                        })
                        tukey = stats.tukey_hsd(samples, config.alpha)
                        for pair in tukey.pairs:
                            tukey_rows.append([
                                language, slice_label, factor, cls.value, metric,
                                pair.a, pair.b, pair.mean_diff, pair.q_stat, pair.p_adj,
                                pair.significant])
                            tukey_summary.append({
                                "language": language, "slice": slice_label,
                                "factor": factor, "class": cls.value, "metric": metric,
                                "a": pair.a, "b": pair.b, "mean_diff": pair.mean_diff,
                                "q_stat": pair.q_stat, "p_adj": pair.p_adj,
                                "significant": pair.significant,
                            })
    summary["anova"] = anova_summary
    summary["tukey"] = tukey_summary
    bundle["anova.csv"] = _table(
        "anova", mode, checksum,
        ["language", "slice", "factor", "class", "metric", "groups", "df_between",
         "df_within", "f_stat", "p_value", "levene_stat", "levene_p", "degenerate"],
        anova_rows)
    bundle["tukey.csv"] = _table(
        "tukey", mode, checksum,
        ["language", "slice", "factor", "class", "metric", "group_a", "group_b",
         "mean_diff", "q_stat", "p_adj", "significant"], tukey_rows)

    # semantic field + vectors over (language, translation kind) merges
    if cmap is not None:
        merged = _merge_by_kind(strata)

        def side_for(language: str) -> Side | None:
            if language == cmap.source_language:
                return Side.SOURCE
            if language == cmap.target_language:
                return Side.TARGET
            return None

        variant_rows, top_rows, width_rows = [], [], []
        profiles_by_label: dict[str, list] = {}
        baseline_label = None
        variant_summary: dict[str, list] = {}
        for (language, kind), stratum in merged.items():
            side = side_for(language)
            if side is None:
                summary["skipped"].append(
                    f"variants {stratum.label}: language {language} not in concept map")
                continue
            profiles = semfield.variant_counts(stratum, cmap, side)
            profiles_by_label[stratum.label] = profiles
            if kind == TranslationKind.SOURCE.value and baseline_label is None:
                baseline_label = stratum.label
            variant_summary[stratum.label] = [{
                "concept_id": p.concept_id, "class": p.sentiment.value,
                "variant_count": p.variant_count, "token_total": p.token_total,
                "variants": sorted(p.attested_variants),
            } for p in profiles]
            for p in profiles:
                variant_rows.append([
                    stratum.label, p.concept_id, p.sentiment.value, p.variant_count,
                    p.token_total, "|".join(sorted(p.attested_variants))])
            for rank, p in enumerate(semfield.top_k_concepts(profiles, config.top_k), 1):
                top_rows.append([
                    stratum.label, rank, p.concept_id, p.sentiment.value,
                    p.variant_count, p.token_total, "|".join(sorted(p.attested_variants))])
        width_summary = []
        if baseline_label is not None:
            baseline = profiles_by_label[baseline_label]
            for label in sorted(profiles_by_label):
                if label == baseline_label:
                    continue
                try:
                    width = semfield.field_width_report(label, profiles_by_label[label],
                                                        baseline)
                except AnalysisError as exc:
                    summary["skipped"].append(f"field width {label}: {exc}")
                    continue
                width_rows.append([
                    label, baseline_label, width.mean_variants_per_concept,
                    width.width_ratio_vs_baseline, "|".join(width.excluded_concepts)])
                width_summary.append({
                    "stratum": label, "baseline": baseline_label,
                    "mean_variants_per_concept": width.mean_variants_per_concept,
                    "width_ratio_vs_baseline": width.width_ratio_vs_baseline,
                    "excluded_concepts": list(width.excluded_concepts),
                })
        else:
            summary["skipped"].append("field width: no source-kind stratum as baseline")
        summary["variants"] = variant_summary
        summary["field_width"] = width_summary
        bundle["variants.csv"] = _table(
            "variants", mode, checksum,
            ["stratum", "concept_id", "class", "variant_count", "token_total",
             "variants_list"], variant_rows)
        bundle["top_concepts.csv"] = _table(
            "top_concepts", mode, checksum,
            ["stratum", "rank", "concept_id", "class", "variant_count", "token_total",
             "variants_list"], top_rows)
        bundle["field_width.csv"] = _table(
            "field_width", mode, checksum,
            ["stratum", "baseline", "mean_variants_per_concept",
             "width_ratio_vs_baseline", "excluded_concepts"], width_rows)

        concept_vectors = []
        for (language, kind), stratum in merged.items():
            side = side_for(language)
            if side is None:
                continue
            try:
                concept_vectors.append(vectors.concept_vector(stratum, cmap, side))
            except AnalysisError as exc:
                raise AnalysisError(f"concept vector for {stratum.label}: {exc}") from exc
        similarity_summary: dict = {}
        cosine_rows, euclid_rows, pca_rows = [], [], []
        labels = [v.stratum_label for v in concept_vectors]
        if len(concept_vectors) >= 2:
            cos_matrix, euc_matrix = {}, {}
            for u in concept_vectors:
                cos_row, euc_row = [u.stratum_label], [u.stratum_label]
                for v in concept_vectors:
                    try:
                        c = vectors.cosine(u, v)
                    except AnalysisError:
                        c = None
                    cos_row.append(c)
                    euc_row.append(vectors.euclidean(u, v))
                cosine_rows.append(cos_row)
                euclid_rows.append(euc_row)
                cos_matrix[u.stratum_label] = cos_row[1:]
                euc_matrix[u.stratum_label] = euc_row[1:]
            similarity_summary = {"labels": labels, "cosine": cos_matrix,
                                  "euclidean": euc_matrix}
            try:
                projection = vectors.pca_2d(concept_vectors)
                for label, (x, y) in zip(projection.labels, projection.coords):
                    pca_rows.append([label, float(x), float(y)])
                summary["pca"] = {
                    "labels": list(projection.labels),
                    "coords": [[float(x), float(y)] for x, y in projection.coords],
                    "explained_variance": list(projection.explained_variance),
                }
                ev_line = (f"# explained_variance: "
                           f"{_fmt(projection.explained_variance[0])},"
                           f"{_fmt(projection.explained_variance[1])}\n")
                bundle["pca.csv"] = _table(
                    "pca", mode, checksum, ["label", "x", "y"], pca_rows) + ev_line
            except AnalysisError as exc:
                summary["skipped"].append(f"pca: {exc}")
        else:
            summary["skipped"].append("similarity: fewer than 2 concept vectors")
        summary["similarity"] = similarity_summary
        bundle["cosine.csv"] = _table(
            "cosine", mode, checksum, ["label"] + labels, cosine_rows)
        bundle["euclidean.csv"] = _table(
            "euclidean", mode, checksum, ["label"] + labels, euclid_rows)

    bundle["summary.json"] = json.dumps(_json_safe(summary), ensure_ascii=False,
                                        indent=2, sort_keys=True) + "\n"
    return bundle


def _json_safe(value):
    """Replace non-finite floats with strings so the summary stays strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def cmd_analyze(config: RunConfig) -> int:
    report = run_validation(config)
    if report.errors:
        for message in report.errors:
            print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        bundle = analyze(config, report)
    except SemdriftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    config.output_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(bundle):
        (config.output_dir / name).write_text(bundle[name], encoding="utf-8")
    print(f"wrote {len(bundle)} files to {config.output_dir}")
    return EXIT_OK


def cmd_synth(config: RunConfig, args) -> int:
    report = ValidationReport()
    lexicons = _load_lexicons(config, report)
    cmap = _load_concept_map(config, lexicons, report)
    if cmap is None:
        report.error("synth requires a concept_map")
    target_lang = config.target_language
    ref = None
    if target_lang and target_lang in config.frequency_tables:
        try:
            ref = FrequencyTable.load(config.frequency_tables[target_lang], target_lang)
        except SemdriftError as exc:
            report.error(f"frequency table {target_lang}: {exc}")
    options = config.synth_options
    words = args.words if args.words is not None else int(options.get("words", 10_000))
    seed = args.seed if args.seed is not None else int(options.get("seed", 0))
    density = float(options.get("concept_density", 0.2))
    filler_size = int(options.get("filler_size", 200))
    try:
        kind = ChannelKind(args.kind if args.kind else options.get("kind", "machine"))
        factor = args.factor if args.factor is not None else options.get("factor")
        if factor is None:
            factor = (synth.DEFAULT_MACHINE_FACTOR if kind is ChannelKind.MACHINE
                      else synth.DEFAULT_HUMAN_FACTOR)
        pull = args.pull if args.pull is not None else float(options.get("norm_pull", 0.0))
        inflation = (args.inflation if args.inflation is not None
                     else float(options.get("length_inflation", synth.DEFAULT_LENGTH_INFLATION)))
        params = ChannelParams(kind, float(factor), norm_pull=pull,
                               length_inflation=inflation, seed=seed)
    except (ValueError, ValidationError) as exc:
        report.error(f"channel parameters: {exc}")
        params = None
    if ref is None and params is not None:
        report.error(f"synth requires a frequency table for the target language "
                     f"({target_lang!r})")
    budget = options.get("concept_budget") or {}
    if cmap is not None:
        if not budget:
            budget = {cid: 1.0 for cid in cmap.concepts}
        unknown = sorted(set(budget) - set(cmap.concepts))
        if unknown:
            report.error(f"synth concept_budget: unknown concept id {unknown[0]!r}")
    if report.errors:
        for message in report.errors:
            print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        source = synth.generate_source(cmap, words, budget, seed,
                                       concept_density=density, filler_size=filler_size)
        translated = synth.apply_channel(source, cmap, params, ref)
        out_dir = config.output_dir if args.output_dir is None else Path(args.output_dir)
        manifest_path = ingest.save_corpus([source, translated], out_dir)
        params_blob = {
            "kind": params.kind.value,
            "narrow_widen_factor": params.narrow_widen_factor,
            "norm_pull": params.norm_pull,
            "length_inflation": params.length_inflation,
            "seed": params.seed,
            "words": words,
            "concept_density": density,
            "filler_size": filler_size,
        }
        (out_dir / "channel_params.json").write_text(
            json.dumps(params_blob, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except SemdriftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    print(f"wrote corpus manifest {manifest_path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semdrift",
        description="Sentiment and semantic-field shift analytics for translated corpora")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON run configuration")

    sub.add_parser("validate", parents=[common],
                   help="check lexicons, concept map, tables, and manifest")

    p_analyze = sub.add_parser("analyze", parents=[common],
                               help="run the full analysis and write the report bundle")
    p_analyze.add_argument("--output-dir", help="override the configured output directory")
    p_analyze.add_argument("--deviation-mode", choices=[m.value for m in DeviationMode])
    p_analyze.add_argument("--alpha", type=float)
    p_analyze.add_argument("--top-k", type=int)

    p_synth = sub.add_parser("synth", parents=[common],
                             help="generate a synthetic source corpus and channel output")
    p_synth.add_argument("--kind", choices=[k.value for k in ChannelKind])
    p_synth.add_argument("--words", type=int)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--factor", type=float,
                         help="expected attested-variant ratio, output over source")
    p_synth.add_argument("--pull", type=float,
                         help="per-token probability of resampling from the reference")
    p_synth.add_argument("--inflation", type=float, help="output/input word-count ratio")
    p_synth.add_argument("--output-dir")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides: dict = {}
    if getattr(args, "output_dir", None):
        overrides["output_dir"] = args.output_dir
    if getattr(args, "deviation_mode", None):
        overrides["deviation_mode"] = args.deviation_mode
    if getattr(args, "alpha", None) is not None:
        overrides["alpha"] = args.alpha
    if getattr(args, "top_k", None) is not None:
        overrides["top_k"] = args.top_k
    try:
        config = load_config(args.config, overrides)
    except SemdriftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "validate":
        return cmd_validate(config)
    if args.command == "analyze":
        return cmd_analyze(config)
    return cmd_synth(config, args)


if __name__ == "__main__":
    sys.exit(main())
