"""semdrift: sentiment and semantic-field shift analytics for translated corpora.

Each export is imported from its module on first access (PEP 562), so
`import semdrift` loads no module. Each command loads only the modules it runs:
every command loads `cli`, `errors`, `freq`, `ingest` and `lexicon`; `validate` adds
`chunks`, which `ingest` imports where it counts a text; `synth` adds `synth`; and
`analyze` adds `chunks`, `report`, `semfield`, `stats` and `vectors` (`cli` imports
`synth` and `report` where it calls them, `report` the other three at its top).
`tests/test_imports.py` pins each set.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("AnalysisError", "DegenerateVarianceWarning", "IngestError", "SemdriftError",
               "ValidationError"),
    "freq": ("ClassDeviation", "ClassFrequencyStats", "DeviationMode", "FrequencyTable",
             "TokensPerLemma", "expected_deviation", "sentiment_stats", "tokens_per_lemma"),
    "ingest": ("DEFAULT_PROFILES", "ChannelKind", "CorpusStratum", "Document", "LangProfile",
               "LemmaDict", "TranslationKind", "default_profile", "lemmatize", "load_corpus",
               "save_corpus", "tokenize"),
    "lexicon": ("DEFAULT_PRIORITY", "Concept", "ConceptMap", "RawLexiconEntry",
                "SentimentClass", "SentimentLexicon", "Side", "find_conflicts",
                "load_concept_map", "load_lexicon_sources", "merge_disjoint"),
    "semfield": ("FieldWidthReport", "VariantProfile", "field_width_index",
                 "field_width_report", "top_k_concepts", "variant_counts"),
    "stats": ("AnovaResult", "GroupSample", "PairComparison", "TukeyResult", "f_cdf",
              "one_way_anova", "studentized_range_cdf", "tukey_hsd"),
    "synth": ("ChannelParams", "apply_channel", "filler_vocab", "generate_source"),
    "vectors": ("ConceptVector", "Projection2D", "concept_vector", "cosine", "euclidean",
                "pca_2d"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
