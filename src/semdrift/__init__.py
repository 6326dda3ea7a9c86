"""semdrift: sentiment and semantic-field shift analytics for translated corpora.

Each export is imported from its module on first access (PEP 562), so
`import semdrift` loads no module. Each command loads only the modules it runs:
every command loads `cli`, `errors`, `inputs` and `lexicon`, which are all that the
resource loading of `cli.load_config` and `cli.run_validation` compiles; `validate` adds
`ingest` and `chunks` (which `ingest` imports where it counts a text); `synth` adds
`ingest` and `synth`; and `analyze` adds `ingest`, `chunks`, `freq`, `report`,
`semfield`, `stats` and `vectors` (`cli.main` imports the modules of the command it runs
before it reads its config, `cli.run_validation` imports `ingest` only to read a
corpus, and `report` imports the analysis modules at its top). `tests/test_imports.py`
pins each set.

Importing the package changes nothing process-wide: the one process entry, `cli.run`
(both `python -m semdrift.cli` and the `semdrift` console script), is what turns the
cyclic garbage collector off.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("AnalysisError", "DegenerateVarianceWarning", "IngestError", "SemdriftError",
               "ValidationError"),
    "freq": ("ClassDeviation", "ClassFrequencyStats", "TokensPerLemma", "expected_deviation",
             "sentiment_stats", "tokens_per_lemma"),
    "ingest": ("DEFAULT_PROFILES", "CorpusStratum", "Document", "LangProfile", "LemmaDict",
               "default_profile", "lemmatize", "load_corpus", "save_corpus", "tokenize"),
    "inputs": ("ChannelKind", "DeviationMode", "FrequencyTable", "TranslationKind"),
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

