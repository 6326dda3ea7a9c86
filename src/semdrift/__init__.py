"""semdrift: sentiment and semantic-field shift analytics for translated corpora."""

from .errors import (AnalysisError, DegenerateVarianceWarning, IngestError, SemdriftError,
                     ValidationError)
from .freq import (ClassDeviation, ClassFrequencyStats, DeviationMode, FrequencyTable,
                   TokensPerLemma, expected_deviation, sentiment_stats, tokens_per_lemma)
from .ingest import (DEFAULT_PROFILES, CorpusStratum, Document, LangProfile, LemmaDict,
                     TranslationKind, default_profile, lemmatize, load_corpus, save_corpus,
                     tokenize)
from .lexicon import (DEFAULT_PRIORITY, Concept, ConceptMap, RawLexiconEntry, SentimentClass,
                      SentimentLexicon, Side, find_conflicts, load_concept_map,
                      load_lexicon_sources, merge_disjoint)
from .semfield import (FieldWidthReport, VariantProfile, field_width_index,
                       field_width_report, top_k_concepts, variant_counts)
from .stats import (AnovaResult, GroupSample, PairComparison, TukeyResult, f_cdf,
                    one_way_anova, studentized_range_cdf, tukey_hsd)
from .synth import (ChannelKind, ChannelParams, apply_channel, filler_vocab,
                    generate_source)
from .vectors import (ConceptVector, Projection2D, concept_vector, cosine, euclidean,
                      pca_2d)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError", "AnovaResult", "ChannelKind", "ChannelParams", "ClassDeviation",
    "ClassFrequencyStats", "Concept", "ConceptMap", "ConceptVector", "CorpusStratum",
    "DEFAULT_PRIORITY", "DEFAULT_PROFILES", "DegenerateVarianceWarning", "DeviationMode",
    "Document", "FieldWidthReport", "FrequencyTable", "GroupSample", "IngestError",
    "LangProfile", "LemmaDict", "PairComparison", "Projection2D", "RawLexiconEntry",
    "SemdriftError", "SentimentClass", "SentimentLexicon", "Side", "TokensPerLemma",
    "TranslationKind", "TukeyResult", "ValidationError", "VariantProfile", "apply_channel",
    "concept_vector", "cosine", "default_profile", "euclidean", "expected_deviation",
    "f_cdf", "field_width_index", "field_width_report", "filler_vocab", "find_conflicts",
    "generate_source", "lemmatize", "load_concept_map", "load_corpus",
    "load_lexicon_sources", "merge_disjoint", "one_way_anova", "pca_2d", "save_corpus",
    "sentiment_stats", "studentized_range_cdf", "tokenize", "tokens_per_lemma",
    "top_k_concepts", "tukey_hsd", "variant_counts",
]
