"""Semantic-field width: how many synonym variants of each concept a stratum uses.

A width ratio below 1 against a baseline stratum signals narrowing (fewer
variants carrying the same concepts); above 1 signals widening.
"""

from .errors import AnalysisError, FrozenRecord, ValidationError
from .ingest import CorpusStratum, Lemma
from .lexicon import ConceptMap, SentimentClass, Side


class VariantProfile(FrozenRecord):
    """Attested variants and token total of one concept in one stratum."""

    def __init__(self, concept_id: str, sentiment: SentimentClass,
                 attested_variants: frozenset[Lemma], token_total: int):
        self.__dict__.update(concept_id=concept_id, sentiment=sentiment,
                             attested_variants=attested_variants, token_total=token_total)

    @property
    def variant_count(self) -> int:
        return len(self.attested_variants)


def variant_counts(stratum: CorpusStratum, cmap: ConceptMap,
                   side: Side) -> list[VariantProfile]:
    """Profile every concept against the stratum, including unattested ones."""
    cmap.check_language(stratum.language_code, side)
    counts = stratum.lemma_counts()
    profiles = []
    for cid in sorted(cmap.concepts):
        concept = cmap.concepts[cid]
        lemmas = concept.lemmas(side)
        attested = frozenset(lem for lem in lemmas if counts[lem] > 0)
        token_total = sum(counts[lem] for lem in lemmas)
        profiles.append(VariantProfile(cid, concept.sentiment, attested, token_total))
    return profiles


def top_k_concepts(profiles: list[VariantProfile], k: int) -> list[VariantProfile]:
    """The k concepts with the highest token totals; ties break on concept id."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    ranked = sorted(profiles, key=lambda p: (-p.token_total, p.concept_id))
    return ranked[:k]


def field_width_index(test: list[VariantProfile],
                      baseline: list[VariantProfile]) -> float:
    """Ratio of mean attested variants per concept, test over baseline.

    Only concepts attested in the baseline enter the means, so the ratio is
    defined concept-for-concept. Values below 1 signal a narrower field.
    """
    test_by_id = {p.concept_id: p for p in test}
    if set(test_by_id) != {p.concept_id for p in baseline}:
        raise ValidationError("profiles cover different concept sets")
    anchored = [p for p in baseline if p.variant_count > 0]
    if not anchored:
        raise AnalysisError("empty baseline field")
    mean_baseline = sum(p.variant_count for p in anchored) / len(anchored)
    mean_test = sum(test_by_id[p.concept_id].variant_count for p in anchored) / len(anchored)
    return mean_test / mean_baseline


class FieldWidthReport(FrozenRecord):
    """Width summary for one stratum relative to a baseline."""

    def __init__(self, mean_variants_per_concept: float | None, width_ratio_vs_baseline: float,
                 excluded_concepts: tuple[str, ...]):
        self.__dict__.update(mean_variants_per_concept=mean_variants_per_concept,
                             width_ratio_vs_baseline=width_ratio_vs_baseline,
                             excluded_concepts=excluded_concepts)


def field_width_report(test: list[VariantProfile],
                       baseline: list[VariantProfile]) -> FieldWidthReport:
    """Bundle the width index with the mean attested variants and exclusions.

    `excluded_concepts` lists concepts the test stratum attests but the
    baseline does not; they cannot enter the ratio.
    """
    ratio = field_width_index(test, baseline)
    attested = [p for p in test if p.variant_count > 0]
    mean_variants = sum(p.variant_count for p in attested) / len(attested) if attested else None
    baseline_attested = {p.concept_id for p in baseline if p.variant_count > 0}
    excluded = tuple(sorted(
        p.concept_id for p in attested if p.concept_id not in baseline_attested))
    return FieldWidthReport(mean_variants, ratio, excluded)
