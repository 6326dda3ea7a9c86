import pytest
from hypothesis import given
from hypothesis import strategies as st

from semdrift import (ChannelParams, SentimentClass, Side, VariantProfile, field_width_index,
                      field_width_report, generate_source, apply_channel, top_k_concepts,
                      variant_counts)
from semdrift.errors import AnalysisError, ValidationError
from semdrift.ingest import CorpusStratum, Document
from semdrift.inputs import TranslationKind

from helpers import fixture_concept_map, make_stratum, reference_table_en

EPI = SentimentClass.EPISTEMIC


def profile(cid, count_variants, tokens, cls=EPI):
    variants = frozenset(f"{cid}{i}" for i in range(count_variants))
    return VariantProfile(cid, cls, variants, tokens)


class TestVariantCounts:
    def test_membership_and_token_total(self):
        cmap = fixture_concept_map()
        stratum = make_stratum(["say"] * 5 + ["tell"] + ["other"] * 4, language="en")
        profiles = {p.concept_id: p for p in variant_counts(stratum, cmap, Side.TARGET)}
        assert profiles["say"].attested_variants == frozenset({"say", "tell"})
        assert profiles["say"].variant_count == 2
        assert profiles["say"].token_total == 6

    def test_empty_stratum_lists_all_concepts_at_zero(self):
        cmap = fixture_concept_map()
        profiles = variant_counts(make_stratum([], language="en"), cmap, Side.TARGET)
        assert len(profiles) == len(cmap.concepts)
        assert all(p.variant_count == 0 and p.token_total == 0 for p in profiles)

    def test_side_language_mismatch(self):
        cmap = fixture_concept_map()
        with pytest.raises(ValidationError, match="language mismatch"):
            variant_counts(make_stratum(["say"], language="en"), cmap, Side.SOURCE)

    def test_attested_subset_of_concept_lemmas(self):
        cmap = fixture_concept_map()
        stratum = make_stratum(["say", "tell", "good", "junk"], language="en")
        for p in variant_counts(stratum, cmap, Side.TARGET):
            assert p.attested_variants <= set(cmap.concepts[p.concept_id].target_lemmas)

    def test_adding_documents_never_decreases_counts(self):
        cmap = fixture_concept_map()
        base_doc = Document.from_lemmas("a", ("say", "good"))
        more_doc = Document.from_lemmas("b", ("tell", "believe", "bad"))
        small = CorpusStratum("en", TranslationKind.HUMAN, {}, [base_doc])
        grown = CorpusStratum("en", TranslationKind.HUMAN, {}, [base_doc, more_doc])
        small_counts = {p.concept_id: p.variant_count
                        for p in variant_counts(small, cmap, Side.TARGET)}
        grown_counts = {p.concept_id: p.variant_count
                        for p in variant_counts(grown, cmap, Side.TARGET)}
        for cid in small_counts:
            assert grown_counts[cid] >= small_counts[cid]

    def test_machine_channel_never_widens_any_concept(self):
        # hard-cap property: holds for every concept and every seed
        cmap = fixture_concept_map()
        ref = reference_table_en()
        budget = {cid: 1.0 for cid in cmap.concepts}
        for seed in range(10):
            source = generate_source(cmap, 8_000, budget, seed)
            out = apply_channel(
                source, cmap,
                ChannelParams.machine(seed=seed, norm_pull=0.3), ref)
            src = {p.concept_id: p.variant_count
                   for p in variant_counts(source, cmap, Side.SOURCE)}
            dst = {p.concept_id: p.variant_count
                   for p in variant_counts(out, cmap, Side.TARGET)}
            for cid in src:
                assert dst[cid] <= src[cid], (seed, cid)


class TestTopK:
    def test_basic_ranking(self):
        profiles = [profile(f"c{i}", 1, tokens=i) for i in range(10)]
        top = top_k_concepts(profiles, 5)
        assert [p.concept_id for p in top] == ["c9", "c8", "c7", "c6", "c5"]

    def test_tie_broken_lexicographically(self):
        profiles = [profile("zulu", 1, 7), profile("alpha", 1, 7), profile("mid", 1, 9)]
        top = top_k_concepts(profiles, 3)
        assert [p.concept_id for p in top] == ["mid", "alpha", "zulu"]

    def test_k_larger_than_available(self):
        profiles = [profile("a", 1, 1)]
        assert len(top_k_concepts(profiles, 10)) == 1

    def test_k_below_one_rejected(self):
        with pytest.raises(ValidationError, match="k must be >= 1"):
            top_k_concepts([], 0)

    @given(st.permutations(range(6)))
    def test_deterministic_total_order(self, order):
        base = [profile("a", 1, 7), profile("b", 1, 7), profile("c", 1, 3),
                profile("d", 1, 9), profile("e", 1, 0), profile("f", 1, 7)]
        permuted = [base[i] for i in order]
        assert top_k_concepts(permuted, 6) == top_k_concepts(base, 6)


class TestFieldWidthIndex:
    def test_identity_is_exactly_one(self):
        profiles = [profile("a", 3, 9), profile("b", 2, 4), profile("c", 0, 0)]
        assert field_width_index(profiles, profiles) == 1.0

    def test_collapse_arithmetic(self):
        baseline = [profile("a", 2, 5), profile("b", 3, 5), profile("c", 2, 5),
                    profile("d", 3, 5)]  # mean 2.5
        collapsed = [profile("a", 1, 5), profile("b", 1, 5), profile("c", 1, 5),
                     profile("d", 1, 5)]
        assert field_width_index(collapsed, baseline) == pytest.approx(0.4)

    def test_empty_baseline_errors(self):
        baseline = [profile("a", 0, 0)]
        test = [profile("a", 2, 4)]
        with pytest.raises(AnalysisError, match="empty baseline field"):
            field_width_index(test, baseline)

    def test_mismatched_concepts_rejected(self):
        with pytest.raises(ValidationError, match="different concept sets"):
            field_width_index([profile("a", 1, 1)], [profile("b", 1, 1)])

    def test_widening_channel_direction(self):
        cmap = fixture_concept_map()
        ref = reference_table_en()
        budget = {cid: 1.0 for cid in cmap.concepts}
        above = 0
        for seed in range(10):
            source = generate_source(cmap, 20_000, budget, seed)
            out = apply_channel(source, cmap, ChannelParams.human(seed=seed), ref)
            index = field_width_index(
                variant_counts(out, cmap, Side.TARGET),
                variant_counts(source, cmap, Side.SOURCE))
            if index > 1.0:
                above += 1
        assert above >= 9

    def test_report_lists_excluded_concepts(self):
        baseline = [profile("a", 2, 5), profile("b", 0, 0)]
        test = [profile("a", 1, 5), profile("b", 2, 3)]
        report = field_width_report(test, baseline)
        assert report.excluded_concepts == ("b",)
        assert report.width_ratio_vs_baseline == pytest.approx(0.5)
        assert report.mean_variants_per_concept == pytest.approx(1.5)

    def test_top_machine_concepts_compared_across_versions(self):
        # rank the machine translation's heaviest concepts, then compare their
        # variant counts across all three text versions of the fixture corpus
        from semdrift import CorpusStratum, TranslationKind, load_corpus
        from semdrift.ingest import group_strata

        from helpers import DATA

        cmap = fixture_concept_map()
        strata = load_corpus(DATA / "manifest.json")
        merged = {kind: CorpusStratum(language, TranslationKind(kind), {},
                                      [d for m in members for d in m.documents])
                  for (language, kind), members in group_strata(
                      strata, ("language", "translation_kind")).items()}
        machine = {p.concept_id: p
                   for p in variant_counts(merged["machine"], cmap, Side.TARGET)}
        human = {p.concept_id: p for p in variant_counts(merged["human"], cmap, Side.TARGET)}
        source = {p.concept_id: p
                  for p in variant_counts(merged["source"], cmap, Side.SOURCE)}
        top = top_k_concepts(list(machine.values()), 5)
        assert len(top) == 5
        for p in top:
            assert human[p.concept_id].variant_count >= p.variant_count
            assert source[p.concept_id].variant_count >= p.variant_count
