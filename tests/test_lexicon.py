import random
import re
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semdrift import (RawLexiconEntry, SentimentClass, SentimentLexicon, Side,
                      find_conflicts, load_concept_map, load_lexicon_sources, merge_disjoint)
from semdrift.errors import ValidationError

from helpers import DATA, fixture_concept_map, fixture_lexicons

POS, NEG, EPI = SentimentClass.POSITIVE, SentimentClass.NEGATIVE, SentimentClass.EPISTEMIC


class TestLoadSources:
    def test_duplicates_preserved_across_files(self, tmp_path):
        (tmp_path / "one.tsv").write_text("good\tpositive\n", encoding="utf-8")
        (tmp_path / "two.tsv").write_text("good\tpositive\n", encoding="utf-8")
        raws = load_lexicon_sources([tmp_path / "one.tsv", tmp_path / "two.tsv"], "en")
        assert len(raws) == 2
        assert {r.source for r in raws} == {"one", "two"}

    def test_unknown_class_names_line(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("good\tpositive\nmeh\tneutral\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="unknown class 'neutral' at line 2"):
            load_lexicon_sources([p], "en")

    def test_malformed_line_names_location(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("good positive\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"bad.tsv:1"):
            load_lexicon_sources([p], "en")

    def test_decomposed_lemma_is_normalized(self, tmp_path):
        p = tmp_path / "nfd.tsv"
        p.write_text(unicodedata.normalize("NFD", "хороший\tpositive\n"), encoding="utf-8")
        assert [r.lemma for r in load_lexicon_sources([p], "ru")] == ["хороший"]

    def test_entry_count_matches_data_lines(self, tmp_path):
        files = []
        for i, n in enumerate((20, 15, 15)):
            p = tmp_path / f"f{i}.tsv"
            p.write_text("# comment\n" + "".join(
                f"word{i}x{j}\tpositive\n" for j in range(n)), encoding="utf-8")
            files.append(p)
        assert len(load_lexicon_sources(files, "en")) == 50


class TestMergeDisjoint:
    def test_priority_assigns_conflicted_lemma(self):
        raws = [RawLexiconEntry("fair", POS, "a"), RawLexiconEntry("fair", EPI, "b")]
        merged = merge_disjoint(raws, (EPI, NEG, POS), language_code="en")
        assert "fair" in merged.lists[EPI]
        assert "fair" not in merged.lists[POS]

    def test_disjoint_inputs_unchanged_by_priority(self):
        raws = [RawLexiconEntry("good", POS, "a"), RawLexiconEntry("bad", NEG, "a"),
                RawLexiconEntry("say", EPI, "a")]
        for priority in [(EPI, NEG, POS), (POS, EPI, NEG), (NEG, POS, EPI)]:
            merged = merge_disjoint(raws, priority, language_code="en")
            assert merged.lists[POS] == {"good"}
            assert merged.lists[NEG] == {"bad"}
            assert merged.lists[EPI] == {"say"}

    def test_empty_input(self):
        merged = merge_disjoint([], language_code="en")
        assert all(not lemmas for lemmas in merged.lists.values())

    def test_provenance_keeps_losing_sources(self):
        raws = [RawLexiconEntry("fine", POS, "core"), RawLexiconEntry("fine", NEG, "extra")]
        merged = merge_disjoint(raws, language_code="en")
        assert merged.provenance["fine"] == ("core", "extra")

    def test_fixture_conflicts_resolved_by_set_arithmetic(self):
        # independent oracle: recompute each class as claims minus higher-priority claims
        paths = [DATA / "lexicons/lex_en_core.tsv", DATA / "lexicons/lex_en_extra.tsv"]
        raws = load_lexicon_sources(paths, "en")
        conflicts = find_conflicts(raws)
        assert len(conflicts) >= 5
        claims = {cls: {r.lemma for r in raws if r.sentiment is cls}
                  for cls in SentimentClass}
        priority = (EPI, NEG, POS)
        expected = {}
        taken: set[str] = set()
        for cls in priority:
            expected[cls] = claims[cls] - taken
            taken |= claims[cls]
        merged = merge_disjoint(raws, priority, language_code="en")
        for cls in SentimentClass:
            assert merged.lists[cls] == expected[cls]
        # each engineered conflict follows the priority exactly
        for lemma, claimed in conflicts.items():
            winner = next(c for c in priority if c in claimed)
            assert lemma in merged.lists[winner]

    @given(st.lists(st.tuples(st.sampled_from("abcdefgh"),
                              st.sampled_from(list(SentimentClass))), max_size=30),
           st.permutations(list(SentimentClass)))
    def test_each_lemma_goes_to_its_highest_priority_claim(self, pairs, priority):
        # oracle: every lemma's claim set, resolved by the first claimed class in priority
        raws = [RawLexiconEntry(lemma, cls, "s") for lemma, cls in pairs]
        claims: dict[str, set] = {}
        for lemma, cls in pairs:
            claims.setdefault(lemma, set()).add(cls)
        merged = merge_disjoint(raws, tuple(priority), language_code="en")
        for lemma, claimed in claims.items():
            assert merged.class_of(lemma) is next(c for c in priority if c in claimed)
        assert merged.class_of("z") is None

    @given(st.fixed_dictionaries({cls: st.frozensets(st.sampled_from("abcdef"))
                                  for cls in SentimentClass}))
    def test_class_of_and_overlap_message_match_the_pairwise_rule(self, lists):
        # oracle: the first overlapping pair of lists in class order names its least lemma
        classes = list(SentimentClass)
        overlaps = [(a, b, lists[a] & lists[b]) for i, a in enumerate(classes)
                    for b in classes[i + 1:] if lists[a] & lists[b]]
        if overlaps:
            a, b, overlap = overlaps[0]
            with pytest.raises(ValidationError) as info:
                SentimentLexicon("en", lists)
            assert str(info.value) == (f"lexicon lists not disjoint: {min(overlap)!r} in "
                                       f"both {a.value} and {b.value}")
            return
        lexicon = SentimentLexicon("en", lists)
        for lemma in "abcdefg":
            assert lexicon.class_of(lemma) is next(
                (cls for cls in classes if lemma in lists[cls]), None)

    @given(st.fixed_dictionaries({cls: st.frozensets(st.sampled_from("abcdef"))
                                  for cls in SentimentClass}),
           st.dictionaries(st.sampled_from("abcdefg"), st.integers(1, 9)))
    def test_split_by_class_is_class_of_per_lemma_in_order(self, lists, counts):
        try:
            lexicon = SentimentLexicon("en", lists)
        except ValidationError:
            return
        expected = {cls: {lemma: n for lemma, n in counts.items()
                          if lexicon.class_of(lemma) is cls} for cls in SentimentClass}
        split = lexicon.split_by_class(counts)
        assert split == expected
        assert all(list(split[cls]) == list(expected[cls]) for cls in SentimentClass)

    def test_pairwise_disjoint_enforced(self):
        with pytest.raises(ValidationError, match="not disjoint"):
            SentimentLexicon("en", {POS: frozenset({"x"}), NEG: frozenset({"x"}),
                                    EPI: frozenset()})

    def test_invalid_priority(self):
        with pytest.raises(ValidationError, match="permutation"):
            merge_disjoint([], (EPI, EPI, POS))

    @given(st.randoms(use_true_random=False))
    def test_order_invariance(self, rnd):
        raws = [RawLexiconEntry("a", POS, "s1"), RawLexiconEntry("a", EPI, "s2"),
                RawLexiconEntry("b", NEG, "s1"), RawLexiconEntry("b", POS, "s3"),
                RawLexiconEntry("c", EPI, "s1"), RawLexiconEntry("d", NEG, "s2")]
        shuffled = raws[:]
        rnd.shuffle(shuffled)
        base = merge_disjoint(raws, language_code="en")
        other = merge_disjoint(shuffled, language_code="en")
        assert base.lists == other.lists
        assert base.provenance == other.provenance

    @given(st.lists(st.tuples(st.sampled_from("abcdefgh"),
                              st.sampled_from(list(SentimentClass))), max_size=30))
    def test_conservation(self, pairs):
        raws = [RawLexiconEntry(lemma, cls, "s") for lemma, cls in pairs]
        merged = merge_disjoint(raws, language_code="en")
        union = set()
        for members in merged.lists.values():
            union |= members
        assert union == {lemma for lemma, _ in pairs}


class TestConceptMap:
    @pytest.mark.parametrize("side", list(Side))
    def test_side_spelled_as_its_value_is_the_member(self, side):
        cmap = fixture_concept_map()
        say = cmap.concepts["say"]
        assert say.lemmas(side.value) == say.lemmas(side)
        assert cmap.lemmas(side.value) == cmap.lemmas(side)
        language = cmap.source_language if side is Side.SOURCE else cmap.target_language
        cmap.check_language(language, side.value)

    @pytest.mark.parametrize("side", ["src", None])
    def test_unknown_side_names_the_allowed_values(self, side):
        cmap = fixture_concept_map()
        message = re.escape(f"side must be one of 'source', 'target', got {side!r}")
        for call in (lambda: cmap.concepts["say"].lemmas(side), lambda: cmap.lemmas(side),
                     lambda: cmap.check_language("ru", side)):
            with pytest.raises(ValidationError, match=message):
                call()

    def test_fixture_loads_with_expected_variants(self):
        ru, en = fixture_lexicons()
        cmap = load_concept_map(DATA / "concepts.tsv", ru, en)
        assert len(cmap.concepts) == 9
        say = cmap.concepts["say"]
        assert say.sentiment is EPI
        assert say.source_lemmas == ("сказать", "говорить", "молвить")
        assert len(say.target_lemmas) == 6
        assert cmap.source_language == "ru" and cmap.target_language == "en"

    def test_decomposed_lemmas_are_normalized(self, tmp_path):
        ru, en = fixture_lexicons()
        p = tmp_path / "c.tsv"
        p.write_text(unicodedata.normalize("NFD", "good\tpositive\tхороший,добрый\tgood\n"),
                     encoding="utf-8")
        assert load_concept_map(p, ru, en).concepts["good"].source_lemmas == \
            ("хороший", "добрый")

    def test_list_items_are_stripped_and_empty_ones_skipped(self, tmp_path):
        ru, en = fixture_lexicons()
        p = tmp_path / "c.tsv"
        p.write_text("say\tepistemic\tсказать, говорить\tsay ,, tell,\n", encoding="utf-8")
        say = load_concept_map(p, ru, en).concepts["say"]
        assert say.source_lemmas == ("сказать", "говорить")
        assert say.target_lemmas == ("say", "tell")

    def test_absent_lemma_names_side(self, tmp_path):
        ru, en = fixture_lexicons()
        p = tmp_path / "c.tsv"
        p.write_text("say\tepistemic\tсказать\tsay,tel\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="'tel' on the target side is absent"):
            load_concept_map(p, ru, en)

    def test_class_mismatch_rejected(self, tmp_path):
        ru, en = fixture_lexicons()
        p = tmp_path / "c.tsv"
        p.write_text("say\tpositive\tхороший\tsay\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="is epistemic .* but concept 'say'"):
            load_concept_map(p, ru, en)

    def test_empty_file_yields_empty_map(self, tmp_path):
        ru, en = fixture_lexicons()
        p = tmp_path / "c.tsv"
        p.write_text("# nothing here\n", encoding="utf-8")
        cmap = load_concept_map(p, ru, en)
        assert cmap.concepts == {}

    def test_lemma_in_two_concepts_rejected(self, tmp_path):
        ru, en = fixture_lexicons()
        p = tmp_path / "c.tsv"
        p.write_text("say\tepistemic\tсказать\tsay\n"
                     "talk\tepistemic\tговорить\tsay\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="appears in two concepts"):
            load_concept_map(p, ru, en)

    def test_duplicate_concept_id_rejected(self, tmp_path):
        ru, en = fixture_lexicons()
        p = tmp_path / "c.tsv"
        p.write_text("say\tepistemic\tсказать\tsay\n"
                     "say\tepistemic\tговорить\ttell\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="duplicate concept id"):
            load_concept_map(p, ru, en)
