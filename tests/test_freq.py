import math
import re
import statistics
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semdrift import (DeviationMode, FrequencyTable, SentimentClass, SentimentLexicon,
                      expected_deviation, sentiment_stats, tokens_per_lemma)
from semdrift.errors import ValidationError
from semdrift.freq import _median

from helpers import count_class_of, make_stratum

POS, NEG, EPI = SentimentClass.POSITIVE, SentimentClass.NEGATIVE, SentimentClass.EPISTEMIC


def tiny_lexicon(language="en") -> SentimentLexicon:
    return SentimentLexicon(language, {
        POS: frozenset({"good", "great"}),
        NEG: frozenset({"bad"}),
        EPI: frozenset({"say", "tell"}),
    })


def unique_counts(stratum, lexicon):
    return {cls: row.unique_lemma_count
            for cls, row in sentiment_stats(stratum, lexicon).items()}


def observed_pct(stratum, lexicon):
    """Observed percent of every attested lexicon lemma, over all classes."""
    return {lem: pct for row in sentiment_stats(stratum, lexicon).values()
            for lem, pct in row.observed_freq_pct.items()}


class TestUniqueLemmaCounts:
    def test_distinctness(self):
        stratum = make_stratum(["good", "good", "bad", "say"])
        counts = unique_counts(stratum, tiny_lexicon())
        assert counts == {POS: 1, NEG: 1, EPI: 1}

    def test_empty_stratum(self):
        counts = unique_counts(make_stratum([]), tiny_lexicon())
        assert counts == {POS: 0, NEG: 0, EPI: 0}

    def test_language_mismatch(self):
        with pytest.raises(ValidationError, match="language mismatch"):
            sentiment_stats(make_stratum(["good"], language="ru"), tiny_lexicon())

    def test_monotone_under_union(self):
        a = make_stratum(["good", "say"])
        b = make_stratum(["great", "say", "bad"], doc_id="doc-2")
        both = make_stratum(["good", "say", "great", "say", "bad"], doc_id="doc-3")
        ca, cb, cu = (unique_counts(s, tiny_lexicon()) for s in (a, b, both))
        for cls in SentimentClass:
            assert max(ca[cls], cb[cls]) <= cu[cls] <= ca[cls] + cb[cls]


class TestObservedFrequency:
    def test_direct_count(self):
        stratum = make_stratum(["good"] * 2 + ["x"] * 98)
        assert observed_pct(stratum, tiny_lexicon()) == {"good": pytest.approx(2.0)}

    def test_absent_lemma(self):
        assert observed_pct(make_stratum(["x"]), tiny_lexicon()) == {}

    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=300))
    def test_frequencies_sum_to_100(self, lemmas):
        lexicon = SentimentLexicon("en", {POS: frozenset("ab"), NEG: frozenset("c"),
                                          EPI: frozenset("de")})
        total = sum(observed_pct(make_stratum(lemmas), lexicon).values())
        assert total == pytest.approx(100.0, abs=1e-9)

    def test_brute_force_recount_on_fixture(self):
        rng = np.random.default_rng(7)
        vocab = ["good", "great", "bad", "say", "tell", "walk", "run"]
        lemmas = list(rng.choice(vocab, 1000))
        observed = observed_pct(make_stratum(lemmas), tiny_lexicon())
        counter = Counter(lemmas)
        assert set(observed) == {"good", "great", "bad", "say", "tell"}
        for lemma, pct in observed.items():
            assert pct == pytest.approx(100.0 * counter[lemma] / 1000, abs=1e-12)


class TestTokensPerLemma:
    def test_mean_and_histogram(self):
        stratum = make_stratum(["say"] * 4 + ["tell"])
        result = tokens_per_lemma(stratum, tiny_lexicon())
        assert result[EPI].mean == pytest.approx(2.5)
        assert result[EPI].histogram == {4: 1, 1: 1}

    def test_all_distinct(self):
        stratum = make_stratum(["say", "tell", "good"])
        result = tokens_per_lemma(stratum, tiny_lexicon())
        assert result[EPI].mean == pytest.approx(1.0)

    def test_unattested_class_mean_is_absent(self):
        result = tokens_per_lemma(make_stratum(["say"]), tiny_lexicon())
        assert result[POS].mean is None
        assert result[POS].histogram == {}

    @given(st.lists(st.sampled_from(["say", "tell", "good", "bad", "zz"]), max_size=200))
    def test_mean_times_uniques_equals_tokens(self, lemmas):
        stratum = make_stratum(lemmas)
        stats = sentiment_stats(stratum, tiny_lexicon())
        for cls in SentimentClass:
            s = stats[cls]
            if s.unique_lemma_count:
                assert s.mean_tokens_per_lemma * s.unique_lemma_count == \
                    pytest.approx(s.token_count)
            else:
                assert s.mean_tokens_per_lemma is None

    def test_fewer_variants_at_fixed_tokens_increases_mean(self):
        wide = make_stratum(["say", "tell", "say", "tell", "say", "tell"])
        narrow = make_stratum(["say"] * 6)
        lex = tiny_lexicon()
        assert tokens_per_lemma(narrow, lex)[EPI].mean > \
            tokens_per_lemma(wide, lex)[EPI].mean

    def test_disjoint_classes_never_share_a_lemma(self):
        stratum = make_stratum(["good", "bad", "say", "good"])
        stats = sentiment_stats(stratum, tiny_lexicon())
        supports = [set(stats[cls].observed_freq_pct) for cls in SentimentClass]
        for i, a in enumerate(supports):
            for b in supports[i + 1:]:
                assert not (a & b)


class TestOneSplitPerStratum:
    def test_the_three_tables_split_a_stratum_once(self, monkeypatch):
        stratum = make_stratum(["say", "tell", "good", "zz", "say"])
        lexicon = tiny_lexicon()
        calls = count_class_of(monkeypatch)
        sentiment_stats(stratum, lexicon)
        tokens_per_lemma(stratum, lexicon)
        expected_deviation(stratum, lexicon, FrequencyTable("en", {"say": 100.0}))
        assert sorted(calls) == sorted(stratum.lemma_counts())  # each distinct lemma once

    def test_another_lexicon_splits_afresh(self):
        stratum = make_stratum(["say", "good"])
        assert unique_counts(stratum, tiny_lexicon()) == {POS: 1, NEG: 0, EPI: 1}
        other = SentimentLexicon("en", {NEG: frozenset({"say", "good"})})
        assert unique_counts(stratum, other) == {POS: 0, NEG: 2, EPI: 0}

    def test_language_is_checked_on_every_call(self):
        stratum = make_stratum(["say"])
        sentiment_stats(stratum, tiny_lexicon())
        with pytest.raises(ValidationError, match="language mismatch"):
            tokens_per_lemma(stratum, tiny_lexicon("ru"))

    @given(st.lists(st.sampled_from(["say", "tell", "good", "bad", "zz"]), max_size=200))
    def test_both_means_are_the_same_float(self, lemmas):
        stratum = make_stratum(lemmas)
        stats = sentiment_stats(stratum, tiny_lexicon())
        per_lemma = tokens_per_lemma(stratum, tiny_lexicon())
        for cls in SentimentClass:
            assert per_lemma[cls].mean == stats[cls].mean_tokens_per_lemma


class TestExpectedDeviation:
    def test_exact_match_is_zero(self):
        # observed 1.0% vs reference 10,000 per-million (= 1.0%)
        stratum = make_stratum(["good"] + ["x"] * 99)
        ref = FrequencyTable("en", {"good": 10_000.0})
        dev = expected_deviation(stratum, tiny_lexicon(), ref)
        assert dev[POS].per_lemma["good"] == pytest.approx(0.0, abs=1e-12)
        assert dev[POS].mean_deviation == pytest.approx(0.0, abs=1e-12)

    def test_uncovered_lemma_excluded_from_mean(self):
        stratum = make_stratum(["good", "great"] + ["x"] * 98)
        ref = FrequencyTable("en", {"good": 10_000.0})       # "great" not covered
        dev = expected_deviation(stratum, tiny_lexicon(), ref)
        assert dev[POS].uncovered == ("great",)
        assert "great" not in dev[POS].per_lemma
        assert dev[POS].mean_deviation == pytest.approx(1.0 - 1.0)

    def test_ratio_mode(self):
        stratum = make_stratum(["good"] * 2 + ["x"] * 98)
        ref = FrequencyTable("en", {"good": 10_000.0, "bad": 0.0})
        dev = expected_deviation(stratum, tiny_lexicon(), ref, DeviationMode.RATIO)
        assert dev[POS].per_lemma["good"] == pytest.approx(2.0)
        # zero-frequency reference entries are unusable as a ratio denominator
        stratum2 = make_stratum(["bad"] + ["x"] * 99)
        dev2 = expected_deviation(stratum2, tiny_lexicon(), ref, DeviationMode.RATIO)
        assert dev2[NEG].uncovered == ("bad",)

    def test_language_mismatch(self):
        ref = FrequencyTable("ru", {"good": 1.0})
        with pytest.raises(ValidationError, match="language mismatch"):
            expected_deviation(make_stratum(["good"]), tiny_lexicon(), ref)

    @pytest.mark.parametrize("mode", list(DeviationMode))
    def test_mode_spelled_as_its_value_is_the_member(self, mode):
        stratum = make_stratum(["good"] * 3 + ["great", "bad"] + ["x"] * 95)
        ref = FrequencyTable("en", {"good": 20_000.0, "great": 5_000.0, "bad": 1_000.0})
        spelled = expected_deviation(stratum, tiny_lexicon(), ref, mode.value)
        assert spelled == expected_deviation(stratum, tiny_lexicon(), ref, mode)
        assert all(dev.mode is mode for dev in spelled.values())

    @pytest.mark.parametrize("mode", ["diff", None, 1])
    def test_unknown_mode_names_the_allowed_values(self, mode):
        ref = FrequencyTable("en", {"good": 1.0})
        with pytest.raises(ValidationError, match=re.escape(
                f"mode must be one of 'difference', 'ratio', got {mode!r}")):
            expected_deviation(make_stratum(["good"]), tiny_lexicon(), ref, mode)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_median_is_statistics_median_bit_for_bit(self, values, extra):
        for xs in (values, values + [extra]):  # one odd length, one even
            assert repr(_median(xs)) == repr(statistics.median(xs))

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=12),
           st.lists(st.floats(1.0, 1e5), min_size=12, max_size=12))
    def test_mean_deviation_is_the_fsum_mean(self, counts, per_million):
        # an exactly rounded sum leaves no digit to the Python version's sum()
        lemmas = [f"good{i}" for i in range(len(counts))]
        lexicon = SentimentLexicon("en", {POS: frozenset(lemmas)})
        stratum = make_stratum([lem for lem, n in zip(lemmas, counts) for _ in range(n)])
        ref = FrequencyTable("en", dict(zip(lemmas, per_million)))
        for mode in DeviationMode:
            dev = expected_deviation(stratum, lexicon, ref, mode)[POS]
            assert dev.mean_deviation == math.fsum(dev.per_lemma.values()) / len(counts)

    def test_mean_deviation_near_zero_when_sampled_from_reference(self):
        # Monte-Carlo oracle: strata drawn iid from the reference distribution
        # must have class mean deviation within the 3-sigma sampling band
        vocab = ["good", "great", "bad", "say", "tell"] + [f"w{i}" for i in range(45)]
        pm = np.full(len(vocab), 1_000_000.0 / len(vocab))
        ref = FrequencyTable("en", dict(zip(vocab, pm)))
        lex = tiny_lexicon()
        probs = pm / pm.sum()
        per_class_means = {cls: [] for cls in SentimentClass}
        for seed in range(10):
            rng = np.random.default_rng(seed)
            lemmas = list(rng.choice(vocab, 20_000, p=probs))
            dev = expected_deviation(make_stratum(lemmas), lex, ref)
            for cls in SentimentClass:
                if dev[cls].mean_deviation is not None:
                    per_class_means[cls].append(dev[cls].mean_deviation)
        for cls, means in per_class_means.items():
            assert len(means) == 10
            sigma = np.std(means, ddof=1) / np.sqrt(len(means))
            assert abs(np.mean(means)) < 3.0 * sigma + 1e-12


class TestFrequencyTable:
    def test_load_skips_comment_lines(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("# corpus: toy reference\ngood\t123.5\n#\tbad\t7\n", encoding="utf-8")
        table = FrequencyTable.load(p, "en")
        assert table.freqs == {"good": 123.5}
        assert table.lookup("good") == (123.5, True)
        assert table.lookup("nope") == (0.0, False)

    def test_decomposed_lemma_is_normalized(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text(unicodedata.normalize("NFD", "мой\t10\n"), encoding="utf-8")
        assert FrequencyTable.load(p, "ru").lookup("мой") == (10.0, True)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            FrequencyTable("en", {"x": -1.0})

    def test_lemma_repeated_with_another_frequency_rejected(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("good\t10\nbad\t5\ngood\t20\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(f"{p}:3: lemma 'good' repeated")):
            FrequencyTable.load(p, "en")

    def test_exact_repeat_accepted(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("good\t10\ngood\t1e1\n", encoding="utf-8")
        assert FrequencyTable.load(p, "en").freqs == {"good": 10.0}

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400", "-1"])
    def test_invalid_frequency_names_its_line(self, tmp_path, value):
        p = tmp_path / "f.tsv"
        p.write_text(f"bad\t5\ngood\t{value}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(
                f"{p}:2: invalid frequency for 'good': {value}")):
            FrequencyTable.load(p, "en")

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("good\tlots\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="not a number"):
            FrequencyTable.load(p, "en")
