import math
import re
import shutil
from collections import Counter
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from semdrift import (ChannelKind, ChannelParams, Side, apply_channel, filler_vocab,
                      generate_source, synth, variant_counts)
from semdrift.cli import main
from semdrift.errors import ValidationError
from semdrift.lexicon import Concept, ConceptMap, SentimentClass

from helpers import DATA, digest, fixture_concept_map, reference_table_en

# sha256 (see helpers.digest) of what `synth --kind machine --pull 0.5` writes for
# tests/data/config.json; the seed's `random.Random(seed).random()` stream defines these bytes
MACHINE_PULL_DIGEST = "e3018446942c4943deda8cb8fc8b8039fd88c2c2784797e810a8e97752e517db"


def concept_tokens(stratum, cmap, side):
    counts = stratum.lemma_counts()
    return {cid: sum(counts[lem] for lem in c.lemmas(side))
            for cid, c in cmap.concepts.items()}


class TestChannelParams:
    def test_defaults(self):
        assert ChannelParams.machine().narrow_widen_factor < 1.0
        assert ChannelParams.human().narrow_widen_factor > 1.0
        assert ChannelParams.machine().length_inflation == pytest.approx(1.19)

    def test_zero_inflation_rejected(self):
        with pytest.raises(ValidationError, match="length_inflation"):
            ChannelParams(ChannelKind.MACHINE, 0.4, length_inflation=0.0)

    def test_pull_range(self):
        with pytest.raises(ValidationError, match="norm_pull"):
            ChannelParams(ChannelKind.HUMAN, 1.3, norm_pull=1.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            ChannelParams.machine(seed=-1)

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_kind_spelled_as_its_value_is_the_member(self, kind):
        params = ChannelParams(kind.value, 0.4, seed=5)
        assert params.kind is kind
        assert params == ChannelParams(kind, 0.4, seed=5)
        cmap, ref = fixture_concept_map(), reference_table_en()
        source = generate_source(cmap, 3000, {cid: 1.0 for cid in cmap.concepts}, seed=5)
        out = apply_channel(source, cmap, params, ref)
        assert out.translation_kind.value == kind.value
        expected = apply_channel(source, cmap, ChannelParams(kind, 0.4, seed=5), ref)
        assert out.lemma_counts() == expected.lemma_counts()

    @pytest.mark.parametrize("kind", ["robot", "source", None])
    def test_unknown_kind_names_the_allowed_values(self, kind):
        with pytest.raises(ValidationError, match=re.escape(
                f"kind must be one of 'machine', 'human', got {kind!r}")):
            ChannelParams(kind, 0.4)


class TestFillerVocab:
    def test_deterministic_and_distinct(self):
        a = filler_vocab("en", 300)
        assert a == filler_vocab("en", 300)
        assert len(set(a)) == 300

    def test_uses_language_letters(self):
        ru = filler_vocab("ru", 5)
        assert all(all("а" <= ch <= "я" for ch in w) for w in ru)


class TestGenerateSource:
    def test_exact_word_count_and_density(self):
        cmap = fixture_concept_map()
        stratum = generate_source(cmap, 1000, {"say": 1.0}, seed=5)
        assert stratum.total_word_count == 1000
        # a 0.2 concept density puts exactly round(0.2 * 1000) tokens on concepts
        tokens = concept_tokens(stratum, cmap, Side.SOURCE)
        assert tokens["say"] == 200
        assert sum(tokens.values()) == 200

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_variant_counts_follow_the_budget(self, seed):
        # each variant of concept c is drawn with probability share_c / len(variants_c);
        # "say" has three source variants and "know" two
        cmap = fixture_concept_map()
        budget = {"say": 3.0, "know": 1.0}
        words, density = 40_000, 0.5
        stratum = generate_source(cmap, words, budget, seed, concept_density=density)
        counts = stratum.lemma_counts()
        n_concept = round(words * density)
        assert sum(concept_tokens(stratum, cmap, Side.SOURCE).values()) == n_concept
        for cid, concept in cmap.concepts.items():
            share = budget.get(cid, 0.0) / sum(budget.values())
            p = share / len(concept.source_lemmas)
            sigma = math.sqrt(n_concept * p * (1 - p))
            for variant in concept.source_lemmas:
                assert abs(counts[variant] - n_concept * p) <= 5 * sigma, variant

    def test_seed_determinism(self):
        cmap = fixture_concept_map()
        budget = {cid: 1.0 for cid in cmap.concepts}
        a = generate_source(cmap, 2000, budget, seed=9)
        b = generate_source(cmap, 2000, budget, seed=9)
        assert a.documents[0].lemmas == b.documents[0].lemmas

    def test_zero_weights_yield_no_sentiment_tokens(self):
        cmap = fixture_concept_map()
        stratum = generate_source(cmap, 500, {cid: 0.0 for cid in cmap.concepts}, seed=1)
        assert stratum.total_word_count == 500
        assert all(p.variant_count == 0
                   for p in variant_counts(stratum, cmap, Side.SOURCE))

    def test_unknown_concept_rejected(self):
        cmap = fixture_concept_map()
        with pytest.raises(ValidationError, match="unknown concept id"):
            generate_source(cmap, 100, {"nope": 1.0}, seed=0)

    def test_empty_map_rejected(self):
        with pytest.raises(ValidationError, match="empty concept map"):
            generate_source(ConceptMap("ru", "en", {}), 100, {}, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            generate_source(fixture_concept_map(), 100, {"say": 1.0}, seed=-1)

    @pytest.mark.parametrize("option", ["target_words", "filler_size"])
    def test_size_beyond_the_word_cap_rejected(self, option):
        sizes = {"target_words": 100, "filler_size": 200, option: synth.MAX_SYNTH_WORDS + 1}
        with pytest.raises(ValidationError, match=f"{option} must be at most 10000000, "
                                                  f"got 10000001"):
            generate_source(fixture_concept_map(), sizes["target_words"], {"say": 1.0}, 0,
                            filler_size=sizes["filler_size"])

    @pytest.mark.parametrize("budget, shown", [({"say": math.nan, "think": 1.0}, "nan"),
                                               ({"say": math.nan}, "nan"),
                                               ({"say": -1.0, "think": 1.0}, "-1.0")])
    def test_weight_that_is_not_at_least_zero_rejected(self, budget, shown):
        with pytest.raises(ValidationError,
                           match=f"concept weights must be >= 0, got {shown} for 'say'"):
            generate_source(fixture_concept_map(), 1000, budget, seed=0)

    def test_weights_that_overflow_their_sum_rejected(self):
        with pytest.raises(ValidationError, match="concept weights must sum to a finite"):
            generate_source(fixture_concept_map(), 100, {"say": 1e308, "think": 1e308}, seed=0)


class TestApplyChannel:
    def test_identity_channel_conserves_concept_totals_exactly(self):
        cmap = fixture_concept_map()
        budget = {cid: 1.0 for cid in cmap.concepts}
        source = generate_source(cmap, 5000, budget, seed=2)
        params = ChannelParams(ChannelKind.HUMAN, 1.0, norm_pull=0.0,
                               length_inflation=1.0, seed=2)
        out = apply_channel(source, cmap, params, reference_table_en())
        src_tokens = concept_tokens(source, cmap, Side.SOURCE)
        out_tokens = concept_tokens(out, cmap, Side.TARGET)
        assert out.total_word_count == source.total_word_count
        for cid in cmap.concepts:
            assert out_tokens[cid] == src_tokens[cid]

    def test_seed_determinism(self):
        cmap = fixture_concept_map()
        budget = {cid: 1.0 for cid in cmap.concepts}
        source = generate_source(cmap, 3000, budget, seed=3)
        ref = reference_table_en()
        a = apply_channel(source, cmap, ChannelParams.machine(seed=4), ref)
        b = apply_channel(source, cmap, ChannelParams.machine(seed=4), ref)
        assert a.documents[0].lemmas == b.documents[0].lemmas

    def test_machine_narrowing_on_five_variant_concept(self):
        concept = Concept("talk", SentimentClass.EPISTEMIC,
                          ("t1", "t2", "t3", "t4", "t5"),
                          ("u1", "u2", "u3", "u4", "u5"))
        cmap = ConceptMap("xx", "en", {"talk": concept})
        ref = reference_table_en()
        attested = []
        for seed in range(10):
            source = generate_source(cmap, 4000, {"talk": 1.0}, seed=seed)
            params = ChannelParams(ChannelKind.MACHINE, 0.3, seed=seed)
            out = apply_channel(source, cmap, params, ref)
            profile = variant_counts(out, cmap, Side.TARGET)[0]
            attested.append(profile.variant_count)
        assert np.mean(attested) <= 2.0

    def test_full_pull_matches_reference_distribution(self):
        # chi-square goodness of fit of the output against the reference table
        cmap = fixture_concept_map()
        ref = reference_table_en()
        budget = {cid: 1.0 for cid in cmap.concepts}
        source = generate_source(cmap, 30_000, budget, seed=6)
        params = ChannelParams(ChannelKind.HUMAN, 1.0, norm_pull=1.0,
                               length_inflation=1.0, seed=6)
        out = apply_channel(source, cmap, params, ref)
        counts = out.lemma_counts()
        lemmas = sorted(ref.freqs)
        total_pm = sum(ref.freqs.values())
        n = out.total_word_count
        observed = np.array([counts[lem] for lem in lemmas], dtype=float)
        expected = np.array([ref.freqs[lem] / total_pm * n for lem in lemmas])
        assert expected.min() >= 5.0
        result = sps.chisquare(observed, expected)
        assert result.pvalue > 0.001

    def test_length_inflation_ratio(self):
        cmap = fixture_concept_map()
        budget = {cid: 1.0 for cid in cmap.concepts}
        source = generate_source(cmap, 20_000, budget, seed=8)
        params = ChannelParams(ChannelKind.HUMAN, 1.3, length_inflation=1.19, seed=8)
        out = apply_channel(source, cmap, params, reference_table_en())
        ratio = out.total_word_count / source.total_word_count
        assert abs(ratio - 1.19) <= 0.005 * 1.19

    def test_concept_totals_conserved_up_to_rounding(self):
        cmap = fixture_concept_map()
        budget = {cid: 1.0 for cid in cmap.concepts}
        for seed, inflation in [(0, 1.19), (1, 0.7), (2, 1.0), (3, 2.3)]:
            source = generate_source(cmap, 9000, budget, seed=seed)
            params = ChannelParams(ChannelKind.MACHINE, 0.4, norm_pull=0.0,
                                   length_inflation=inflation, seed=seed)
            out = apply_channel(source, cmap, params, reference_table_en())
            tokens_in = sum(concept_tokens(source, cmap, Side.SOURCE).values())
            tokens_out = sum(concept_tokens(out, cmap, Side.TARGET).values())
            assert abs(tokens_out - round(tokens_in * inflation)) <= len(cmap.concepts)

    def test_distribution_preserving_at_factor_one(self):
        # with pull 0 and factor 1, per-variant expected counts equal the
        # source counts; average over independent channel seeds
        cmap = fixture_concept_map()
        budget = {cid: 1.0 for cid in cmap.concepts}
        source = generate_source(cmap, 20_000, budget, seed=12)
        ref = reference_table_en()
        counts = source.lemma_counts()
        sums: dict[str, float] = {}
        n_seeds = 20
        for seed in range(n_seeds):
            params = ChannelParams(ChannelKind.HUMAN, 1.0, norm_pull=0.0,
                                   length_inflation=1.0, seed=seed)
            out = apply_channel(source, cmap, params, ref)
            out_counts = out.lemma_counts()
            for concept in cmap.concepts.values():
                for i, src_lemma in enumerate(concept.source_lemmas):
                    tgt_lemma = concept.target_lemmas[i]
                    sums[src_lemma] = sums.get(src_lemma, 0.0) + out_counts[tgt_lemma]
        for concept in cmap.concepts.values():
            for src_lemma in concept.source_lemmas:
                expected = counts[src_lemma]
                if expected < 50:
                    continue
                mean_out = sums[src_lemma] / n_seeds
                tolerance = 4.0 * np.sqrt(expected) / np.sqrt(n_seeds) + 2.0
                assert abs(mean_out - expected) <= tolerance, src_lemma

    def test_factor_that_overflows_the_variant_budget_rejected(self):
        cmap = fixture_concept_map()
        source = generate_source(cmap, 1000, {"say": 1.0}, seed=0)
        params = ChannelParams.human(narrow_widen_factor=1e308)
        with pytest.raises(ValidationError, match="narrow_widen_factor is too large: 1e\\+308 "
                                                  "times 3 attested variants overflows"):
            apply_channel(source, cmap, params, reference_table_en())

    @pytest.mark.parametrize("inflation", [1e308, math.inf, 1e15, 11_000.0])
    def test_output_beyond_the_word_cap_rejected_before_sampling(self, inflation):
        # 1,000 source words: 200 on "say", 800 filler; at 11,000 each part stays under
        # the cap but the whole output does not
        cmap = fixture_concept_map()
        source = generate_source(cmap, 1000, {"say": 1.0}, seed=0)
        params = ChannelParams.machine(length_inflation=inflation)
        with mock.patch.object(synth, "_uniform") as seeding, \
                pytest.raises(ValidationError, match="must be at most 10000000 words"):
            apply_channel(source, cmap, params, reference_table_en())
        seeding.assert_not_called()

    def test_language_mismatch_rejected(self):
        cmap = fixture_concept_map()
        budget = {cid: 1.0 for cid in cmap.concepts}
        source = generate_source(cmap, 100, budget, seed=0)
        bad_ref = reference_table_en()
        bad_ref = type(bad_ref)("de", bad_ref.freqs)
        with pytest.raises(ValidationError, match="language mismatch"):
            apply_channel(source, cmap, ChannelParams.machine(), bad_ref)


def run_recording_plans(source, cmap, params, ref):
    """Run the channel and return its output with the plan made for each concept."""
    plans = {}
    plan_concept = synth._plan_concept

    def recording(concept, *args):
        plans[concept.concept_id] = plan_concept(concept, *args)
        return plans[concept.concept_id]

    with mock.patch.object(synth, "_plan_concept", recording):
        return apply_channel(source, cmap, params, ref), plans


class TestMachinePull:
    """A machine channel's norm pull redirects draws away from capped-out variants."""

    @given(seed=st.integers(0, 2**16), pull=st.floats(0.05, 1.0),
           factor=st.floats(0.1, 3.0), words=st.integers(50, 3000),
           weights=st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 4.0]), min_size=9,
                            max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_concept_tokens_stay_in_their_pools(self, seed, pull, factor, words, weights):
        cmap = fixture_concept_map()
        budget = dict(zip(sorted(cmap.concepts), weights))
        source = generate_source(cmap, words, budget, seed)
        params = ChannelParams.machine(seed, norm_pull=pull, narrow_widen_factor=factor)
        out, plans = run_recording_plans(source, cmap, params, reference_table_en())
        counts, source_counts = out.lemma_counts(), source.lemma_counts()
        for cid, concept in cmap.concepts.items():
            emitted = {t for t in concept.target_lemmas if counts[t]}
            if plans[cid] is None:  # the source never attested this concept
                assert emitted == set(), cid
                continue
            pool = set(plans[cid][0])
            assert emitted <= pool, cid
            attested = sum(1 for v in concept.source_lemmas if source_counts[v])
            assert len(emitted) <= attested, cid

    def test_cli_output_bytes_are_pinned(self, tmp_path):
        assert main(["synth", "--config", str(DATA / "config.json"), "--kind", "machine",
                     "--pull", "0.5", "--output-dir", str(tmp_path)]) == 0
        assert digest(tmp_path) == MACHINE_PULL_DIGEST


class TestGenerators:
    """The draws every sampler makes from one seeded `random.Random(seed).random`."""

    def test_shuffle_reaches_every_permutation_evenly(self):
        # a swap index of int(uniform() * i) (Sattolo's cycles) never leaves [0, 1, 2] as is
        uniform, n = synth._uniform(0), 6000
        seen = Counter()
        for _ in range(n):
            items = [0, 1, 2]
            synth._shuffle(uniform, items)
            seen[tuple(items)] += 1
        assert set(seen) == set(permutations(range(3)))
        sigma = math.sqrt(n * (1 / 6) * (5 / 6))
        for perm, count in seen.items():
            assert abs(count - n / 6) <= 5 * sigma, perm

    @pytest.mark.parametrize("weights, allowed", [([0, 1, 0], {1}), ([1, 0], {0})])
    def test_zero_weights_are_never_drawn(self, weights, allowed):
        drawn = synth._sample(synth._uniform(1), range(len(weights)), weights, 10_000)
        assert set(drawn) == allowed

    def test_reference_mass_that_overflows_exits_2_unwritten(self, tmp_path, capsys):
        data = shutil.copytree(DATA, tmp_path / "data")
        table = data / "freq_en.tsv"
        rows = table.read_text(encoding="utf-8").splitlines()
        table.write_text("".join(row + "\n" if row.startswith("#") else
                                 row.split("\t")[0] + "\t1e308\n" for row in rows),
                         encoding="utf-8")
        out = tmp_path / "out"
        assert main(["validate", "--config", str(data / "config.json")]) == 0
        assert main(["synth", "--config", str(data / "config.json"), "--pull", "0.5",
                     "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.endswith(
            "error: norm_pull requires a frequency table whose values sum to a finite "
            "positive number\n")
        assert not out.exists()
