"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Criterion 6 needs externally supplied corpora and is skipped unless the
SEMDRIFT_SUMMIT_MANIFEST / SEMDRIFT_NOVELS_MANIFEST environment variables
point at user-provided manifests (see README).
"""

import math
import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

import semdrift as sd
from semdrift import SentimentClass, Side
from semdrift.ingest import group_strata

from helpers import DATA, fixture_concept_map, fixture_lexicons, reference_table_en
from test_cli import read_bundle, write_config

POS, NEG, EPI = SentimentClass.POSITIVE, SentimentClass.NEGATIVE, SentimentClass.EPISTEMIC


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance {number}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        print(f"[acceptance {number}] {name}: FAIL (runtime {elapsed:.2f}s "
              f">= {budget_s:g}s)")
        raise AssertionError(f"runtime budget exceeded: {elapsed:.2f}s")
    print(f"[acceptance {number}] {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_lexicon_disjointness():
    with criterion(1, "lexicon disjointness under priority merge", 1.0):
        paths = [DATA / "lexicons/lex_en_core.tsv", DATA / "lexicons/lex_en_extra.tsv"]
        raws = sd.load_lexicon_sources(paths, "en")
        conflicts = sd.find_conflicts(raws)
        assert len(conflicts) >= 5
        for priority in [(EPI, NEG, POS), (POS, NEG, EPI)]:
            merged = sd.merge_disjoint(raws, priority, language_code="en")
            classes = list(SentimentClass)
            for i, a in enumerate(classes):
                for b in classes[i + 1:]:
                    assert not (merged.lists[a] & merged.lists[b])
            for lemma, claimed in conflicts.items():
                winner = next(cls for cls in priority if cls in claimed)
                assert lemma in merged.lists[winner]
                for cls in SentimentClass:
                    if cls is not winner:
                        assert lemma not in merged.lists[cls]


def test_criterion_2_counting_matches_brute_force_recount():
    with criterion(2, "counting oracle equivalence on 1,000-word fixture", 1.0):
        text = (DATA / "counting_fixture.txt").read_text(encoding="utf-8")
        profile = sd.default_profile("en")
        lemma_dict = sd.LemmaDict.load(DATA / "dicts/en_lemmas.tsv", "en")
        _, lexicon = fixture_lexicons()

        # pipeline path
        doc = sd.Document.from_text("fixture", text, profile, lemma_dict)
        stratum = sd.CorpusStratum("en", sd.TranslationKind.SOURCE, {}, [doc])
        assert stratum.total_word_count == 1000
        per_class = sd.sentiment_stats(stratum, lexicon)
        per_lemma = sd.tokens_per_lemma(stratum, lexicon)

        # independent brute-force recount: raw token scan + dict lookup + Counter
        tokens = sd.tokenize(text, profile)
        counts = Counter(lemma_dict.entries.get(t, t) for t in tokens)
        assert sum(counts.values()) == 1000
        for cls in SentimentClass:
            members = [lem for lem in counts if lem in lexicon.lists[cls]]
            assert per_class[cls].unique_lemma_count == len(members)
            if members:
                expected_mean = sum(counts[m] for m in members) / len(members)
                assert abs(per_lemma[cls].mean - expected_mean) < 1e-9
                expected_hist = Counter(counts[m] for m in members)
                assert per_lemma[cls].histogram == dict(expected_hist)
            assert sorted(per_class[cls].observed_freq_pct) == sorted(members)
            for lem in members:
                observed = per_class[cls].observed_freq_pct[lem]
                assert abs(observed - 100.0 * counts[lem] / 1000) < 1e-9


def _invert(fn, p, lo=1e-9, hi=1e4):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_3_statistical_kernels():
    with criterion(3, "statistical kernels vs tables and quadrature", 5.0):
        from scipy import integrate

        # F inverse against published tables
        x95 = _invert(lambda v: sd.f_cdf(v, 2, 12), 0.95)
        assert abs(x95 - 3.885) <= 0.005

        # ... and against an adaptive-quadrature oracle of the F density
        def f_density(t, d1, d2):
            c = math.exp(math.lgamma((d1 + d2) / 2) - math.lgamma(d1 / 2)
                         - math.lgamma(d2 / 2) + (d1 / 2) * math.log(d1 / d2))
            return c * t ** (d1 / 2 - 1) * (1 + d1 * t / d2) ** (-(d1 + d2) / 2)

        oracle_p, _ = integrate.quad(f_density, 0, x95, args=(2, 12), epsabs=1e-12)
        assert abs(oracle_p - 0.95) <= 1e-8

        # studentized range inverse against published tables
        q95 = _invert(lambda v: sd.studentized_range_cdf(v, 3, 12), 0.95, hi=100.0)
        assert abs(q95 - 3.77) <= 0.02

        # ... and against an independent double-quadrature oracle
        def sr_oracle(q, k, df):
            def inner(s):
                def integrand(z):
                    phi = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
                    big = 0.5 * (1 + math.erf(z / math.sqrt(2)))
                    shifted = 0.5 * (1 + math.erf((z - q * s) / math.sqrt(2)))
                    return k * phi * (big - shifted) ** (k - 1)
                return integrate.quad(integrand, -9, 9, epsabs=1e-11, limit=200)[0]

            def outer(s):
                ln = (0.5 * df * math.log(df) - math.lgamma(0.5 * df)
                      - (0.5 * df - 1) * math.log(2.0))
                return math.exp(ln + (df - 1) * math.log(s) - 0.5 * df * s * s) * inner(s)

            return integrate.quad(outer, 1e-12, 1 + 12 / math.sqrt(df),
                                  epsabs=1e-10, limit=200)[0]

        assert abs(sr_oracle(q95, 3, 12) - 0.95) <= 1e-5

        # hand-computed ANOVA decomposition, exactly
        groups = [sd.GroupSample("a", (4, 5, 6)), sd.GroupSample("b", (6, 7, 8)),
                  sd.GroupSample("c", (9, 10, 11))]
        result = sd.one_way_anova(groups)
        assert result.ss_between == 38.0
        assert result.ss_within == 6.0


def test_criterion_4_pca_against_dense_eigendecomposition():
    with criterion(4, "2-component projection vs dense eigensolver", 5.0):
        rng = np.random.default_rng(2024)
        dims = tuple(f"c{i}" for i in range(8))
        for _ in range(10):
            vectors = [sd.ConceptVector(f"v{i}", dims, rng.random(8) * 10)
                       for i in range(6)]
            projection = sd.pca_2d(vectors)
            X = np.vstack([v.values for v in vectors])
            centered = X - X.mean(axis=0)
            cov = centered.T @ centered / (X.shape[0] - 1)
            eigvals, eigvecs = np.linalg.eigh(cov)
            order = np.argsort(eigvals)[::-1]
            oracle = centered @ eigvecs[:, order[:2]]
            for i in range(len(vectors)):
                for j in range(i + 1, len(vectors)):
                    mine = np.linalg.norm(np.asarray(projection.coords[i])
                                          - np.asarray(projection.coords[j]))
                    ref = np.linalg.norm(oracle[i] - oracle[j])
                    assert abs(mine - ref) <= 1e-6
        base = rng.random(8)
        rank1 = [sd.ConceptVector(f"r{i}", dims, base * (i + 1)) for i in range(5)]
        assert sd.pca_2d(rank1).explained_variance[1] < 1e-9


def test_criterion_5_channel_recovery():
    with criterion(5, "channel recovery of narrowing/widening and norm pull", 60.0):
        cmap = fixture_concept_map()
        ru_lexicon, en_lexicon = fixture_lexicons()
        ref = reference_table_en()
        budget = {cid: 1.0 for cid in cmap.concepts}
        words = 50_000

        machine_ok = human_ok = 0
        for seed in range(10):
            source = sd.generate_source(cmap, words, budget, seed)
            base_profiles = sd.variant_counts(source, cmap, Side.SOURCE)
            source_tpl = sd.tokens_per_lemma(source, ru_lexicon)

            machine = sd.apply_channel(source, cmap,
                                       sd.ChannelParams.machine(seed=seed), ref)
            index = sd.field_width_index(
                sd.variant_counts(machine, cmap, Side.TARGET), base_profiles)
            machine_tpl = sd.tokens_per_lemma(machine, en_lexicon)
            narrowed = index < 1.0 and all(
                machine_tpl[cls].mean > source_tpl[cls].mean for cls in SentimentClass)
            machine_ok += narrowed

            human = sd.apply_channel(source, cmap, sd.ChannelParams.human(seed=seed), ref)
            human_index = sd.field_width_index(
                sd.variant_counts(human, cmap, Side.TARGET), base_profiles)
            human_ok += human_index > 1.0
        assert machine_ok >= 9, f"machine channel recovered in {machine_ok}/10 seeds"
        assert human_ok >= 9, f"human channel recovered in {human_ok}/10 seeds"

        # norm pull 1.0 drives class mean deviation into the Monte-Carlo band
        per_class: dict[SentimentClass, list[float]] = {cls: [] for cls in SentimentClass}
        for seed in range(10):
            source = sd.generate_source(cmap, words, budget, seed)
            pulled = sd.apply_channel(
                source, cmap,
                sd.ChannelParams(sd.ChannelKind.HUMAN, 1.0, norm_pull=1.0,
                                 length_inflation=1.0, seed=seed), ref)
            deviations = sd.expected_deviation(pulled, en_lexicon, ref)
            for cls in SentimentClass:
                assert deviations[cls].mean_deviation is not None
                per_class[cls].append(deviations[cls].mean_deviation)
        for cls, means in per_class.items():
            sigma = np.std(means, ddof=1) / math.sqrt(len(means))
            assert abs(np.mean(means)) < 3.0 * sigma, (cls, means)


@pytest.mark.skipif("SEMDRIFT_SUMMIT_MANIFEST" not in os.environ,
                    reason="set SEMDRIFT_SUMMIT_MANIFEST to the real press-conference "
                           "corpus manifest to enable")
def test_criterion_6a_summit_word_counts():
    with criterion(6, "summit corpus word counts", 60.0):
        strata = sd.load_corpus(os.environ["SEMDRIFT_SUMMIT_MANIFEST"])
        totals = {language: sum(s.total_word_count for s in members)
                  for (language,), members in group_strata(strata, ("language",)).items()}
        assert totals["ru"] == 12338
        assert totals["en"] == 14667
        cell = {(s.language_code, s.group_keys.get("summit"), s.group_keys.get("term")):
                s.total_word_count for s in strata}
        assert cell[("ru", "G8", "2000-2003")] == 757
        assert cell[("en", "G8", "2000-2003")] == 874


@pytest.mark.skipif("SEMDRIFT_NOVELS_MANIFEST" not in os.environ,
                    reason="set SEMDRIFT_NOVELS_MANIFEST (plus SEMDRIFT_NOVELS_LEXICON_* "
                           "paths) to the literary corpus to enable")
def test_criterion_6b_novels_unique_lemma_ordering():
    with criterion(6, "literary corpus human > machine unique sentiment lemmas", 300.0):
        strata = sd.load_corpus(os.environ["SEMDRIFT_NOVELS_MANIFEST"])
        lexicon = sd.merge_disjoint(
            sd.load_lexicon_sources(
                os.environ["SEMDRIFT_NOVELS_LEXICON_EN"].split(os.pathsep), "en"),
            language_code="en")
        authors = sorted({s.group_keys["author"] for s in strata
                          if s.language_code == "en"})
        for author in authors:
            per_kind = {}
            for kind in ("human", "machine"):
                members = [s for s in strata
                           if s.language_code == "en"
                           and s.translation_kind.value == kind
                           and s.group_keys["author"] == author]
                merged = sd.CorpusStratum(
                    "en", sd.TranslationKind(kind), {"author": author},
                    [d for m in members for d in m.documents])
                per_kind[kind] = sum(row.unique_lemma_count for row in
                                     sd.sentiment_stats(merged, lexicon).values())
            assert per_kind["human"] > per_kind["machine"], (author, per_kind)


def test_criterion_7_analyze_determinism(tmp_path):
    with criterion(7, "byte-identical report bundles", 60.0):
        from semdrift.cli import main
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "first", tmp_path / "second"
        assert main(["analyze", "--config", str(config), "--output-dir", str(out1)]) == 0
        assert main(["analyze", "--config", str(config), "--output-dir", str(out2)]) == 0
        first, second = read_bundle(out1), read_bundle(out2)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
