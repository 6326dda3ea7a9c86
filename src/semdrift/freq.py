"""Frequency statistics per stratum and sentiment class.

Observed frequency is a lemma's token count as a percent of the stratum's
total words. Deviations compare that against a reference table of per-million
frequencies from a general-purpose corpus (percent = per-million / 10,000).
That table, `FrequencyTable`, and `DeviationMode` are defined in `inputs`,
which every command loads; only `analyze` loads this module. Both stay
importable from here.
"""

from collections import Counter
from math import fsum

from .errors import FrozenRecord, member
from .ingest import CorpusStratum
from .inputs import DeviationMode, FrequencyTable, Lemma, check_language
from .lexicon import SentimentClass, SentimentLexicon

PER_MILLION_TO_PCT = 1.0 / 10_000.0


def _class_counts(stratum: CorpusStratum,
                  lexicon: SentimentLexicon) -> dict[SentimentClass, dict[Lemma, int]]:
    """The stratum's lemma counts split by class in one pass; unlisted lemmas drop out.

    The split is kept on the stratum, beside its cached lemma counts, so the next call
    with the same lexicon returns it; callers only read it.
    """
    split = getattr(stratum, "_class_split", None)
    if split is not None and split[0] is lexicon:
        return split[1]
    check_language("stratum", stratum.language_code, "lexicon", lexicon.language_code)
    per_class = lexicon.split_by_class(stratum.lemma_counts())
    stratum._class_split = (lexicon, per_class)
    return per_class


def _mean_tokens(counter: dict[Lemma, int]) -> float | None:
    """Mean tokens per distinct attested lemma, or None when none is attested."""
    return sum(counter.values()) / len(counter) if counter else None


class TokensPerLemma(FrozenRecord):
    """Mean tokens per attested lemma of one class, and how many lemmas have each count."""

    def __init__(self, mean: float | None, histogram: dict[int, int] | None = None):
        self.__dict__.update(mean=mean, histogram={} if histogram is None else histogram)

    @property
    def lemma_count(self) -> int:
        """The class's distinct attested lemmas."""
        return sum(self.histogram.values())

    @property
    def token_count(self) -> int:
        """The tokens of the class's attested lemmas."""
        return sum(n * lemmas for n, lemmas in self.histogram.items())


def tokens_per_lemma(stratum: CorpusStratum,
                     lexicon: SentimentLexicon) -> dict[SentimentClass, TokensPerLemma]:
    """Mean tokens per distinct attested lemma, plus the count histogram, per class.

    A class with no attested lemmas reports mean None rather than 0.
    """
    return {cls: TokensPerLemma(_mean_tokens(counter), dict(Counter(counter.values())))
            for cls, counter in _class_counts(stratum, lexicon).items()}


class ClassDeviation(FrozenRecord):
    """Observed-vs-expected frequency summary for one sentiment class."""

    def __init__(self, mode: DeviationMode, observed_pct: dict[Lemma, float],
                 expected_pct: dict[Lemma, float], per_lemma: dict[Lemma, float],
                 uncovered: tuple[Lemma, ...], mean_deviation: float | None,
                 median_deviation: float | None):
        self.__dict__.update(mode=mode, observed_pct=observed_pct, expected_pct=expected_pct,
                             per_lemma=per_lemma, uncovered=uncovered,
                             mean_deviation=mean_deviation, median_deviation=median_deviation)


def _median(values: list[float]) -> float:
    """`statistics.median` of a non-empty list, bit for bit, without importing it."""
    ordered, middle = sorted(values), len(values) // 2
    return ordered[middle] if len(values) % 2 else (ordered[middle - 1] + ordered[middle]) / 2


def expected_deviation(stratum: CorpusStratum, lexicon: SentimentLexicon,
                       ref: FrequencyTable,
                       mode: DeviationMode = DeviationMode.DIFFERENCE
                       ) -> dict[SentimentClass, ClassDeviation]:
    """Per-class deviation of observed frequency from the reference expectation.

    Difference mode reports observed - expected in percent units; ratio mode
    reports observed / expected. Attested lemmas the reference does not cover
    (and, in ratio mode, covered lemmas whose expected percent is 0.0, as is
    that of a per-million below about 2.5e-320) are excluded from the mean and
    listed under `uncovered` instead of being silently treated as zero. Each
    class's `observed_pct` is the `observed_freq_pct` of `sentiment_stats`.
    """
    mode = member("mode", mode, DeviationMode)
    class_stats = sentiment_stats(stratum, lexicon)
    check_language("stratum", stratum.language_code, "frequency table", ref.language_code)
    out: dict[SentimentClass, ClassDeviation] = {}
    for cls, stats in class_stats.items():
        observed = stats.observed_freq_pct
        expected: dict[str, float] = {}
        per_lemma: dict[str, float] = {}
        uncovered: list[str] = []
        for lemma, obs in observed.items():
            pm, covered = ref.lookup(lemma)
            exp = pm * PER_MILLION_TO_PCT
            if not covered or (mode is DeviationMode.RATIO and exp == 0.0):
                uncovered.append(lemma)
                continue
            expected[lemma] = exp
            per_lemma[lemma] = obs - exp if mode is DeviationMode.DIFFERENCE else obs / exp
        values = list(per_lemma.values())
        out[cls] = ClassDeviation(
            mode=mode,
            observed_pct=observed,
            expected_pct=expected,
            per_lemma=per_lemma,
            uncovered=tuple(uncovered),
            mean_deviation=fsum(values) / len(values) if values else None,
            median_deviation=_median(values) if values else None,
        )
    return out


class ClassFrequencyStats(FrozenRecord):
    """Headline per-class numbers for one stratum."""

    def __init__(self, unique_lemma_count: int, token_count: int,
                 mean_tokens_per_lemma: float | None, observed_freq_pct: dict[Lemma, float]):
        self.__dict__.update(unique_lemma_count=unique_lemma_count, token_count=token_count,
                             mean_tokens_per_lemma=mean_tokens_per_lemma,
                             observed_freq_pct=observed_freq_pct)


def sentiment_stats(stratum: CorpusStratum,
                    lexicon: SentimentLexicon) -> dict[SentimentClass, ClassFrequencyStats]:
    """Unique counts, token counts, tokens-per-lemma, and observed percent per class.

    Per-lemma deviations from a reference table come from `expected_deviation`.
    """
    total = stratum.total_word_count
    out: dict[SentimentClass, ClassFrequencyStats] = {}
    for cls, counter in _class_counts(stratum, lexicon).items():
        out[cls] = ClassFrequencyStats(
            unique_lemma_count=len(counter),
            token_count=sum(counter.values()),
            mean_tokens_per_lemma=_mean_tokens(counter),
            observed_freq_pct={lem: 100.0 * n / total for lem, n in sorted(counter.items())},
        )
    return out
