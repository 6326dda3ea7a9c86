"""Synthetic corpora and parameterized translation channels for pipeline validation.

The channel model works at the lemma-emission level: every concept token in
the source is re-emitted as a target-side variant of the same concept. A
machine-style channel concentrates emissions on the reference-most-frequent
variants and never attests more variants than the source did (hard cap); a
human-style channel spreads emissions over more variants, up to the concept's
full synonym set. An optional norm pull replaces each emitted token, with the
configured probability, by an independent draw from the target reference
distribution, so at pull 1.0 the output matches target-language norms and the
concept-total conservation guarantee only holds at pull 0.
"""

import json
import math
from bisect import bisect_right
from itertools import accumulate, islice, product
from pathlib import Path

from . import ingest
from .errors import FrozenRecord, ValidationError, member
from .ingest import DEFAULT_PROFILES, CorpusStratum, Document
from .inputs import ChannelKind, FrequencyTable, TranslationKind, check_language
from .lexicon import ConceptMap, Side

DEFAULT_MACHINE_FACTOR = 0.4
DEFAULT_HUMAN_FACTOR = 1.3
# target/source word-count ratio typical of ru->en translation
DEFAULT_LENGTH_INFLATION = 1.19
DEFAULT_CONCEPT_DENSITY = 0.2
DEFAULT_FILLER_SIZE = 200
DEFAULT_WORDS = 10_000
# the most words a source or a channel output may hold, and the largest filler
# vocabulary: 10 M words in and 10 M out peaked at 439 MiB and wrote 0.2 GB of corpus
# files (2-core VM, Python 3.11)
MAX_SYNTH_WORDS = 10_000_000

_ASCII_LOWER = "abcdefghijklmnopqrstuvwxyz"


class ChannelParams(FrozenRecord):
    """Translation-channel knobs.

    `narrow_widen_factor` scales the expected number of attested variants per
    concept (output over input); `norm_pull` in [0, 1] is the per-token
    probability of resampling from the target reference distribution;
    `length_inflation` is the output/input word-count ratio.
    """

    def __init__(self, kind: ChannelKind, narrow_widen_factor: float, norm_pull: float = 0.0,
                 length_inflation: float = 1.0, seed: int = 0):
        kind = member("kind", kind, ChannelKind)
        if not narrow_widen_factor > 0:
            raise ValidationError(f"narrow_widen_factor must be > 0, got {narrow_widen_factor}")
        if not 0.0 <= norm_pull <= 1.0:
            raise ValidationError(f"norm_pull must be in [0, 1], got {norm_pull}")
        if not length_inflation > 0:
            raise ValidationError(f"length_inflation must be > 0, got {length_inflation}")
        if seed < 0:
            raise ValidationError(f"seed must be >= 0, got {seed}")
        self.__dict__.update(kind=kind, narrow_widen_factor=narrow_widen_factor,
                             norm_pull=norm_pull, length_inflation=length_inflation, seed=seed)

    @classmethod
    def machine(cls, seed: int = 0, **overrides) -> "ChannelParams":
        return cls(**{"kind": ChannelKind.MACHINE, "narrow_widen_factor": DEFAULT_MACHINE_FACTOR,
                      "length_inflation": DEFAULT_LENGTH_INFLATION, "seed": seed, **overrides})

    @classmethod
    def human(cls, seed: int = 0, **overrides) -> "ChannelParams":
        return cls(**{"kind": ChannelKind.HUMAN, "narrow_widen_factor": DEFAULT_HUMAN_FACTOR,
                      "length_inflation": DEFAULT_LENGTH_INFLATION, "seed": seed, **overrides})


def filler_vocab(language_code: str, size: int) -> tuple[str, ...]:
    """Deterministic neutral filler lemmas spelled in the language's own letters.

    Words are double-initial-letter prefixed base-N codes ("aaaaab", ...), so
    they tokenize cleanly under the language profile and will not collide with
    real lexicon lemmas.
    """
    if size < 0:
        raise ValidationError(f"size must be >= 0, got {size}")
    profile = DEFAULT_PROFILES.get(language_code)
    alphabet = _ASCII_LOWER
    if profile is not None:
        letters = [chr(cp) for lo, hi in profile.letter_classes
                   for cp in range(lo, hi + 1) if chr(cp).islower()]
        if len(letters) >= 2:
            alphabet = "".join(letters[:26])
    width = 4
    while len(alphabet) ** width < size:
        width += 1
    codes = islice(product(alphabet, repeat=width), size)
    return tuple(alphabet[0] * 2 + "".join(code) for code in codes)


def generate_source(cmap: ConceptMap, target_words: int,
                    concept_budget: dict[str, float], seed: int, *,
                    concept_density: float = DEFAULT_CONCEPT_DENSITY,
                    filler_size: int = DEFAULT_FILLER_SIZE) -> CorpusStratum:
    """Sample a source-language stratum of exactly `target_words` lemmas.

    A `concept_density` share of the tokens is drawn from concepts in
    proportion to `concept_budget` (uniform over each concept's source
    variants); the rest is uniform neutral filler. Concepts missing from the
    budget get weight zero; an all-zero budget yields pure filler. Output is
    deterministic per seed.
    """
    if not cmap.concepts:
        raise ValidationError("empty concept map")
    if target_words <= 0:
        raise ValidationError(f"target_words must be > 0, got {target_words}")
    if not 0.0 <= concept_density <= 1.0:
        raise ValidationError(f"concept_density must be in [0, 1], got {concept_density}")
    if filler_size < 1:
        raise ValidationError(f"filler_size must be >= 1, got {filler_size}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    for name, size in (("target_words", target_words), ("filler_size", filler_size)):
        if size > MAX_SYNTH_WORDS:
            raise ValidationError(f"{name} must be at most {MAX_SYNTH_WORDS}, got {size}")
    unknown = sorted(set(concept_budget) - set(cmap.concepts))
    if unknown:
        raise ValidationError(f"unknown concept id in budget: {unknown[0]!r}")
    invalid = sorted(cid for cid, w in concept_budget.items() if not w >= 0)  # NaN too
    if invalid:
        raise ValidationError(f"concept weights must be >= 0, got "
                              f"{concept_budget[invalid[0]]!r} for {invalid[0]!r}")
    active = sorted(cid for cid, w in concept_budget.items() if w > 0)
    if not sum(concept_budget[cid] for cid in active) < math.inf:
        raise ValidationError("concept weights must sum to a finite number")

    uniform = _uniform(seed)
    n_concept = round(target_words * concept_density) if active else 0
    lemmas: list[str] = []
    if n_concept:
        variants, weights = [], []
        for cid in active:
            source_lemmas = cmap.concepts[cid].source_lemmas
            variants += source_lemmas
            weights += [concept_budget[cid] / len(source_lemmas)] * len(source_lemmas)
        lemmas = _sample(uniform, variants, weights, n_concept)
    filler = filler_vocab(cmap.source_language, filler_size)
    lemmas += [filler[int(uniform() * filler_size)] for _ in range(target_words - n_concept)]
    _shuffle(uniform, lemmas)
    doc = Document.from_lemmas(f"synthetic-source-seed{seed}", lemmas)
    return CorpusStratum(cmap.source_language, TranslationKind.SOURCE,
                         {"origin": "synthetic", "seed": str(seed)}, [doc])


# uniform() takes 2**53 equally likely values, so `int(uniform() * n)` draws each value
# below n with a relative bias under n / 2**53: at most 1.2e-9 up to MAX_SYNTH_WORDS.

def _uniform(seed: int):
    """`random.Random(seed).random`, the one method synth draws with: Python keeps its
    sequence for a given seed the same across versions."""
    from random import Random
    return Random(seed).random


def _sample(uniform, items, weights, size: int) -> list:
    """`size` items drawn with replacement in proportion to their weights, whose sum
    must be finite and positive."""
    cdf = list(accumulate(weights))
    total = cdf[-1]
    cdf = [c / total for c in cdf]  # ends at 1.0 exactly, above every uniform() draw
    return [items[bisect_right(cdf, uniform())] for _ in range(size)]


def _shuffle(uniform, items: list) -> None:
    """Fisher-Yates from the end, in place."""
    for i in range(len(items) - 1, 0, -1):
        j = int(uniform() * (i + 1))
        items[i], items[j] = items[j], items[i]


def _output_size(n_in: int, inflation: float) -> int:
    """round(n_in x inflation), once the product is known to be at most MAX_SYNTH_WORDS."""
    n_out = n_in * inflation
    if not n_out <= MAX_SYNTH_WORDS:
        raise ValidationError(f"length_inflation {inflation:g} times {n_in} input words must "
                              f"be at most {MAX_SYNTH_WORDS} words")
    return round(n_out)


def _plan_concept(concept, counts, params: ChannelParams, ref: FrequencyTable,
                  uniform) -> tuple[list[str], dict[str, float]] | None:
    """The variant pool and the emission probabilities of a concept the source
    attests; None for one it does not."""
    src, tgt = concept.source_lemmas, concept.target_lemmas
    attested = [(i, v) for i, v in enumerate(src) if counts[v] > 0]
    if not attested:
        return None
    n_in = sum(counts[v] for _, v in attested)
    v_in = len(attested)

    wanted = params.narrow_widen_factor * v_in
    if wanted == math.inf:
        raise ValidationError(f"narrow_widen_factor is too large: {params.narrow_widen_factor:g}"
                              f" times {v_in} attested variants overflows")
    budget = math.floor(wanted)  # rounded up with probability equal to the fraction
    if wanted > budget and uniform() < wanted - budget:
        budget += 1
    if params.kind is ChannelKind.MACHINE:
        budget = min(budget, v_in)       # hard cap: never widen the field
    budget = max(1, min(budget, len(tgt)))

    def ref_order(lemma: str):
        return (-ref.lookup(lemma)[0], lemma)

    images = sorted({tgt[i % len(tgt)] for i, _ in attested}, key=ref_order)
    if budget <= len(images):
        pool, extras = images[:budget], []
    else:
        pool = images
        remaining = sorted((t for t in tgt if t not in set(images)), key=ref_order)
        extras = remaining[:budget - len(images)]
    pool_set = set(pool)
    extra_share = len(extras) / (len(pool) + len(extras)) if extras else 0.0

    emission: dict[str, float] = {}
    for i, v in attested:
        target = tgt[i % len(tgt)]
        if target not in pool_set:
            target = pool[0]
        emission[target] = emission.get(target, 0.0) + (1.0 - extra_share) * counts[v] / n_in
    for t in extras:
        emission[t] = emission.get(t, 0.0) + extra_share / len(extras)
    return pool, emission


def apply_channel(source: CorpusStratum, cmap: ConceptMap, params: ChannelParams,
                  target_ref: FrequencyTable) -> CorpusStratum:
    """Re-emit a source stratum through the translation channel.

    Concept tokens map to target-side variants of the same concept (position
    in the concept file aligns the default rendering); non-concept tokens map
    rank-for-rank onto target filler lemmas. Per-concept output token totals
    are round(input x length_inflation) before the norm pull is applied.
    """
    check_language("source stratum", source.language_code,
                   "the concept map's source side", cmap.source_language)
    check_language("frequency table", target_ref.language_code,
                   "the concept map's target side", cmap.target_language)

    counts = source.lemma_counts()
    concepts = [cmap.concepts[cid] for cid in sorted(cmap.concepts)]
    inflation = params.length_inflation
    source_concept_lemmas = cmap.lemmas(Side.SOURCE)
    nonconcept = {lem: n for lem, n in counts.items() if lem not in source_concept_lemmas}
    # every output size, bounded before anything is drawn
    n_outs = [_output_size(sum(counts[v] for v in c.source_lemmas), inflation)
              for c in concepts]
    n_fill = _output_size(sum(nonconcept.values()), inflation)
    planned = sum(n_outs) + n_fill
    if planned > MAX_SYNTH_WORDS:
        raise ValidationError(f"the channel output of {planned} words must be at most "
                              f"{MAX_SYNTH_WORDS} words")
    uniform = _uniform(params.seed)

    # A machine channel's norm pull redirects draws that land on capped-out variants:
    # one outside an attested concept's pool goes to the pool's top variant, and one of a
    # concept the source never attested (which must not appear at all) to the reference's
    # most frequent non-concept lemma, or is dropped if the reference has none.
    redirect = params.norm_pull > 0.0 and params.kind is ChannelKind.MACHINE
    remap: dict[str, str | None] = {}
    if redirect:
        concept_targets = cmap.lemmas(Side.TARGET)
        fallback = max((lem for lem in target_ref.freqs if lem not in concept_targets),
                       key=target_ref.freqs.__getitem__, default=None)
    output: list[str] = []
    for concept, n_out in zip(concepts, n_outs):
        plan = _plan_concept(concept, counts, params, target_ref, uniform)
        if plan is None:
            if redirect:
                remap.update(dict.fromkeys(concept.target_lemmas, fallback))
            continue
        pool, emission = plan
        if redirect:
            remap.update((t, pool[0]) for t in concept.target_lemmas if t not in pool)
        if n_out:
            targets = sorted(emission)
            output += _sample(uniform, targets, [emission[t] for t in targets], n_out)
    if n_fill:
        distinct = sorted(nonconcept)
        target_fill = filler_vocab(cmap.target_language, len(distinct))
        output += _sample(uniform, target_fill, [nonconcept[lem] for lem in distinct], n_fill)

    if params.norm_pull > 0.0 and output:
        ref_lemmas = sorted(target_ref.freqs)
        weights = [target_ref.freqs[lem] for lem in ref_lemmas]
        if not 0.0 < sum(weights) < math.inf:
            raise ValidationError("norm_pull requires a frequency table whose values sum to "
                                  "a finite positive number")
        pulled = [i for i in range(len(output)) if uniform() < params.norm_pull]
        for i, lemma in zip(pulled, _sample(uniform, ref_lemmas, weights, len(pulled))):
            lemma = remap.get(lemma, lemma)
            if lemma is not None:  # a dropped draw leaves the channel's token in place
                output[i] = lemma

    _shuffle(uniform, output)
    kind = TranslationKind(params.kind.value)
    doc = Document.from_lemmas(f"synthetic-{params.kind.value}-seed{params.seed}", output)
    group_keys = {**source.group_keys, "channel": params.kind.value}
    return CorpusStratum(cmap.target_language, kind, group_keys, [doc])


# The `synth` config keys that set a ChannelParams field, and the field each sets.
_CHANNEL_KEYS = {"seed": "seed", "factor": "narrow_widen_factor", "norm_pull": "norm_pull",
                 "length_inflation": "length_inflation"}


def check_sizes(options: dict) -> None:
    """Raise ValidationError if a size that a config's `synth` options make synth
    allocate is above MAX_SYNTH_WORDS: the source's words, the filler vocabulary, or
    the channel output's words."""
    words = options.get("words", DEFAULT_WORDS)
    emitted = words * options.get("length_inflation", DEFAULT_LENGTH_INFLATION)
    for name, size in (("synth.words", words),
                       ("synth.filler_size", options.get("filler_size", DEFAULT_FILLER_SIZE)),
                       ("synth.words x synth.length_inflation", emitted)):
        if size > MAX_SYNTH_WORDS:
            raise ValidationError(f"{name} must be at most {MAX_SYNTH_WORDS}, got {size}")


def synthesize(options: dict, cmap: ConceptMap,
               ref: FrequencyTable) -> tuple[dict, list[CorpusStratum]]:
    """The corpus that a config's `synth` options ask for, as [source, channel output],
    and the settings that made it, as `channel_params.json` records them.

    The channel is machine unless `kind` is human; each option left out takes its
    default, and the concept budget weighs every concept of `cmap` alike.
    """
    words = options.get("words", DEFAULT_WORDS)
    density = options.get("concept_density", DEFAULT_CONCEPT_DENSITY)
    filler_size = options.get("filler_size", DEFAULT_FILLER_SIZE)
    budget = options.get("concept_budget", {cid: 1.0 for cid in cmap.concepts})
    given = {name: options[key] for key, name in _CHANNEL_KEYS.items() if key in options}
    channel = (ChannelParams.human if options.get("kind") is ChannelKind.HUMAN
               else ChannelParams.machine)
    params = channel(**given)
    source = generate_source(cmap, words, budget, params.seed, concept_density=density,
                             filler_size=filler_size)
    translated = apply_channel(source, cmap, params, ref)
    settings = {"kind": params.kind, "narrow_widen_factor": params.narrow_widen_factor,
                "norm_pull": params.norm_pull, "length_inflation": params.length_inflation,
                "seed": params.seed, "words": words, "concept_density": density,
                "filler_size": filler_size}
    return settings, [source, translated]


def file_names(strata: list[CorpusStratum]) -> list[str]:
    """The name of each file that `write_corpus` writes for `strata`."""
    return ["channel_params.json", "manifest.json",
            *(ingest._document_filename(doc.id) for s in strata for doc in s.documents)]


def write_corpus(settings: dict, strata: list[CorpusStratum], directory: Path) -> Path:
    """Write `settings` as `channel_params.json` and `strata` as a corpus (see
    `ingest.save_corpus`) into `directory`, made if missing, and return the manifest's
    path. A failed write removes every file written so far."""
    directory.mkdir(parents=True, exist_ok=True)
    # save_corpus removes its own files if it fails; this removes the parameters
    with ingest.remove_on_failure([directory / "channel_params.json"]) as written:
        written[0].write_text(json.dumps(settings, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
        return ingest.save_corpus(strata, directory)
