"""Sentiment lexicons merged into three disjoint lists, plus the bilingual concept map.

Lexicon sources are TSV files of `lemma<TAB>class`. A lemma claimed by more
than one class is assigned to the highest-priority class so that no word can
drive two sentiment scores at once. Both file kinds are read by
`ingest.read_tsv`, in Unicode normal form NFC, the form the tokenizer produces.
"""

from enum import Enum
from pathlib import Path

from .errors import FrozenRecord, ValidationError, member
from .ingest import Lemma, check_language, read_tsv


class SentimentClass(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    EPISTEMIC = "epistemic"


_CLASS_OF_LABEL = {cls.value: cls for cls in SentimentClass}


def _sentiment_class(label: str, path, lineno: int) -> SentimentClass:
    try:
        return _CLASS_OF_LABEL[label]
    except KeyError:
        raise ValidationError(f"{path}: unknown class {label!r} at line {lineno}") from None


# Epistemic lists are the smallest and the easiest to drown out, so they win conflicts.
DEFAULT_PRIORITY: tuple[SentimentClass, ...] = (
    SentimentClass.EPISTEMIC, SentimentClass.NEGATIVE, SentimentClass.POSITIVE)


class Side(str, Enum):
    SOURCE = "source"
    TARGET = "target"


class RawLexiconEntry(FrozenRecord):
    def __init__(self, lemma: Lemma, sentiment: SentimentClass, source: str):
        self.__dict__.update(lemma=lemma, sentiment=sentiment, source=source)


def load_lexicon_sources(paths, language_code: str) -> list[RawLexiconEntry]:
    """Read raw entries from one or more lexicon TSVs, keeping duplicates.

    The source name recorded on each entry is the file stem; duplicates across
    files are preserved so the merge step can see every conflicting claim.
    """
    entries: list[RawLexiconEntry] = []
    for path in paths:
        source = Path(path).stem
        for lineno, (lemma, label) in read_tsv(path, "lemma<TAB>class"):
            entries.append(RawLexiconEntry(lemma, _sentiment_class(label, path, lineno), source))
    return entries


class SentimentLexicon(FrozenRecord):
    """Three pairwise-disjoint lemma sets for one language, with per-lemma provenance."""

    def __init__(self, language_code: str, lists: dict[SentimentClass, frozenset[Lemma]],
                 provenance: dict[Lemma, tuple[str, ...]] | None = None):
        lists = {cls: frozenset(lists.get(cls, frozenset())) for cls in SentimentClass}
        classes = list(SentimentClass)
        class_of: dict[Lemma, SentimentClass] = {}
        clashes = []  # (rank of the earlier class, rank of the later, lemma)
        for rank, cls in enumerate(classes):
            clashes += [(classes.index(class_of[lemma]), rank, lemma)
                        for lemma in lists[cls] & class_of.keys()]
            class_of.update(dict.fromkeys(lists[cls], cls))
        if clashes:
            a, b, lemma = min(clashes)
            raise ValidationError(f"lexicon lists not disjoint: {lemma!r} in both "
                                  f"{classes[a].value} and {classes[b].value}")
        self.__dict__.update(language_code=language_code, lists=lists,
                             provenance={} if provenance is None else provenance,
                             _class_of=class_of)

    def class_of(self, lemma: Lemma) -> SentimentClass | None:
        return self._class_of.get(lemma)


def find_conflicts(raws: list[RawLexiconEntry]) -> dict[Lemma, set[SentimentClass]]:
    """Lemmas claimed by more than one sentiment class across the raw entries."""
    claims: dict[Lemma, set[SentimentClass]] = {}
    for entry in raws:
        claims.setdefault(entry.lemma, set()).add(entry.sentiment)
    return {lemma: classes for lemma, classes in claims.items() if len(classes) > 1}


def merge_disjoint(raws: list[RawLexiconEntry],
                   priority: tuple[SentimentClass, ...] = DEFAULT_PRIORITY,
                   *, language_code: str = "") -> SentimentLexicon:
    """Merge raw entries into disjoint lists, resolving conflicts by class priority.

    A lemma claimed by several classes goes to the earliest claimed class in
    `priority`. Provenance keeps every source that listed the lemma, including
    sources whose class lost the conflict.
    """
    if sorted(priority) != sorted(SentimentClass):
        raise ValidationError(f"priority must be a permutation of the three classes: {priority}")
    rank = {cls: i for i, cls in enumerate(priority)}
    winner: dict[Lemma, SentimentClass] = {}
    sources: dict[Lemma, set[str]] = {}
    for entry in raws:
        held = winner.setdefault(entry.lemma, entry.sentiment)
        if rank[entry.sentiment] < rank[held]:
            winner[entry.lemma] = entry.sentiment
        sources.setdefault(entry.lemma, set()).add(entry.source)
    lists: dict[SentimentClass, set[Lemma]] = {cls: set() for cls in SentimentClass}
    for lemma, cls in winner.items():
        lists[cls].add(lemma)
    return SentimentLexicon(language_code, lists,
                            {lemma: tuple(sorted(srcs)) for lemma, srcs in sources.items()})


class Concept(FrozenRecord):
    """One concept: synonym lemmas on each language side, sharing a sentiment class.

    Lemma order follows the concept-map file and is meaningful: position aligns
    source variants with their default target rendering.
    """

    def __init__(self, concept_id: str, sentiment: SentimentClass,
                 source_lemmas: tuple[Lemma, ...], target_lemmas: tuple[Lemma, ...]):
        if not source_lemmas or not target_lemmas:
            raise ValidationError(f"concept {concept_id!r} has an empty lemma set")
        for side_name, lemmas in (("source", source_lemmas), ("target", target_lemmas)):
            if len(set(lemmas)) != len(lemmas):
                raise ValidationError(f"concept {concept_id!r} repeats a {side_name} lemma")
        self.__dict__.update(concept_id=concept_id, sentiment=sentiment,
                             source_lemmas=source_lemmas, target_lemmas=target_lemmas)

    def lemmas(self, side: Side) -> tuple[Lemma, ...]:
        side = member("side", side, Side)
        return self.source_lemmas if side is Side.SOURCE else self.target_lemmas


class ConceptMap(FrozenRecord):
    """Bilingual synonym structure keyed by concept id."""

    def __init__(self, source_language: str, target_language: str,
                 concepts: dict[str, Concept] | None = None):
        concepts = {} if concepts is None else concepts
        for side in Side:
            seen: dict[Lemma, str] = {}
            for cid in concepts:
                for lemma in concepts[cid].lemmas(side):
                    if lemma in seen:
                        raise ValidationError(
                            f"lemma {lemma!r} appears in two concepts on the {side.value} "
                            f"side: {seen[lemma]!r} and {cid!r}")
                    seen[lemma] = cid
        self.__dict__.update(source_language=source_language, target_language=target_language,
                             concepts=concepts)

    def check_language(self, language_code: str, side: Side) -> None:
        """Raise ValidationError unless `side` of the map is in `language_code`."""
        side = member("side", side, Side)
        check_language("stratum", language_code, f"the {side.value} side of the concept map",
                       self.source_language if side is Side.SOURCE else self.target_language)

    def lemmas(self, side: Side) -> frozenset[Lemma]:
        out: set[Lemma] = set()
        for concept in self.concepts.values():
            out.update(concept.lemmas(side))
        return frozenset(out)


def load_concept_map(path, source_lexicon: SentimentLexicon,
                     target_lexicon: SentimentLexicon) -> ConceptMap:
    """Read a concept-map TSV and validate it against both lexicons.

    Format: `concept_id<TAB>class<TAB>src1,src2,...<TAB>tgt1,tgt2,...`; each
    list item is stripped and empty items are skipped. Every listed lemma must
    be in the matching lexicon under the concept's class.
    """
    concepts: dict[str, Concept] = {}
    rows = read_tsv(path, "concept_id<TAB>class<TAB>src,...<TAB>tgt,...")
    for lineno, (cid, cls_label, src_field, tgt_field) in rows:
        sentiment = _sentiment_class(cls_label, path, lineno)
        if cid in concepts:
            raise ValidationError(f"{path}:{lineno}: duplicate concept id {cid!r}")
        src, tgt = (tuple(s for s in map(str.strip, listed.split(",")) if s)
                    for listed in (src_field, tgt_field))
        concept = Concept(cid, sentiment, src, tgt)
        for side, lexicon, lemmas in (
                (Side.SOURCE, source_lexicon, src), (Side.TARGET, target_lexicon, tgt)):
            for lemma in lemmas:
                found = lexicon.class_of(lemma)
                if found is None:
                    raise ValidationError(
                        f"{path}:{lineno}: lemma {lemma!r} on the {side.value} side is "
                        f"absent from the {lexicon.language_code!r} lexicon")
                if found is not sentiment:
                    raise ValidationError(
                        f"{path}:{lineno}: lemma {lemma!r} is {found.value} in the "
                        f"{lexicon.language_code!r} lexicon but concept {cid!r} is "
                        f"{sentiment.value}")
        concepts[cid] = concept
    return ConceptMap(source_lexicon.language_code, target_lexicon.language_code, concepts)
