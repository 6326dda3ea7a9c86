"""Corpus loading: tokenization, dictionary lemmatization, and stratified organization.

Texts come in through a JSON manifest that assigns each file a language, a
translation kind, and free-form grouping keys (term, summit, author, ...).
Documents sharing all three land in the same stratum. Texts, lemma
dictionaries and every manifest string but the paths are brought to Unicode
normal form NFC, so a decomposed letter never splits a word or a stratum. Each
text is counted as it is read: a loaded document is a bag of lemmas, so memory
grows with the vocabulary, not with the tokens. The file readers live in
`inputs`, which every command loads; only the commands that read or write a
corpus load this module.
"""

import contextlib
import json
import re
import sys
import unicodedata
from collections import Counter
from functools import cached_property
from pathlib import Path

from .errors import PATH, FrozenRecord, IngestError, Record, ValidationError, check
from .inputs import Lemma, TranslationKind, read_json, read_text, read_tsv, sha256_hex


# The code points where `str.split()` cuts: exactly those for which `str.isspace()` holds.
_WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
               "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
               "\u2028\u2029\u202f\u205f\u3000")


class LangProfile(FrozenRecord):
    """Per-language tokenizer settings: which code points count as word characters.

    The merged code-point ranges compile to one regex character class, so a
    token is a maximal run of word characters found by a single `findall`.
    `_splits_at_whitespace` holds when no whitespace character is a word
    character, so that no token crosses a `str.split()` cut.
    """

    def __init__(self, language_code: str, letter_classes: tuple[tuple[int, int], ...],
                 case_fold: bool = True):
        if not language_code:
            raise ValidationError("language_code must be non-empty")
        if not letter_classes:
            raise ValidationError("letter_classes must be non-empty")
        merged = _merge_ranges(letter_classes)
        # \U escapes spell every range end, so "-", "]", "\\" and "^" need no escaping
        char_class = "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in merged)
        word_run = re.compile(f"[{char_class}]+")
        self.__dict__.update(language_code=language_code, letter_classes=merged,
                             case_fold=case_fold, _word_run=word_run,
                             _splits_at_whitespace=word_run.search(_WHITESPACE) is None)

    @classmethod
    def from_letters(cls, language_code: str, letters, case_fold: bool = True) -> "LangProfile":
        """Build a profile from specs like "a-z" (range) or "äöüß" (literal characters)."""
        ranges: list[tuple[int, int]] = []
        for spec in letters:
            if len(spec) == 3 and spec[1] == "-":
                lo, hi = ord(spec[0]), ord(spec[2])
                if lo > hi:
                    raise ValidationError(f"invalid letter range: {spec!r}")
                ranges.append((lo, hi))
            elif spec:
                ranges.extend((ord(c), ord(c)) for c in spec)
            else:
                raise ValidationError("empty letter spec")
        return cls(language_code, tuple(ranges), case_fold)


def _merge_ranges(ranges) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(ranges):
        if not 0 <= lo <= hi <= sys.maxunicode:
            raise ValidationError(f"invalid code point range: ({lo}, {hi})")
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


# "А-я" covers the contiguous upper+lower Cyrillic block; Ё/ё sit outside it.
DEFAULT_PROFILES: dict[str, LangProfile] = {
    "en": LangProfile.from_letters("en", ["A-Z", "a-z"]),
    "ru": LangProfile.from_letters("ru", ["А-я", "Ё", "ё"]),
}


def default_profile(language_code: str) -> LangProfile:
    try:
        return DEFAULT_PROFILES[language_code]
    except KeyError:
        raise ValidationError(f"unknown language_code: {language_code!r}") from None


def tokenize(text: str, profile: LangProfile) -> list[str]:
    """Split NFC-normalized text into maximal runs of word characters.

    Everything else separates. Case folding applies per token, after the split:
    folding the text first could move token boundaries (e.g. "ß" folds to "ss").
    """
    tokens = profile._word_run.findall(unicodedata.normalize("NFC", text))
    if profile.case_fold:
        tokens = list(map(str.casefold, tokens))
    return tokens


class LemmaDict(FrozenRecord):
    """Surface-form to lemma lookup with identity fallback for unknown forms."""

    def __init__(self, language_code: str, entries: dict[str, str] | None = None):
        entries = {} if entries is None else entries
        for surface, lemma in entries.items():
            if not lemma:
                raise ValidationError(f"empty lemma for surface form {surface!r}")
        self.__dict__.update(language_code=language_code, entries=entries)

    @classmethod
    def load(cls, path, language_code: str, case_fold: bool = True) -> "LemmaDict":
        """Read a TSV of `surface<TAB>lemma` pairs (see `read_tsv`).

        Surface forms are casefolded when the language's profile folds tokens,
        so an entry meets the tokens it was written for. A surface form listed
        again with a different lemma is a ValidationError.
        """
        entries: dict[str, str] = {}
        for lineno, (surface, lemma) in read_tsv(path, "surface<TAB>lemma"):
            if case_fold:
                surface = surface.casefold()
            if entries.setdefault(surface, lemma) != lemma:
                raise ValidationError(f"{path}:{lineno}: surface form {surface!r} repeated "
                                      f"with a different lemma")
        return cls(language_code, entries)


def lemmatize(tokens: list[str], lemma_dict: LemmaDict) -> list[Lemma]:
    """Map each token through the dictionary; unknown tokens pass through unchanged."""
    return list(map(lemma_dict.entries.get, tokens, tokens))


class Document(FrozenRecord):
    """A text as a bag of lemmas: counts in first-occurrence order, and their total.

    `lemmas` keeps the lemma sequence of a generated document, which
    `save_corpus` writes out as is; a document read from a file keeps only its
    counts.
    """

    def __init__(self, id: str, counts: Counter, lemmas: tuple[Lemma, ...] | None = None):
        self.__dict__.update(id=id, counts=counts, lemmas=lemmas,
                             total_word_count=sum(counts.values()))

    @classmethod
    def from_lemmas(cls, doc_id: str, lemmas) -> "Document":
        lemmas = tuple(lemmas)
        return cls(doc_id, Counter(lemmas), lemmas)

    @classmethod
    def from_text(cls, doc_id: str, text: str, profile: LangProfile,
                  lemma_dict: LemmaDict | None = None) -> "Document":
        """Count the text's whitespace-separated chunks, a bounded block at a
        time, tokenize each distinct chunk once, then lemmatize each distinct
        form once; the counts are those of `lemmatize(tokenize(text, profile))`,
        in first-occurrence order. `load_corpus` resolves chunks the same way
        through one table per language, so a chunk is tokenized once per corpus.
        """
        from .chunks import ChunkTable
        return cls(doc_id, ChunkTable(profile, lemma_dict).count(text))


def _claim_id(doc_id: str, seen: set[str]) -> None:
    """Add a document id to `seen`; an id already there is a ValidationError."""
    if doc_id in seen:
        raise ValidationError(f"duplicate document id: {doc_id!r}")
    seen.add(doc_id)


class CorpusStratum(Record):
    """A sub-corpus sharing language, translation kind, and grouping keys.

    Treated as immutable after construction; lemma counts and the label are cached.
    """

    def __init__(self, language_code: str, translation_kind: TranslationKind,
                 group_keys: dict[str, str] | None = None,
                 documents: list[Document] | None = None):
        self.language_code = language_code
        self.translation_kind = translation_kind
        self.group_keys = {} if group_keys is None else group_keys
        self.documents = [] if documents is None else documents
        seen: set[str] = set()
        for doc_id in sorted(d.id for d in self.documents):  # names the least repeated id
            _claim_id(doc_id, seen)

    @property
    def total_word_count(self) -> int:
        return sum(d.total_word_count for d in self.documents)

    @cached_property
    def _lemma_counts(self) -> Counter:
        if len(self.documents) == 1:  # every caller only reads it
            return self.documents[0].counts
        counts: Counter = Counter()
        for doc in self.documents:
            counts.update(doc.counts)
        return counts

    def lemma_counts(self) -> Counter:
        return self._lemma_counts

    @cached_property
    def label(self) -> str:
        parts = [self.language_code, self.translation_kind.value]
        if self.group_keys:
            parts.append(",".join(f"{k}={v}" for k, v in sorted(self.group_keys.items())))
        return "/".join(parts)


# The spec (see `errors.check`) of each manifest key; an optional key that is absent or
# null takes its default.
_MANIFEST_TYPES = {
    "documents": [{"path": PATH, "id": str, "language": str,
                   "translation_kind": TranslationKind, "group_keys": {str: str}}],
    "lemma_dicts": {str: PATH},
    "profiles": {str: {"letters": [str], "case_fold": bool}},
}


def _parse_profiles(spec: dict) -> dict[str, LangProfile]:
    profiles = dict(DEFAULT_PROFILES)
    for code, body in spec.items():
        if not body.get("letters"):
            raise ValidationError(f"profile for {code!r} needs a non-empty 'letters' list")
        profiles[code] = LangProfile.from_letters(code, body["letters"],
                                                  body.get("case_fold", True))
    return profiles


def load_corpus(manifest_path, read: list | None = None) -> list[CorpusStratum]:
    """Read a manifest, ingest every listed file, and partition documents into strata.

    Manifest format (JSON)::

        {
          "lemma_dicts": {"ru": "dicts/ru.tsv"},          # optional
          "profiles": {"de": {"letters": ["a-z", "äöüß"]}},  # optional
          "documents": [
            {"path": "texts/a.txt", "id": "a", "language": "ru",
             "translation_kind": "source", "group_keys": {"term": "2000-2003"}}
          ]
        }

    Relative paths resolve against the manifest's directory. Every value is
    checked against `_MANIFEST_TYPES`: strings (ids, languages, group keys and
    values, profile letters) are read in NFC, paths as written, and a value of
    the wrong JSON type is a ValidationError; a listed file that cannot be read or
    decoded is an IngestError naming the manifest. A group key named after a
    document field (`language`, `translation_kind`) and group keys that give two
    strata one label are ValidationErrors. Each text is counted into its
    document as it is read and dropped before the next is read. The texts of one
    language resolve their chunks through one table, dropped when this returns:
    a chunk is tokenized once per corpus, and equal lemmas are one object across
    the documents. `read`, when given, gets the path of each lemma dictionary and
    text as it is read.
    """
    manifest_path = Path(manifest_path)
    manifest = check("", read_json(manifest_path), _MANIFEST_TYPES)
    if "documents" not in manifest:
        raise ValidationError(f"{manifest_path}: manifest must contain a 'documents' list")
    try:
        return _load_documents(manifest, manifest_path.parent, [] if read is None else read)
    except IngestError as exc:
        raise IngestError(f"{manifest_path}: {exc}") from None


def _load_documents(manifest: dict, base: Path, read: list) -> list[CorpusStratum]:
    from .chunks import ChunkTable
    # base / path is path itself when path is absolute
    profiles = _parse_profiles(manifest.get("profiles", {}))
    lemma_dicts: dict[str, LemmaDict] = {}
    for code, rel in manifest.get("lemma_dicts", {}).items():
        profile = profiles.get(code)
        read.append(base / rel)
        lemma_dicts[code] = LemmaDict.load(read[-1], code, profile is None or profile.case_fold)

    seen_ids: set[str] = set()
    tables: dict[str, ChunkTable] = {}
    grouped: dict[tuple, list[Document]] = {}
    for i, entry in enumerate(manifest["documents"]):
        for required in ("path", "id", "language", "translation_kind"):
            if required not in entry:
                raise ValidationError(f"documents[{i}] is missing field {required!r}")
        doc_id, language, kind = entry["id"], entry["language"], entry["translation_kind"]
        _claim_id(doc_id, seen_ids)
        if language not in profiles:
            raise ValidationError(f"unknown language_code: {language!r}")
        group_keys = entry.get("group_keys", {})
        for field_name in ("language", "translation_kind"):
            if field_name in group_keys:  # grouping by it reads the document's own field
                raise ValidationError(f"documents[{i}].group_keys.{field_name}: a group key "
                                      f"may not share its name with a document field")

        if language not in tables:
            tables[language] = ChunkTable(profiles[language], lemma_dicts.get(language))
        read.append(base / entry["path"])
        doc = Document(doc_id, tables[language].count(read_text(read[-1], entry["path"])))

        grouped.setdefault((language, kind, tuple(sorted(group_keys.items()))), []).append(doc)

    strata = [CorpusStratum(language, kind, dict(items), grouped[language, kind, items])
              for language, kind, items in sorted(grouped)]
    labelled: dict[str, CorpusStratum] = {}
    for stratum in strata:  # the bundle and the ANOVA tell strata apart by label
        other = labelled.setdefault(stratum.label, stratum)
        if other is not stratum:
            raise ValidationError(f"group keys {other.group_keys} and {stratum.group_keys} "
                                  f"give two strata one label: {stratum.label!r}")
    return strata


def group_strata(strata: list[CorpusStratum],
                 keys: tuple[str, ...]) -> dict[tuple[str, ...], list[CorpusStratum]]:
    """Partition strata by their values of `keys` (grouping keys, "language" or
    "translation_kind"), in sorted order of those values.

    Members keep their input order; a stratum lacking one of the keys is left out.
    """
    groups: dict[tuple[str, ...], list[CorpusStratum]] = {}
    for stratum in strata:
        # the document's own fields win; `load_corpus` refuses a group key named after one
        fields = {**stratum.group_keys, "language": stratum.language_code,
                  "translation_kind": stratum.translation_kind.value}
        values = tuple(fields.get(key) for key in keys)
        if None not in values:
            groups.setdefault(values, []).append(stratum)
    return {values: groups[values] for values in sorted(groups)}


_PLAIN_ID = re.compile(r"[A-Za-z0-9._-]*")


def _document_filename(doc_id: str) -> str:
    """A file name no other id maps to (barring a 64-bit hash collision), <= 181 UTF-8 bytes.

    A plain id names its file as is. Any other id gets a readable stem (other
    characters as "_", at most 40 of them) plus "~" and a 64-bit hash of the
    whole id; plain ids never contain "~", so the two kinds cannot meet.
    """
    if _PLAIN_ID.fullmatch(doc_id):
        return f"{doc_id}.txt"
    stem = "".join(c if c.isalnum() or c in "._-" else "_" for c in doc_id[:40])
    digest = sha256_hex(doc_id.encode("utf-8", "surrogatepass"))[:16]
    return f"{stem}~{digest}.txt"


@contextlib.contextmanager
def remove_on_failure(written: list[Path]):
    """Yield `written`; if the block raises, remove the files listed there (add each
    path before writing it, so that a half-written file goes too) and re-raise."""
    try:
        yield written
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink()
        raise


def save_corpus(strata: list[CorpusStratum], directory) -> Path:
    """Write strata as one text file per document plus `manifest.json`, ready to reload.

    Document text is the space-joined lemma sequence of a generated document,
    or each lemma of a loaded one repeated by its count in first-occurrence
    order. The manifest names no profiles or lemma dicts, so `load_corpus`
    tokenizes each lemma under its language's default profile; a lemma that
    would not come back as itself there (say `йод-лемма` or `Good`) is a
    ValidationError raised before anything is written. So is a document id that
    two strata share, whose files would overwrite each other, and a document id,
    group key or group-key value not in NFC, the form the manifest is read in.
    Otherwise the reload reproduces every document's id and lemma counts.
    A document's file is `{id}.txt` when the id is made of `[A-Za-z0-9._-]`;
    see `_document_filename` for other ids. A failed write removes those written.
    """
    checked: dict[str, set[Lemma]] = {}
    ids: set[str] = set()
    for stratum in strata:
        profile = default_profile(stratum.language_code)
        seen = checked.setdefault(stratum.language_code, set())
        for name in (*stratum.group_keys, *stratum.group_keys.values(),
                     *(doc.id for doc in stratum.documents)):
            nfc = unicodedata.normalize("NFC", name)
            if nfc != name:
                raise ValidationError(f"cannot save {name!r}: the manifest is read in NFC, "
                                      f"where it would become {nfc!r}")
        for doc in stratum.documents:
            _claim_id(doc.id, ids)
            for lemma in doc.counts:
                if lemma in seen:
                    continue
                if tokenize(lemma, profile) != [lemma]:
                    raise ValidationError(
                        f"cannot save document {doc.id!r}: lemma {lemma!r} would not reload "
                        f"as itself under the default {profile.language_code!r} profile")
                seen.add(lemma)

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    with remove_on_failure([]) as written:
        for stratum in strata:
            for doc in stratum.documents:
                fname = _document_filename(doc.id)
                lemmas = doc.lemmas if doc.lemmas is not None else doc.counts.elements()
                written.append(directory / fname)
                written[-1].write_text(" ".join(lemmas), encoding="utf-8")
                entries.append({
                    "path": fname,
                    "id": doc.id,
                    "language": stratum.language_code,
                    "translation_kind": stratum.translation_kind.value,
                    "group_keys": dict(sorted(stratum.group_keys.items())),
                })
        written.append(directory / "manifest.json")
        written[-1].write_text(json.dumps({"documents": entries}, ensure_ascii=False, indent=2,
                                          sort_keys=True) + "\n", encoding="utf-8")
    return written[-1]
