import hashlib
import json
import re
import sys
import tracemalloc
import unicodedata
from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semdrift import (CorpusStratum, Document, FrequencyTable, LangProfile, LemmaDict,
                      TranslationKind, default_profile, filler_vocab, lemmatize,
                      load_concept_map, load_corpus, load_lexicon_sources, save_corpus,
                      tokenize)
from semdrift.errors import IngestError, ValidationError
from semdrift.ingest import _WHITESPACE, group_strata, read_json, sha256_hex

from helpers import DATA, fixture_lexicons, make_stratum


def _reference_tokenize(text: str, profile: LangProfile) -> list[str]:
    """The tokenizer rule, one character at a time: maximal word-character runs of NFC text."""
    text = unicodedata.normalize("NFC", text)
    starts = [lo for lo, _ in profile.letter_classes]

    def is_word_char(ch: str) -> bool:
        idx = bisect_right(starts, ord(ch)) - 1
        return idx >= 0 and ord(ch) <= profile.letter_classes[idx][1]

    tokens: list[str] = []
    start = None
    for i, ch in enumerate(text):
        if is_word_char(ch):
            if start is None:
                start = i
        elif start is not None:
            tokens.append(text[start:i])
            start = None
    if start is not None:
        tokens.append(text[start:])
    return [t.casefold() for t in tokens] if profile.case_fold else tokens


# Range ends that are special inside a regex character class, plus astral and
# extreme code points.
_SPECIAL_CODE_POINTS = [ord(c) for c in "-]\\^[ ßİ"] + [
    0, 0xD800, 0x10000, 0x1F600, sys.maxunicode]
_code_points = st.one_of(st.sampled_from(_SPECIAL_CODE_POINTS), st.integers(0, 0x4FF),
                         st.integers(0, sys.maxunicode))
_ranges = st.lists(st.tuples(_code_points, _code_points).map(lambda r: tuple(sorted(r))),
                   min_size=1, max_size=6)


class TestTokenize:
    def test_punctuation_split_and_case_fold(self):
        assert tokenize("Он сказал: да!", default_profile("ru")) == ["он", "сказал", "да"]

    def test_empty_text(self):
        assert tokenize("", default_profile("en")) == []

    def test_digits_and_punctuation_never_form_tokens(self):
        assert tokenize("a1b 2, c-3", default_profile("en")) == ["a", "b", "c"]

    def test_hyphen_excluded_splits_compounds(self):
        assert tokenize("state-of-the-art", default_profile("en")) == \
            ["state", "of", "the", "art"]

    def test_hyphen_in_letter_class_keeps_compounds(self):
        profile = LangProfile.from_letters("en", ["a-z", "-"])
        assert tokenize("state-of-the-art", profile) == ["state-of-the-art"]

    def test_case_fold_disabled(self):
        profile = LangProfile.from_letters("en", ["A-Z", "a-z"], case_fold=False)
        assert tokenize("Hello World", profile) == ["Hello", "World"]

    @pytest.mark.parametrize("lang", ["en", "ru"])
    def test_matches_hand_tokenized_fixture(self, lang):
        text = (DATA / f"tokenize_fixture_{lang}.txt").read_text(encoding="utf-8")
        expected = (DATA / f"tokenize_expected_{lang}.txt").read_text(
            encoding="utf-8").splitlines()
        assert tokenize(text, default_profile(lang)) == expected

    @given(st.text(max_size=200))
    def test_tokens_nonempty_and_folded(self, text):
        for token in tokenize(text, default_profile("en")):
            assert token
            assert token == token.casefold()

    @given(st.data())
    def test_regex_matches_per_character_rule(self, data):
        profile = LangProfile("xx", tuple(data.draw(_ranges)), data.draw(st.booleans()))
        # characters at, just inside and just outside every range end
        edges = sorted({cp + d for lo, hi in profile.letter_classes for cp in (lo, hi)
                        for d in (-1, 0, 1) if 0 <= cp + d <= sys.maxunicode})
        alphabet = st.one_of(st.sampled_from([chr(cp) for cp in edges]),
                             st.sampled_from([chr(cp) for cp in _SPECIAL_CODE_POINTS]),
                             st.characters())
        text = data.draw(st.text(alphabet, max_size=80))
        assert tokenize(text, profile) == _reference_tokenize(text, profile)

    def test_decomposed_text_tokenizes_as_composed(self):
        # NFD splits "й" into "и" plus a combining breve, which is not a letter
        nfd = unicodedata.normalize("NFD", "мой")
        assert nfd != "мой"
        assert tokenize(nfd, default_profile("ru")) == ["мой"]

    def test_case_fold_after_split(self):
        # folding the text first would turn "ß" into "ss", which is not a letter here
        profile = LangProfile.from_letters("de", ["ß"])
        assert tokenize("sßs", profile) == ["ss"]

    @pytest.mark.parametrize("bad", [(-1, 5), (0x41, sys.maxunicode + 1), (0x5A, 0x41)])
    def test_profile_rejects_invalid_code_point_range(self, bad):
        with pytest.raises(ValidationError, match="invalid code point range"):
            LangProfile("xx", (bad,))

    def test_profile_requires_letters(self):
        with pytest.raises(ValidationError):
            LangProfile("xx", ())

    def test_unknown_language(self):
        with pytest.raises(ValidationError, match="unknown language_code"):
            default_profile("tlh")

    def test_whitespace_is_where_str_split_cuts(self):
        assert set(_WHITESPACE) == {chr(c) for c in range(sys.maxunicode + 1)
                                    if chr(c).isspace()}
        assert len(_WHITESPACE) == 29

    @pytest.mark.parametrize("language", ["en", "ru"])
    def test_default_profiles_split_at_whitespace(self, language):
        assert default_profile(language)._splits_at_whitespace

    @pytest.mark.parametrize("letters", [["a-z", " "], ["a-z", "\u3000"], ["\x00-\x85"]])
    def test_profile_with_a_whitespace_letter_does_not_split(self, letters):
        assert not LangProfile.from_letters("xx", letters)._splits_at_whitespace


class TestLemmatize:
    def test_lookup_with_identity_fallback(self):
        d = LemmaDict("en", {"said": "say", "books": "book"})
        assert lemmatize(["said", "good", "books"], d) == ["say", "good", "book"]

    def test_empty_input(self):
        assert lemmatize([], LemmaDict("en")) == []

    def test_russian_fixture_entries(self):
        d = LemmaDict("ru", {"сказал": "сказать", "хорошие": "хороший"})
        assert lemmatize(["сказал", "хорошие"], d) == ["сказать", "хороший"]

    def test_empty_dict_is_identity(self):
        tokens = ["any", "tokens", "at", "all"]
        assert lemmatize(tokens, LemmaDict("en")) == tokens

    @given(st.text(max_size=200))
    def test_length_conservation(self, text):
        profile = default_profile("en")
        tokens = tokenize(text, profile)
        d = LemmaDict("en", {"said": "say", "the": "the"})
        assert len(lemmatize(tokens, d)) == len(tokens)

    def test_rejects_empty_lemma(self):
        with pytest.raises(ValidationError):
            LemmaDict("en", {"said": ""})


def _write_manifest(tmp_path, documents, **extra):
    manifest = {"documents": documents, **extra}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest, ensure_ascii=False), encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_names_differing_only_in_normal_form_are_one(self, tmp_path):
        # one stratum, not two that both print the label "en/source/année=й"
        (tmp_path / "a.txt").write_text("one", encoding="utf-8")
        path = _write_manifest(tmp_path, [
            {"path": "a.txt", "id": doc_id, "language": "en", "translation_kind": "source",
             "group_keys": {unicodedata.normalize(form, "année"):
                            unicodedata.normalize(form, "й")}}
            for doc_id, form in (("a", "NFC"), ("b", "NFD"))])
        strata = load_corpus(path)
        assert [(s.label, [d.id for d in s.documents]) for s in strata] == \
            [("en/source/année=й", ["a", "b"])]

    def test_ids_differing_only_in_normal_form_are_duplicates(self, tmp_path):
        (tmp_path / "a.txt").write_text("one", encoding="utf-8")
        path = _write_manifest(tmp_path, [
            {"path": "a.txt", "id": unicodedata.normalize(form, "й"), "language": "en",
             "translation_kind": "source"} for form in ("NFC", "NFD")])
        with pytest.raises(ValidationError, match="duplicate document id"):
            load_corpus(path)

    def test_language_meets_its_profile_and_lemma_dict_in_any_normal_form(self, tmp_path):
        (tmp_path / "a.txt").write_text("ab", encoding="utf-8")
        (tmp_path / "d.tsv").write_text("ab\tab-lemma\n", encoding="utf-8")
        nfc, nfd = (unicodedata.normalize(form, "ё") for form in ("NFC", "NFD"))
        path = _write_manifest(
            tmp_path,
            [{"path": "a.txt", "id": "a", "language": nfc, "translation_kind": "source"}],
            lemma_dicts={nfd: "d.tsv"}, profiles={nfd: {"letters": ["a-z"]}})
        [stratum] = load_corpus(path)
        assert stratum.language_code == nfc
        assert list(stratum.documents[0].counts.items()) == [("ab-lemma", 1)]

    def test_profile_letters_are_read_in_nfc(self, tmp_path):
        # decomposed, "ä" would be "a" plus a combining diaeresis that no word holds
        (tmp_path / "a.txt").write_text("Mädchen spielt", encoding="utf-8")
        path = _write_manifest(
            tmp_path,
            [{"path": "a.txt", "id": "a", "language": "de", "translation_kind": "source"}],
            profiles={"de": {"letters": ["A-Z", "a-z",
                                         unicodedata.normalize("NFD", "äöüß")]}})
        assert dict(load_corpus(path)[0].documents[0].counts) == {"mädchen": 1, "spielt": 1}

    def test_single_file_word_count(self, tmp_path):
        # 25 four-word lines, counted by hand
        (tmp_path / "a.txt").write_text("alpha beta gamma delta\n" * 25, encoding="utf-8")
        path = _write_manifest(tmp_path, [
            {"path": "a.txt", "id": "a", "language": "ru", "translation_kind": "source"}])
        # Latin text under the ru profile would vanish; declare a profile
        path.write_text(json.dumps({
            "profiles": {"ru": {"letters": ["a-z", "А-я", "Ё", "ё"]}},
            "documents": [{"path": "a.txt", "id": "a", "language": "ru",
                           "translation_kind": "source"}]}), encoding="utf-8")
        strata = load_corpus(path)
        assert len(strata) == 1
        assert strata[0].total_word_count == 100

    def test_fixture_layout(self):
        strata = load_corpus(DATA / "manifest.json")
        assert len(strata) == 12
        assert {s.language_code for s in strata} == {"ru", "en"}
        assert all(s.total_word_count > 0 for s in strata)
        kinds = {(s.language_code, s.translation_kind.value) for s in strata}
        assert kinds == {("ru", "source"), ("en", "human"), ("en", "machine")}

    def test_deterministic(self):
        a = load_corpus(DATA / "manifest.json")
        b = load_corpus(DATA / "manifest.json")
        assert [(s.label, [list(d.counts.items()) for d in s.documents]) for s in a] == \
            [(s.label, [list(d.counts.items()) for d in s.documents]) for s in b]

    def test_missing_file(self, tmp_path):
        path = _write_manifest(tmp_path, [
            {"path": "nope.txt", "id": "x", "language": "en", "translation_kind": "source"}])
        with pytest.raises(IngestError, match="file not found: nope.txt"):
            load_corpus(path)

    def test_duplicate_document_id(self, tmp_path):
        (tmp_path / "a.txt").write_text("one", encoding="utf-8")
        path = _write_manifest(tmp_path, [
            {"path": "a.txt", "id": "x", "language": "en", "translation_kind": "source"},
            {"path": "a.txt", "id": "x", "language": "en", "translation_kind": "human"}])
        with pytest.raises(ValidationError, match="duplicate document id"):
            load_corpus(path)

    def test_first_id_listed_twice_is_named(self, tmp_path):
        (tmp_path / "a.txt").write_text("one", encoding="utf-8")
        path = _write_manifest(tmp_path, [
            {"path": "a.txt", "id": doc_id, "language": "en", "translation_kind": "source"}
            for doc_id in "baba"])
        with pytest.raises(ValidationError, match=r"^duplicate document id: 'b'$"):
            load_corpus(path)

    def test_stratum_names_its_least_repeated_id(self):
        docs = [Document.from_lemmas(doc_id, ("one",)) for doc_id in "baba"]
        with pytest.raises(ValidationError, match=r"^duplicate document id: 'a'$"):
            CorpusStratum("en", TranslationKind.SOURCE, {}, docs)

    def test_unknown_language(self, tmp_path):
        (tmp_path / "a.txt").write_text("one", encoding="utf-8")
        path = _write_manifest(tmp_path, [
            {"path": "a.txt", "id": "x", "language": "xx", "translation_kind": "source"}])
        with pytest.raises(ValidationError, match="unknown language_code"):
            load_corpus(path)

    def test_unknown_translation_kind(self, tmp_path):
        (tmp_path / "a.txt").write_text("one", encoding="utf-8")
        path = _write_manifest(tmp_path, [
            {"path": "a.txt", "id": "x", "language": "en", "translation_kind": "robot"}])
        with pytest.raises(ValidationError, match=re.escape(
                "documents[0].translation_kind must be one of 'source', 'human', 'machine', "
                "got 'robot'")):
            load_corpus(path)

    def test_lemma_dict_applied(self, tmp_path):
        (tmp_path / "a.txt").write_text("He said things", encoding="utf-8")
        (tmp_path / "d.tsv").write_text("said\tsay\n", encoding="utf-8")
        path = _write_manifest(
            tmp_path,
            [{"path": "a.txt", "id": "a", "language": "en", "translation_kind": "source"}],
            lemma_dicts={"en": "d.tsv"})
        strata = load_corpus(path)
        doc = strata[0].documents[0]
        assert list(doc.counts.items()) == [("he", 1), ("say", 1), ("things", 1)]
        assert doc.lemmas is None

    def test_decomposed_text_and_lemma_dict_are_normalized(self, tmp_path):
        (tmp_path / "a.txt").write_text(unicodedata.normalize("NFD", "мой Йод"),
                                        encoding="utf-8")
        (tmp_path / "d.tsv").write_text(unicodedata.normalize("NFD", "йод\tйод-лемма\n"),
                                        encoding="utf-8")
        path = _write_manifest(
            tmp_path,
            [{"path": "a.txt", "id": "a", "language": "ru", "translation_kind": "source"}],
            lemma_dicts={"ru": "d.tsv"})
        assert list(load_corpus(path)[0].documents[0].counts.items()) == \
            [("мой", 1), ("йод-лемма", 1)]

    def test_lemma_dict_follows_a_non_folding_profile(self, tmp_path):
        (tmp_path / "a.txt").write_text("Haus haus", encoding="utf-8")
        (tmp_path / "d.tsv").write_text("Haus\thaus-lemma\n", encoding="utf-8")
        path = _write_manifest(
            tmp_path,
            [{"path": "a.txt", "id": "a", "language": "de", "translation_kind": "source"}],
            lemma_dicts={"de": "d.tsv"},
            profiles={"de": {"letters": ["A-Z", "a-z"], "case_fold": False}})
        assert dict(load_corpus(path)[0].documents[0].counts) == {"haus-lemma": 1, "haus": 1}

    def test_manifest_must_be_a_json_object(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=re.escape(f"{path}: the top level must be a JSON object")):
            load_corpus(path)


class TestReadJson:
    def test_a_key_repeated_as_written_is_an_error(self, tmp_path):
        # json alone would keep the last value; keys equal only after NFC are an error too
        # (TestNormalForms in test_cli.py)
        path = tmp_path / "keys.json"
        path.write_text('{"g": {"année": "a", "année": "b"}}', encoding="utf-8")
        message = f"{path}: object key 'année' is written twice"
        with pytest.raises(ValidationError, match=re.escape(message)):
            read_json(path)

    @pytest.mark.parametrize("text", ['{"a": ' + "9" * 5000 + "}",
                                      '{"a": ' + "[" * 100_000 + "]" * 100_000 + "}"],
                             ids=["integer-of-5000-digits", "lists-100000-deep"])
    def test_beyond_the_parser_limits_is_invalid_json(self, tmp_path, text):
        path = tmp_path / "big.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: invalid JSON: ")):
            read_json(path)


@given(st.binary(max_size=300))
@example(b"")
@example(b"x" * 55)  # the longest input whose padding fits in its one 64-byte block
@example(b"x" * 56)  # the shortest whose padding needs a second block
@example(b"x" * 64)  # one whole block, padded in the next
@example(bytes(range(256)) * 5)  # 20 blocks
def test_sha256_hex_is_hashlibs_digest(data):
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


class TestByteOrderMark:
    """A file saved with a UTF-8 byte order mark reads as the same file saved without one:
    the mark never becomes part of the first row's first field."""

    @pytest.mark.parametrize("rows, load", [
        ("good\tgood-lemma\n", lambda p: LemmaDict.load(p, "en")),
        ("good\tpositive\n", lambda p: load_lexicon_sources([p], "en")),
        ("good\t123.5\n", lambda p: FrequencyTable.load(p, "en")),
        ("good\tpositive\tхороший,добрый\tgood\n",
         lambda p: load_concept_map(p, *fixture_lexicons())),
    ], ids=["lemma-dict", "lexicon", "frequency-table", "concept-map"])
    def test_tsv_resource(self, tmp_path, rows, load):
        for encoding in ("utf-8", "utf-8-sig"):
            (tmp_path / encoding).mkdir()
            (tmp_path / encoding / "r.tsv").write_text(rows, encoding=encoding)
        marked = load(tmp_path / "utf-8-sig" / "r.tsv")
        assert marked == load(tmp_path / "utf-8" / "r.tsv")
        assert "\ufeff" not in repr(marked)

    def test_manifest(self, tmp_path):
        (tmp_path / "a.txt").write_text("good words", encoding="utf-8")
        documents = [{"path": "a.txt", "id": "a", "language": "en",
                      "translation_kind": "source"}]
        plain = load_corpus(_write_manifest(tmp_path, documents))
        marked = tmp_path / "marked.json"
        marked.write_text(json.dumps({"documents": documents}), encoding="utf-8-sig")
        assert load_corpus(marked) == plain

    @pytest.mark.parametrize("data, offset", [
        (b"\xef\xbb\xbfab\xff", 5), (b"ab\xff", 2), (b"\xef\xbb\xbf\xff", 3),
        (b"\xef\xbb\xff", 0),  # a partial mark is no mark, but bytes that do not decode
    ], ids=["marked", "unmarked", "right-after-the-mark", "partial-mark"])
    def test_an_undecodable_byte_is_named_by_its_offset_in_the_file(self, tmp_path, data,
                                                                    offset):
        (tmp_path / "d.tsv").write_bytes(data)
        with pytest.raises(IngestError, match=rf"d\.tsv: not UTF-8 text \(byte {offset}\)$"):
            LemmaDict.load(tmp_path / "d.tsv", "en")


class TestLemmaDictLoad:
    @pytest.mark.parametrize("rows, case_fold, line, key", [
        ("go\tgo1\ngo\tgo2\n", True, 2, "go"),
        ("go\tgo1\nGo\tgo3\n", True, 2, "go"),
        ("Go\tgo1\n# note\nGo\tgo3\n", False, 3, "Go"),
    ], ids=["same-form", "same-after-folding", "not-folded"])
    def test_surface_form_repeated_with_another_lemma_rejected(self, tmp_path, rows,
                                                                case_fold, line, key):
        p = tmp_path / "d.tsv"
        p.write_text(rows, encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(f"{p}:{line}: surface form {key!r}")):
            LemmaDict.load(p, "en", case_fold)

    def test_exact_repeat_and_distinct_case_accepted(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("go\tgo1\ngo\tgo1\nGo\tgo3\n", encoding="utf-8")
        assert LemmaDict.load(p, "de", case_fold=False).entries == {"go": "go1", "Go": "go3"}
        with pytest.raises(ValidationError, match="repeated with a different lemma"):
            LemmaDict.load(p, "en")


def _lexicon_rows(path):
    return [(e.lemma, e.sentiment.value) for e in load_lexicon_sources([path], "en")]


def _concept_rows(path):
    cmap = load_concept_map(path, *fixture_lexicons())
    return {cid: (c.sentiment.value, c.source_lemmas, c.target_lemmas)
            for cid, c in cmap.concepts.items()}


# loader, a row with padded fields, what that row loads as, the loader's column spec
_TSV_LOADERS = {
    "lemma-dict": (lambda p: LemmaDict.load(p, "en").entries, "said \t say",
                   {"said": "say"}, "surface<TAB>lemma"),
    "lexicon": (_lexicon_rows, "good\u3000\tpositive ", [("good", "positive")],
                "lemma<TAB>class"),
    "concept-map": (_concept_rows, "say \t epistemic\t сказать,говорить \t say",
                    {"say": ("epistemic", ("сказать", "говорить"), ("say",))},
                    "concept_id<TAB>class<TAB>src,...<TAB>tgt,..."),
    "frequency-table": (lambda p: FrequencyTable.load(p, "en").freqs, "good \t 10",
                        {"good": 10.0}, "lemma<TAB>per_million"),
}


@pytest.mark.parametrize("kind", sorted(_TSV_LOADERS))
def test_tsv_loaders_strip_fields_and_name_the_line_of_a_bad_row(tmp_path, kind):
    load, row, loaded, columns = _TSV_LOADERS[kind]
    p = tmp_path / f"{kind}.tsv"
    p.write_text(f"# header\n\n{row}\n", encoding="utf-8")
    assert load(p) == loaded
    p.write_text(f"# header\n\n{row}\n{row}\textra\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"{p}:4: expected '{columns}'")):
        load(p)


@pytest.mark.parametrize("control", ["\x00", "\x07", "\x0b", "\x1b", "\x7f", "\x80",
                                     "\x85", "\x9f", "\u2028", "\u2029"])
@pytest.mark.parametrize("kind", sorted(_TSV_LOADERS))
def test_tsv_loaders_refuse_a_control_character(tmp_path, kind, control):
    # a lemma like "a\x00b" would load, and no token could ever match it; U+0085, U+2028
    # and U+2029 would also end a row for `str.splitlines`, splitting it in two and
    # moving the line number of every later row
    load, row, _, _ = _TSV_LOADERS[kind]
    p = tmp_path / f"{kind}.tsv"
    p.write_text(f"# header\r\n\n{row}\n{row[0]}{control}{row[1:]}\n{row}\n",
                 encoding="utf-8")
    message = f"{p}:4: control character U+{ord(control):04X}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        load(p)


def _word_counts(groups):
    return {values: sum(m.total_word_count for m in members)
            for values, members in groups.items()}


class TestStratify:
    """Regrouping strata with `group_strata`."""

    def test_regroup_is_additive(self):
        strata = [s for s in load_corpus(DATA / "manifest.json") if s.language_code == "ru"]
        merged = _word_counts(group_strata(strata, ("summit",)))
        assert list(merged) == [("G20",), ("G8",)]
        assert sum(merged.values()) == sum(s.total_word_count for s in strata)

    def test_regroup_by_language(self):
        strata = load_corpus(DATA / "manifest.json")
        groups = group_strata(strata, ("language",))
        assert list(groups) == [("en",), ("ru",)]
        for (code,), members in groups.items():
            assert members == [s for s in strata if s.language_code == code]

    def test_stratum_lacking_a_key_is_left_out(self):
        a = make_stratum(["say"], group_keys={"summit": "G8"})
        b = make_stratum(["tell"], group_keys={"term": "2000"}, doc_id="doc-2")
        c = make_stratum(["good"], group_keys={"summit": "G8"}, doc_id="doc-3")
        assert group_strata([a, b, c], ("summit",)) == {("G8",): [a, c]}
        assert group_strata([a, b, c], ("summit", "term")) == {}

    def test_conservation_over_every_key(self):
        strata = [s for s in load_corpus(DATA / "manifest.json")
                  if s.language_code == "en"]
        total = sum(s.total_word_count for s in strata)
        for key in ("summit", "term", "translation_kind", "language"):
            merged = _word_counts(group_strata(strata, (key,)))
            assert sum(merged.values()) == total


class TestSaveCorpus:
    def test_round_trip_preserves_lemma_counts(self, tmp_path):
        stratum = make_stratum(["say", "tell", "say", "good"], language="en")
        manifest = save_corpus([stratum], tmp_path / "corpus")
        reloaded = load_corpus(manifest)
        assert len(reloaded) == 1
        assert reloaded[0].lemma_counts() == stratum.lemma_counts()

    def test_ids_differing_only_in_separators_get_their_own_files(self, tmp_path):
        words = {"a/b": "alpha", "a_b": "beta", "a?b": "gamma", "й" * 200: "delta"}
        docs = [Document.from_lemmas(i, (w,)) for i, w in words.items()]
        stratum = CorpusStratum("en", TranslationKind.SOURCE, {}, docs)
        manifest = save_corpus([stratum], tmp_path)
        paths = [d["path"] for d in json.loads(manifest.read_text("utf-8"))["documents"]]
        assert paths[1] == "a_b.txt"
        assert paths[0].startswith("a_b~") and paths[2].startswith("a_b~")
        assert len(set(paths)) == 4
        counts = {d.id: list(d.counts.items()) for d in load_corpus(manifest)[0].documents}
        assert counts == {i: [(w, 1)] for i, w in words.items()}

    @pytest.mark.parametrize("group_keys, doc_id", [
        ({}, "\uf900"), ({"summit": "\uf900"}, "a"), ({"e\u0301t\u00e9": "1"}, "a")],
        ids=["id", "group-key-value", "group-key"])
    def test_name_not_in_nfc_is_refused_before_writing(self, tmp_path, group_keys, doc_id):
        # U+F900 and "e" + combining acute both change under NFC
        stratum = CorpusStratum("en", TranslationKind.SOURCE, group_keys,
                                [Document.from_lemmas(doc_id, ("alpha",))])
        with pytest.raises(ValidationError, match="the manifest is read in NFC"):
            save_corpus([stratum], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_id_two_strata_share_is_refused_before_writing(self, tmp_path):
        # both documents would be written to a.txt, and load_corpus refuses such a manifest
        source = make_stratum(["alpha"], doc_id="a")
        human = make_stratum(["beta"], kind=TranslationKind.HUMAN, doc_id="a")
        with pytest.raises(ValidationError, match=r"^duplicate document id: 'a'$"):
            save_corpus([source, human], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_plain_ids_keep_their_name(self, tmp_path):
        doc = Document.from_lemmas("synthetic-source-seed7.v2", ("alpha",))
        save_corpus([CorpusStratum("en", TranslationKind.SOURCE, {}, [doc])], tmp_path)
        assert (tmp_path / "synthetic-source-seed7.v2.txt").read_text("utf-8") == "alpha"

    # short ids over separator-heavy characters are the ones a lossy name map would merge
    @given(st.dictionaries(st.one_of(st.text("a_/~.é ", max_size=3), st.text(max_size=100)),
                           st.lists(st.text("abc", min_size=1, max_size=3), max_size=4),
                           min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_keeps_each_documents_counts(self, tmp_path_factory, lemmas_by_id):
        docs = [Document.from_lemmas(i, lemmas) for i, lemmas in lemmas_by_id.items()]
        stratum = CorpusStratum("en", TranslationKind.SOURCE, {}, docs)
        directory = tmp_path_factory.mktemp("corpus")
        if any(unicodedata.normalize("NFC", i) != i for i in lemmas_by_id):
            # the manifest is read in NFC, so such an id could not come back as itself
            with pytest.raises(ValidationError, match="the manifest is read in NFC"):
                save_corpus([stratum], directory)
            assert list(directory.iterdir()) == []
            return
        manifest = save_corpus([stratum], directory)
        reloaded = {d.id: list(d.counts.items()) for s in load_corpus(manifest)
                    for d in s.documents}
        assert reloaded == {i: list(Counter(lemmas).items())
                            for i, lemmas in lemmas_by_id.items()}


# several surfaces, case variants among them, fold into one lemma
_SURFACES = LemmaDict("en", {"said": "say", "says": "say", "saying": "say",
                             "told": "tell", "tells": "tell"})
_WORDS = ["said", "Said", "SAYS", "saying", "say", "told", "Tell", "tells", "good", "Good"]
# per language: words of a loaded document, its lemma dict, lemmas of a generated one;
# "iodine-lemma", "йод-лемма", "Good" and "Мой" would not reload as themselves
_SAVED = {
    "en": (_WORDS + ["iodine"],
           LemmaDict("en", {**_SURFACES.entries, "iodine": "iodine-lemma"}),
           ["say", "tell", "good", "Good"]),
    "ru": (["мой", "Йод", "йод", "сказать"], LemmaDict("ru", {"йод": "йод-лемма"}),
           ["мой", "сказать", "Мой"]),
}


# separators: whitespace where `str.split()` cuts (U+2000 also changes under NFC),
# punctuation and digits; words in NFC or NFD, whose letters NFD may decompose
_SEPARATORS = ["\t", "\x1c", "\x85", "\xa0", "\u2000", "\u2028", "\u3000", " ", "\n",
               ", ", ".", "-", "1", "42", ""]
_TEXT_WORDS = {"en": _WORDS + ["café", "naïve"],
               "ru": ["мой", "Мой", "йод", "Йод", "ёлка", "Ёлка", "сказал"]}
_TEXT_DICTS = {"en": _SURFACES,
               "ru": LemmaDict("ru", {"йод": "йод-лемма", "ёлка": "ель", "Йод": "йод"})}


def _text_profiles(language: str) -> list[LangProfile]:
    """The default profile, one that keeps case, and one whose letters include " "."""
    default = default_profile(language)
    return [default, LangProfile(language, default.letter_classes, case_fold=False),
            LangProfile(language, default.letter_classes + ((0x20, 0x20),))]


class TestCountOnRead:
    @given(st.sampled_from(sorted(_TEXT_WORDS)).flatmap(lambda language: st.tuples(
        st.sampled_from(_text_profiles(language)),
        st.lists(st.tuples(
            st.one_of(st.tuples(st.sampled_from(_TEXT_WORDS[language]),
                                st.sampled_from(["NFC", "NFD"]))
                      .map(lambda w: unicodedata.normalize(w[1], w[0])),
                      st.text(max_size=4)),
            st.sampled_from(_SEPARATORS)), max_size=60),
        st.just(_TEXT_DICTS[language]))))
    @example((_text_profiles("ru")[2], [("мой", " "), ("йод", "")], _TEXT_DICTS["ru"]))
    def test_counts_equal_lemmatized_tokens_in_order(self, case):
        # from_text tokenizes distinct whitespace chunks; tokenize sees the whole text
        profile, pieces, lemma_dict = case
        text = "".join(word + sep for word, sep in pieces)
        doc = Document.from_text("d", text, profile, lemma_dict)
        tokens = tokenize(text, profile)
        expected = Counter(lemmatize(tokens, lemma_dict))
        assert list(doc.counts.items()) == list(expected.items())
        assert doc.total_word_count == len(tokens)
        assert doc.lemmas is None

    @given(st.sampled_from(sorted(_SAVED)).flatmap(lambda language: st.tuples(
        st.just(language), st.lists(st.sampled_from(_SAVED[language][0]), max_size=40),
        st.lists(st.sampled_from(_SAVED[language][2]), max_size=40))))
    @example(("ru", ["мой", "Йод"], []))
    @settings(max_examples=60, deadline=None)
    def test_save_and_reload_keep_counts(self, tmp_path_factory, case):
        language, words, lemmas = case
        profile = default_profile(language)
        loaded = Document.from_text("loaded", " ".join(words), profile, _SAVED[language][1])
        generated = Document.from_lemmas("generated", lemmas)
        stratum = CorpusStratum(language, TranslationKind.SOURCE, {}, [loaded, generated])
        directory = tmp_path_factory.mktemp("corpus")
        # the reload tokenizes each lemma under the default profile
        changed = [lemma for doc in (loaded, generated) for lemma in doc.counts
                   if tokenize(lemma, profile) != [lemma]]
        if changed:
            with pytest.raises(ValidationError, match=f"lemma {re.escape(repr(changed[0]))}"):
                save_corpus([stratum], directory)
            assert not any(directory.iterdir())
            return
        manifest = save_corpus([stratum], directory)
        reloaded = {d.id: list(d.counts.items()) for s in load_corpus(manifest)
                    for d in s.documents}
        assert reloaded == {d.id: list(d.counts.items()) for d in (loaded, generated)}

    def test_retained_memory_scales_with_vocabulary_not_tokens(self, tmp_path):
        vocab = filler_vocab("en", 500)

        def manifest_for(n_tokens: int):
            directory = tmp_path / str(n_tokens)
            directory.mkdir()
            # cycling the vocabulary puts every word in both corpora
            (directory / "a.txt").write_text(
                " ".join(vocab[i % len(vocab)] for i in range(n_tokens)), encoding="utf-8")
            return _write_manifest(directory, [
                {"path": "a.txt", "id": "a", "language": "en", "translation_kind": "source"}])

        def retained(manifest) -> int:
            tracemalloc.start()
            try:
                strata = load_corpus(manifest)
                assert strata[0].total_word_count > 0
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        small, large = manifest_for(10_000), manifest_for(200_000)
        load_corpus(small)  # first-use allocations (regex and JSON caches) happen here
        assert abs(retained(large) - retained(small)) < 256 * 1024


def _language_checks():
    """(name, call, message) for each caller of `ingest.check_language`."""
    from semdrift import freq, semfield, synth, vectors
    from helpers import fixture_concept_map, reference_table_en
    ru_lexicon, en_lexicon = fixture_lexicons()
    cmap = fixture_concept_map()
    en, ru = make_stratum(["say"]), make_stratum(["сказать"], language="ru")
    ru_table = FrequencyTable("ru", {"сказать": 1.0})
    params = synth.ChannelParams.machine()
    return [
        ("sentiment_stats", lambda: freq.sentiment_stats(en, ru_lexicon),
         "language mismatch: stratum is 'en' but lexicon is 'ru'"),
        ("tokens_per_lemma", lambda: freq.tokens_per_lemma(en, ru_lexicon),
         "language mismatch: stratum is 'en' but lexicon is 'ru'"),
        # the lexicon is checked before the table
        ("expected_deviation-lexicon", lambda: freq.expected_deviation(en, ru_lexicon, ru_table),
         "language mismatch: stratum is 'en' but lexicon is 'ru'"),
        ("expected_deviation-table", lambda: freq.expected_deviation(en, en_lexicon, ru_table),
         "language mismatch: stratum is 'en' but frequency table is 'ru'"),
        ("ConceptMap.check_language", lambda: cmap.check_language("en", "source"),
         "language mismatch: stratum is 'en' but the source side of the concept map is 'ru'"),
        ("variant_counts", lambda: semfield.variant_counts(ru, cmap, "target"),
         "language mismatch: stratum is 'ru' but the target side of the concept map is 'en'"),
        ("concept_vector", lambda: vectors.concept_vector(en, cmap, "source"),
         "language mismatch: stratum is 'en' but the source side of the concept map is 'ru'"),
        ("apply_channel-source", lambda: synth.apply_channel(en, cmap, params,
                                                             reference_table_en()),
         "language mismatch: source stratum is 'en' but the concept map's source side is "
         "'ru'"),
        ("apply_channel-table", lambda: synth.apply_channel(ru, cmap, params, ru_table),
         "language mismatch: frequency table is 'ru' but the concept map's target side is "
         "'en'"),
    ]


@pytest.mark.parametrize("name, call, message", _language_checks(),
                         ids=[name for name, _, _ in _language_checks()])
def test_each_language_check_keeps_its_message(name, call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
