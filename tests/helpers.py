"""Shared builders for the test suite."""

import ast
import hashlib
from functools import lru_cache
from pathlib import Path

from semdrift import (ConceptMap, CorpusStratum, Document, FrequencyTable, SentimentLexicon,
                      TranslationKind, filler_vocab, load_concept_map, load_lexicon_sources,
                      merge_disjoint, stats)

DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).parent.parent / "perfbench"


def perfbench_constant(module: str, name: str):
    """A literal module-level constant of a perfbench module, read without importing it."""
    tree = ast.parse((PERFBENCH / f"{module}.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"perfbench/{module}.py defines no {name}")


def digest(directory: Path) -> str:
    """sha256 over the name and bytes of each file in a directory, in name order."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def make_stratum(lemmas, language="en", kind=TranslationKind.SOURCE,
                 group_keys=None, doc_id="doc-1") -> CorpusStratum:
    doc = Document.from_lemmas(doc_id, lemmas)
    return CorpusStratum(language, kind, dict(group_keys or {}), [doc])


def count_class_of(monkeypatch) -> list:
    """Record the lemma of every `SentimentLexicon.class_of` call from here on."""
    calls = []
    original = SentimentLexicon.class_of

    def counted(self, lemma):
        calls.append(lemma)
        return original(self, lemma)

    monkeypatch.setattr(SentimentLexicon, "class_of", counted)
    return calls


@lru_cache(maxsize=1)
def forbid_panel_building(monkeypatch) -> None:
    """Make every `stats._build_panel` call from here on fail, with fresh panel slots."""
    def refuse(k, i, top):
        raise AssertionError(f"built panel {i} of k = {k}")

    monkeypatch.setattr(stats, "_build_panel", refuse)
    stats._row_interpolant.cache_clear()


def fixture_lexicons() -> tuple[SentimentLexicon, SentimentLexicon]:
    """(ru, en) lexicons merged from the committed fixture files."""
    ru = merge_disjoint(
        load_lexicon_sources([DATA / "lexicons/lex_ru_core.tsv"], "ru"),
        language_code="ru")
    en = merge_disjoint(
        load_lexicon_sources(
            [DATA / "lexicons/lex_en_core.tsv", DATA / "lexicons/lex_en_extra.tsv"], "en"),
        language_code="en")
    return ru, en


@lru_cache(maxsize=1)
def fixture_concept_map() -> ConceptMap:
    ru, en = fixture_lexicons()
    return load_concept_map(DATA / "concepts.tsv", ru, en)


def reference_table_en(filler_size: int = 200) -> FrequencyTable:
    """English reference covering every target variant plus the synth filler vocab.

    Per-million values sum to exactly 1,000,000 so that sampling from the
    table's proportions reproduces its own expected percentages.
    """
    cmap = fixture_concept_map()
    variants = sorted({lem for c in cmap.concepts.values() for lem in c.target_lemmas})
    freqs = {}
    for i, lemma in enumerate(variants):
        freqs[lemma] = 500.0 + 130.0 * i
    filler = filler_vocab("en", filler_size)
    remainder = 1_000_000.0 - sum(freqs.values())
    for lemma in filler:
        freqs[lemma] = remainder / len(filler)
    return FrequencyTable("en", freqs)
