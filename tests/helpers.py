"""Shared builders for the test suite."""

import argparse
import ast
import hashlib
import json
from functools import lru_cache
from pathlib import Path

from semdrift import (ConceptMap, CorpusStratum, Document, FrequencyTable, SentimentLexicon,
                      TranslationKind, filler_vocab, load_concept_map, load_lexicon_sources,
                      merge_disjoint, stats)
from semdrift.cli import _CONFIG_TYPES, _FLAGS, _SYNTH_TYPES
from semdrift.errors import NUMBER

DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).parent.parent / "perfbench"
# the two ways a process enters the command line, as the interpreter's arguments:
# `python -m semdrift.cli` runs the module as __main__, and the console script that
# `pip install` writes imports `run` from `semdrift.cli` and calls it; both start the
# command in `cli.run()`
ENTRIES = {
    "module": ["-m", "semdrift.cli"],
    "console-script": ["-c", "from semdrift.cli import run\nrun()\n"],
}


def perfbench_constant(module: str, name: str):
    """A literal module-level constant of a perfbench module, read without importing it."""
    tree = ast.parse((PERFBENCH / f"{module}.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"perfbench/{module}.py defines no {name}")


def reference_parse(argv: list[str]) -> tuple[str, str, dict]:
    """What an argparse parser built from `cli._FLAGS` makes of a valid command line: the
    command, the config file and the config keys its flags set, an `int` key's value by
    `int`, a `NUMBER` key's by `float`. It is an oracle for `cli.parse_args`; it raises
    SystemExit where argparse refuses, and takes abbreviated flags."""
    parser = argparse.ArgumentParser(prog="semdrift")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, flags in _FLAGS.items():
        sub = commands.add_parser(command)
        sub.add_argument("--config", required=True)
        for flag, key in flags.items():
            spec = _SYNTH_TYPES.get(key) or _CONFIG_TYPES[key]
            sub.add_argument(flag, dest=key, type={int: int, NUMBER: float}.get(spec, str))
    args = vars(parser.parse_args(argv))
    command, config = args.pop("command"), args.pop("config")
    return command, config, {key: value for key, value in args.items() if value is not None}


def digest(directory: Path) -> str:
    """sha256 over the name and bytes of each file in a directory, in name order."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def read_summary(directory: Path) -> dict:
    """A bundle's summary.json, refusing the NaN and Infinity tokens that strict JSON lacks."""
    def refuse(token):
        raise ValueError(f"summary.json holds {token}")

    return json.loads((directory / "summary.json").read_text(encoding="utf-8"),
                      parse_constant=refuse)


def make_stratum(lemmas, language="en", kind=TranslationKind.SOURCE,
                 group_keys=None, doc_id="doc-1") -> CorpusStratum:
    doc = Document.from_lemmas(doc_id, lemmas)
    return CorpusStratum(language, kind, dict(group_keys or {}), [doc])


def count_class_of(monkeypatch) -> list:
    """Record the lemma of every class lookup in a `SentimentLexicon` from here on, by
    `class_of` or `split_by_class`."""
    calls = []
    class_of, split_by_class = SentimentLexicon.class_of, SentimentLexicon.split_by_class

    def counted(self, lemma):
        calls.append(lemma)
        return class_of(self, lemma)

    def counted_split(self, counts):
        calls.extend(counts)
        return split_by_class(self, counts)

    monkeypatch.setattr(SentimentLexicon, "class_of", counted)
    monkeypatch.setattr(SentimentLexicon, "split_by_class", counted_split)
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
