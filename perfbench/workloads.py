"""Deterministic workload generators for the semdrift benchmark.

Each generator takes the workload seed and writes everything the program
reads (config, resources, manifest, texts) into one directory. It also
returns what it knows about those files, so the benchmark can check the
program's outputs: the words written per stratum, the files a `semdrift synth`
run must reproduce byte for byte, and the field-width direction per channel.
"""

import hashlib
import json
import shutil
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from semdrift import synth
from semdrift.freq import FrequencyTable
from semdrift.lexicon import (DEFAULT_PRIORITY, SentimentClass, load_concept_map,
                              load_lexicon_sources, merge_disjoint)

# Resources shared by bulk-ingest and many-groups, relative to the repository root.
FIXTURE_DIR = Path("tests/data")
FIXTURE_FILES = ("concepts.tsv", "freq_ru.tsv", "freq_en.tsv", "lexicons/lex_ru_core.tsv",
                 "lexicons/lex_en_core.tsv", "lexicons/lex_en_extra.tsv",
                 "dicts/ru_lemmas.tsv", "dicts/en_lemmas.tsv")
STATS_FUNCTIONS = ("stats.one_way_anova", "stats.f_cdf", "stats.tukey_hsd",
                   "stats.studentized_range_cdf")


@dataclass
class Workload:
    """Generated inputs plus what the generator knows about them."""

    name: str
    directory: Path
    config: str                          # relative to `directory`, as are the paths below
    synth_args: list[str]                # arguments after `semdrift synth --config <config>`
    synth_expected: dict[str, str]       # file written by synth -> sha256 of its bytes
    expected_words: dict[str, int]       # stratum label -> words written for it
    widths: dict[str, str]               # merged stratum label -> "<1" or ">1"
    required_spans: tuple[str, ...] = ()  # spans the traced run must record here

    @property
    def words(self) -> int:
        return sum(self.expected_words.values())


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _label(language: str, kind: str, keys: dict[str, str]) -> str:
    # mirrors CorpusStratum.label, so the checks do not depend on the code under test
    parts = [language, kind]
    if keys:
        parts.append(",".join(f"{k}={v}" for k, v in sorted(keys.items())))
    return "/".join(parts)


def _load_resources(directory: Path, config: dict):
    priority = tuple(SentimentClass(c) for c in config.get("priority", DEFAULT_PRIORITY))
    lex = {lang: merge_disjoint(load_lexicon_sources([directory / p for p in paths], lang),
                                priority, language_code=lang)
           for lang, paths in config["lexicons"].items()}
    cmap = load_concept_map(directory / config["concept_map"],
                            lex[config["source_language"]], lex[config["target_language"]])
    tgt = config["target_language"]
    return cmap, FrequencyTable.load(directory / config["frequency_tables"][tgt], tgt)


def _write_json(path: Path, body: dict) -> None:
    path.write_text(json.dumps(body, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _grid_corpus(name: str, root: Path, directory: Path, seed: int, grid: list[dict[str, str]],
                 words: int) -> Workload:
    """One source plus its machine and human channel outputs per grid cell."""
    for rel in FIXTURE_FILES:
        (directory / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(root / FIXTURE_DIR / rel, directory / rel)
    config = json.loads((root / FIXTURE_DIR / "config.json").read_text(encoding="utf-8"))
    cmap, ref = _load_resources(directory, config)
    budget = {cid: 1.0 for cid in cmap.concepts}

    texts = directory / "texts"
    texts.mkdir()
    documents, expected_words = [], {}
    synth_expected: dict[str, str] = {}
    cell_seed = seed * 10_000
    for i, keys in enumerate(grid):
        source = synth.generate_source(cmap, words, budget, cell_seed + i)
        channels = [synth.apply_channel(source, cmap, params, ref) for params in
                    (synth.ChannelParams.machine(cell_seed + i),
                     synth.ChannelParams.human(cell_seed + i))]
        for stratum in [source] + channels:
            doc = stratum.documents[0]
            kind = stratum.translation_kind.value
            text = " ".join(doc.lemmas)
            doc_id = "-".join([stratum.language_code, kind] + [keys[k] for k in sorted(keys)])
            (texts / f"{doc_id}.txt").write_text(text, encoding="utf-8")
            documents.append({"path": f"texts/{doc_id}.txt", "id": doc_id,
                              "language": stratum.language_code, "translation_kind": kind,
                              "group_keys": keys})
            expected_words[_label(stratum.language_code, kind, keys)] = len(doc.lemmas)
            if i == 0 and kind != "human":
                # the synth CLI run of cell 0 must write these bytes again
                synth_expected[f"synth_out/{doc.id}.txt"] = _sha256_text(text)

    manifest = {"lemma_dicts": {"ru": "dicts/ru_lemmas.tsv", "en": "dicts/en_lemmas.tsv"},
                "documents": documents}
    _write_json(directory / "manifest.json", manifest)
    config.update(manifest="manifest.json", output_dir="out", group_by=["term", "summit"],
                  synth={"words": words, "seed": cell_seed, "kind": "machine"})
    _write_json(directory / "config.json", config)
    return Workload(name, directory, "config.json",
                    ["--output-dir", "synth_out"], synth_expected, expected_words,
                    {"en/machine": "<1", "en/human": ">1"}, STATS_FUNCTIONS)


def bulk_ingest(root: Path, directory: Path, seed: int, tiny: bool = False) -> Workload:
    grid = [{"summit": s, "term": t, "replicate": r}
            for s, t, r in product(("G8", "G20"), ("2000-2003", "2004-2007"), ("1", "2"))]
    return _grid_corpus("bulk-ingest", root, directory, seed, grid, 2_000 if tiny else 8_000)


def many_groups(root: Path, directory: Path, seed: int, tiny: bool = False) -> Workload:
    summits, terms = (3, 3) if tiny else (5, 4)
    grid = [{"summit": f"S{s:02d}", "term": f"T{t:02d}"}
            for s, t in product(range(1, summits + 1), range(1, terms + 1))]
    return _grid_corpus("many-groups", root, directory, seed, grid, 500)


_CONSONANTS = {"en": "bcdfghjklmnprstvz", "ru": "бвгджзклмнпрстфхцчшщ"}
_VOWELS = {"en": "aeiou", "ru": "аеиоуыэюя"}


def _word_source(language: str, rng: np.random.Generator, taken: set[str]):
    """Yield new consonant-vowel words; synth filler words start with a doubled
    letter and a CV word never does, so the two sets cannot collide."""
    consonants, vowels = _CONSONANTS[language], _VOWELS[language]
    while True:
        syllables = int(rng.integers(2, 5))
        word = "".join(consonants[rng.integers(len(consonants))] + vowels[rng.integers(len(vowels))]
                       for _ in range(syllables))
        if word not in taken:
            taken.add(word)
            yield word


def wide_map(root: Path, directory: Path, seed: int, tiny: bool = False) -> Workload:
    """A generated 3,000-concept map, its lexicons and frequency tables, and a
    `semdrift synth --kind human` corpus over them.

    Not a BENCHMARK.json workload: the time pca_2d takes on these corpora
    swings several-fold from seed to seed (see README.md)."""
    n_concepts, n_other, words, filler = (
        (60, 200, 3_000, 400) if tiny else (3_000, 6_000, 150_000, 20_000))
    rng = np.random.default_rng(seed)
    classes = ("positive", "negative", "epistemic")
    names = {lang: _word_source(lang, rng, set()) for lang in ("ru", "en")}

    concept_lines = ["# concept_id\tclass\tsource lemmas\ttarget lemmas"]
    lexicon_rows: dict[str, list[tuple[str, str]]] = {"ru": [], "en": []}
    for i in range(n_concepts):
        cls = classes[int(rng.integers(3))]
        src = [next(names["ru"]) for _ in range(int(rng.integers(1, 5)))]
        tgt = [next(names["en"]) for _ in range(int(rng.integers(2, 7)))]
        concept_lines.append(f"c{i:04d}\t{cls}\t{','.join(src)}\t{','.join(tgt)}")
        lexicon_rows["ru"] += [(lem, cls) for lem in src]
        lexicon_rows["en"] += [(lem, cls) for lem in tgt]
    (directory / "lexicons").mkdir(parents=True)
    (directory / "concepts.tsv").write_text("\n".join(concept_lines) + "\n", encoding="utf-8")

    config = {"manifest": "corpus/manifest.json", "source_language": "ru",
              "target_language": "en", "lexicons": {}, "concept_map": "concepts.tsv",
              "frequency_tables": {}, "group_by": [], "output_dir": "out",
              "synth": {"words": words, "seed": seed, "kind": "human",
                        "concept_density": 0.3, "filler_size": filler}}
    for lang, rows in lexicon_rows.items():
        others = [(next(names[lang]), classes[int(rng.integers(3))]) for _ in range(n_other)]
        # a second source file re-lists 1% of the non-concept lemmas under another
        # class, so the merge has conflicts to resolve
        cross = [(lem, classes[(classes.index(cls) + 1) % 3]) for lem, cls in others[::100]]
        files = {f"lexicons/{lang}_core.tsv": rows + others[: n_other // 2],
                 f"lexicons/{lang}_extra.tsv": others[n_other // 2:] + cross}
        for rel, entries in files.items():
            (directory / rel).write_text(
                "".join(f"{lem}\t{cls}\n" for lem, cls in entries), encoding="utf-8")
        config["lexicons"][lang] = sorted(files)
        freq_lines = [f"# corpus: generated {lang} reference, seed {seed}"]
        freq_lines += [f"{lem}\t{float(rng.lognormal(3.0, 1.5)):.3f}"
                       for lem, _ in rows + others]
        (directory / f"freq_{lang}.tsv").write_text("\n".join(freq_lines) + "\n",
                                                    encoding="utf-8")
        config["frequency_tables"][lang] = f"freq_{lang}.tsv"
    _write_json(directory / "config.json", config)

    # what `semdrift synth` must write with these settings
    cmap, ref = _load_resources(directory, config)
    source = synth.generate_source(cmap, words, {cid: 1.0 for cid in cmap.concepts}, seed,
                                   concept_density=0.3, filler_size=filler)
    output = synth.apply_channel(source, cmap, synth.ChannelParams.human(seed), ref)
    synth_expected = {f"corpus/{s.documents[0].id}.txt":
                      _sha256_text(" ".join(s.documents[0].lemmas)) for s in (source, output)}
    # the source stratum must hold exactly the words requested from synth
    expected_words = {_label("ru", "source", source.group_keys): words,
                      _label("en", "human", output.group_keys): output.total_word_count}
    return Workload("wide-map", directory, "config.json",
                    ["--output-dir", "corpus"], synth_expected, expected_words,
                    {"en/human": ">1"})


GENERATORS = {"bulk-ingest": bulk_ingest, "many-groups": many_groups, "wide-map": wide_map}
