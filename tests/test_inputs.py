"""Input properties of `analyze`, on edited copies of tests/data and on synthetic corpora.

Inputs that say the same thing in another order, normal form, line ending or with a byte
order mark give the same bundle, apart from the input checksums (every CSV's `# inputs:`
line and summary.json's `inputs` block). Malformed inputs end in `error:` lines and exit
code 2, with no traceback and nothing written; randomly mutated bytes in any resource end
in exit code 0, 1 or 2, never in an exception.
"""

import io
import json
import random
import shutil
import unicodedata
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdrift import (ChannelParams, CorpusStratum, Document, FrequencyTable, apply_channel,
                      generate_source, save_corpus)
from semdrift.cli import main

from helpers import DATA, fixture_concept_map

EN_LEXICONS = ("lexicons/lex_en_core.tsv", "lexicons/lex_en_extra.tsv")


def copy_data(tmp_path: Path) -> Path:
    return shutil.copytree(DATA, tmp_path / "data",
                           ignore=shutil.ignore_patterns("expected_bundle"))


def without_checksums(directory: Path) -> dict:
    """Each bundle file of a directory, without the lines and keys that hold checksums."""
    bundle = {}
    for path in sorted(directory.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".csv":
            bundle[path.name] = [line for line in text.splitlines()
                                 if not line.startswith("# inputs:")]
        else:
            bundle[path.name] = {k: v for k, v in json.loads(text).items() if k != "inputs"}
    return bundle


def rewrite(path: Path, edit) -> None:
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8", newline="")


def edit_json(path: Path, edit) -> None:
    body = json.loads(path.read_text(encoding="utf-8"))
    edit(body)
    path.write_text(json.dumps(body, ensure_ascii=False, indent=2), encoding="utf-8")


def shuffle_documents(data: Path) -> None:
    def shuffle(body):
        documents = body["documents"][:]
        random.Random(1).shuffle(documents)
        assert documents != body["documents"]
        body["documents"] = documents
    edit_json(data / "manifest.json", shuffle)


def reverse_rows(data: Path) -> None:
    def reverse(text):  # comments stay first: a table's first one names its corpus
        lines = text.splitlines(keepends=True)
        return "".join([line for line in lines if line.startswith("#")]
                       + [line for line in lines if not line.startswith("#")][::-1])
    for rel in ("concepts.tsv", "freq_en.tsv", *EN_LEXICONS):
        rewrite(data / rel, reverse)


def swap_en_lexicons(data: Path) -> None:
    edit_json(data / "config.json", lambda body: body["lexicons"]["en"].reverse())


def nfd_texts(data: Path) -> None:
    for path in (data / "texts").iterdir():
        rewrite(path, lambda text: unicodedata.normalize("NFD", text))


def crlf(data: Path) -> None:
    for path in data.rglob("*"):
        if path.is_file() and path.suffix in (".json", ".tsv", ".txt"):
            rewrite(path, lambda text: text.replace("\n", "\r\n"))


def byte_order_marks(data: Path) -> None:
    for path in [*(data / "texts").iterdir(), *(data / "lexicons").iterdir(),
                 data / "concepts.tsv", data / "freq_en.tsv", data / "freq_ru.tsv"]:
        rewrite(path, lambda text: "\ufeff" + text)


@pytest.mark.parametrize("edit", [shuffle_documents, reverse_rows, swap_en_lexicons,
                                  nfd_texts, crlf, byte_order_marks],
                         ids=lambda edit: edit.__name__)
def test_equal_inputs_give_the_committed_bundle(tmp_path, edit):
    data = copy_data(tmp_path)
    edit(data)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(data / "config.json"),
                 "--output-dir", str(out)]) == 0
    assert without_checksums(out) == without_checksums(DATA / "expected_bundle")


def append_bytes(rel: str, blob: bytes):
    def edit(data: Path) -> None:
        with open(data / rel, "ab") as f:
            f.write(blob)
    return edit


def directory_in_place_of(rel: str):
    def edit(data: Path) -> None:
        (data / rel).unlink()
        (data / rel).mkdir()
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(append_bytes("lexicons/lex_en_extra.tsv", b"bad\xff\tpositive\n"),
                 "lex_en_extra.tsv: not UTF-8 text", id="utf8-lexicon"),
    pytest.param(append_bytes("texts/en_human_g8_t1.txt", b" bad\xc3\x28 "),
                 "en_human_g8_t1.txt: not UTF-8 text", id="utf8-text"),
    pytest.param(append_bytes("dicts/en_lemmas.tsv", b"bad\xfe\tbad\n"),
                 "en_lemmas.tsv: not UTF-8 text", id="utf8-lemma-dict"),
    pytest.param(append_bytes("config.json", b"\xff"), "config.json: not UTF-8 text",
                 id="utf8-config"),
    pytest.param(directory_in_place_of("lexicons/lex_en_core.tsv"),
                 "lex_en_core.tsv: Is a directory", id="directory-lexicon"),
    pytest.param(directory_in_place_of("texts/ru_g8_t1.txt"), "ru_g8_t1.txt: Is a directory",
                 id="directory-text"),
    pytest.param(append_bytes("freq_en.tsv", b"zzz\tnan\n"), "invalid frequency for 'zzz': nan",
                 id="nan-frequency"),
    pytest.param(append_bytes("freq_en.tsv", b"zzz\tinf\n"), "invalid frequency for 'zzz': inf",
                 id="inf-frequency"),
    pytest.param(append_bytes("freq_en.tsv", b"zzz\t-1\n"), "invalid frequency for 'zzz': -1",
                 id="negative-frequency"),
])
def test_malformed_input_ends_in_an_error_line(tmp_path, capsys, edit, message):
    data = copy_data(tmp_path)
    edit(data)
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(data / "config.json"),
                 "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err and all(line.startswith("error: ") for line in err.splitlines())
    assert message in err.splitlines()[0]
    assert not out.exists()


# resource kind -> its file in a copy of tests/data, and whether `synth` reads it
FUZZ_TARGETS = {
    "config": ("config.json", True),
    "manifest": ("manifest.json", False),
    "lexicon": ("lexicons/lex_ru_core.tsv", True),
    "concept-map": ("concepts.tsv", True),
    "frequency-table": ("freq_en.tsv", True),
    "lemma-dict": ("dicts/ru_lemmas.tsv", False),
    "text": ("texts/ru_g8_t1.txt", False),
}
# a NUL, a tab, line breaks, a quote, a byte never in UTF-8, and a Cyrillic and a
# three-byte sequence cut short; truncating the file can also cut a character in two
_FUZZ_BYTES = (b"\x00", b"\t", b"\n", b"\r\n", b'"', b"\\", b"\xff", b"\xd0", b"\xe2\x82")
_mutation = st.tuples(st.sampled_from(("insert", "replace", "truncate")),
                      st.integers(0, 1 << 16), st.sampled_from(_FUZZ_BYTES))


def mutate(blob: bytes, mutations) -> bytes:
    for op, at, piece in mutations:
        i = at % (len(blob) + 1)
        if op == "insert":
            blob = blob[:i] + piece + blob[i:]
        elif op == "replace":
            blob = blob[:i] + piece + blob[i + len(piece):]
        else:
            blob = blob[:i]
    return blob


def run_main(args: list[str]) -> tuple[int, str]:
    """Exit code and everything printed, of `main` run in this process."""
    printed = io.StringIO()
    with redirect_stdout(printed), redirect_stderr(printed):
        code = main(args)
    return code, printed.getvalue()


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory) -> Path:
    return copy_data(tmp_path_factory.mktemp("fuzz"))


@pytest.mark.parametrize("kind", FUZZ_TARGETS)
@given(mutations=st.lists(_mutation, min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_mutated_bytes_end_in_an_exit_code_never_an_exception(fuzz_data, kind, mutations):
    rel, synth_reads = FUZZ_TARGETS[kind]
    path = fuzz_data / rel
    original = path.read_bytes()
    path.write_bytes(mutate(original, mutations))
    try:
        for command in ("validate", "analyze", "synth")[:3 if synth_reads else 2]:
            flags = [] if command == "validate" else [
                "--output-dir", str(fuzz_data.parent / command)]
            code, printed = run_main([command, "--config", str(fuzz_data / "config.json"),
                                      *flags])
            assert code in (0, 1, 2)
            if code:
                assert any(line.startswith("error: ") for line in printed.splitlines())
    finally:
        path.write_bytes(original)


def write_synth_corpus(directory: Path, seed: int, words: int) -> Path:
    """A synthetic corpus on the tests/data resources, and a config that analyzes it.

    Each cell of a 2 x 2 summit x term grid holds two replicates, each a Russian source of
    `words` lemmas and its machine and human English outputs, saved by `save_corpus`.
    """
    cmap = fixture_concept_map()
    ref = FrequencyTable.load(DATA / "freq_en.tsv", "en")
    budget = {cid: 1.0 for cid in cmap.concepts}
    strata = []
    cells = product(("G8", "G20"), ("2000-2003", "2004-2007"), ("1", "2"))
    for i, (summit, term, replicate) in enumerate(cells):
        source = generate_source(cmap, words, budget, seed + i)
        for stratum in (source,
                        apply_channel(source, cmap, ChannelParams.machine(seed + i), ref),
                        apply_channel(source, cmap, ChannelParams.human(seed + i), ref)):
            kind = stratum.translation_kind
            doc_id = f"{stratum.language_code}-{kind.value}-{summit}-{term}-{replicate}"
            strata.append(CorpusStratum(stratum.language_code, kind,
                                        {"summit": summit, "term": term},
                                        [Document.from_lemmas(doc_id,
                                                              stratum.documents[0].lemmas)]))
    manifest = save_corpus(strata, directory)
    body = json.loads((DATA / "config.json").read_text(encoding="utf-8"))
    body.update(manifest=str(manifest), concept_map=str(DATA / body["concept_map"]),
                lexicons={lang: [str(DATA / p) for p in paths]
                          for lang, paths in body["lexicons"].items()},
                frequency_tables={lang: str(DATA / p)
                                  for lang, p in body["frequency_tables"].items()})
    config = directory / "config.json"
    config.write_text(json.dumps(body, ensure_ascii=False), encoding="utf-8")
    return config


def _corpus_files(corpus: Path) -> list[Path]:
    return [p for p in corpus.iterdir() if p.suffix == ".txt" or p.name == "manifest.json"]


def _shuffle_manifest(corpus: Path, rnd: random.Random) -> None:
    edit_json(corpus / "manifest.json", lambda body: rnd.shuffle(body["documents"]))


def _nfd_texts(corpus: Path, rnd: random.Random) -> None:
    for path in corpus.glob("*.txt"):
        rewrite(path, lambda text: unicodedata.normalize("NFD", text))


def _crlf(corpus: Path, rnd: random.Random) -> None:  # texts one word to a line
    for path in _corpus_files(corpus):
        rewrite(path, lambda text: text.replace("\n", "\r\n") if path.suffix == ".json"
                else text.replace(" ", "\r\n") + "\r\n")


def _byte_order_marks(corpus: Path, rnd: random.Random) -> None:
    for path in _corpus_files(corpus):
        rewrite(path, lambda text: "\ufeff" + text)


SYNTH_EDITS = (_shuffle_manifest, _nfd_texts, _crlf, _byte_order_marks)  # in the order applied


@given(seed=st.integers(0, 1 << 20), words=st.integers(120, 400),
       edits=st.sets(st.sampled_from(SYNTH_EDITS), min_size=1),
       rnd=st.randoms(use_true_random=False))
@settings(max_examples=15, deadline=None)
def test_equal_synthetic_corpora_give_equal_bundles(tmp_path_factory, seed, words, edits,
                                                    rnd):
    root = tmp_path_factory.mktemp("synth")
    bundles = []
    for name, applied in (("plain", ()), ("edited", edits)):
        config = write_synth_corpus(root / name, seed, words)
        for edit in SYNTH_EDITS:
            if edit in applied:
                edit(root / name, rnd)
        out = root / f"{name}_out"
        assert run_main(["analyze", "--config", str(config), "--output-dir", str(out)])[0] == 0
        bundles.append(without_checksums(out))
    assert bundles[0] == bundles[1]
