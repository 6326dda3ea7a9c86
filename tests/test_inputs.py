"""Input properties of `analyze`, each on an edited copy of tests/data.

Inputs that say the same thing in another order, normal form, line ending or with a byte
order mark give the committed bundle, apart from the input checksums (every CSV's
`# inputs:` line and summary.json's `inputs` block). Malformed inputs end in `error:`
lines and exit code 2, with no traceback and nothing written.
"""

import json
import random
import shutil
import unicodedata
from pathlib import Path

import pytest

from semdrift.cli import main

from helpers import DATA

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
