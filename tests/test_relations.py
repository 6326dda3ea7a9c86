"""Metamorphic relations of the whole pipeline, after Chen, Cheung & Yiu (1998),
"Metamorphic testing", HKUST-CS98-01, and Segura et al. (2016), IEEE TSE 42(9).

Each test edits a copy of tests/data in a way the analysis must not see, runs
`main(["analyze", ...])` in process on it, and compares the bundle with that of the
unedited copy. Only the input-hash lines may differ: each CSV's `# inputs: sha256=` line
and summary.json's `inputs`, since the edited inputs are other bytes.
- R1, order: the manifest's documents, or the rows of one lexicon, frequency table or
  lemma dictionary, in reverse order.
- R3, split: one document split at a whitespace run into two documents of its stratum.
"""

import json
import re
import shutil
from pathlib import Path

import pytest

from semdrift.cli import main

from helpers import DATA, read_summary

RESOURCES = ["lexicons/lex_en_core.tsv", "lexicons/lex_en_extra.tsv",
             "lexicons/lex_ru_core.tsv", "freq_en.tsv", "freq_ru.tsv", "dicts/en_lemmas.tsv",
             "dicts/ru_lemmas.tsv"]


def copy_data(directory: Path) -> Path:
    return shutil.copytree(DATA, directory, ignore=shutil.ignore_patterns("expected_bundle"))


def bundle(data: Path, out: Path) -> dict[str, str]:
    """Each file of the bundle `analyze` writes for a copy of tests/data, by name, without
    its input-hash lines."""
    assert main(["analyze", "--config", str(data / "config.json"),
                 "--output-dir", str(out)]) == 0
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == "summary.json":
            summary = read_summary(out)
            del summary["inputs"]
            files[path.name] = json.dumps(summary)  # keeps the key order
        else:
            files[path.name] = "".join(
                line for line in path.read_text(encoding="utf-8").splitlines(keepends=True)
                if not line.startswith("# inputs: sha256="))
    return files


@pytest.fixture(scope="module")
def unedited(tmp_path_factory) -> dict[str, str]:
    tmp = tmp_path_factory.mktemp("unedited")
    return bundle(copy_data(tmp / "data"), tmp / "out")


def edit_manifest(data: Path, edit) -> None:
    path = data / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["documents"] = edit(manifest["documents"])
    path.write_text(json.dumps(manifest), encoding="utf-8")


def test_reversed_manifest_documents(tmp_path, capsys, unedited):
    data = copy_data(tmp_path / "data")
    edit_manifest(data, lambda documents: documents[::-1])
    assert bundle(data, tmp_path / "out") == unedited


@pytest.mark.parametrize("resource", RESOURCES)
def test_reversed_resource_rows(tmp_path, capsys, unedited, resource):
    data = copy_data(tmp_path / "data")
    path = data / resource
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    comments = [line for line in lines if line.startswith("#")]
    rows = [line for line in lines if not line.startswith("#")]
    assert len(rows) > 1 and all(line.endswith("\n") for line in rows)
    path.write_text("".join(comments + rows[::-1]), encoding="utf-8")
    assert bundle(data, tmp_path / "out") == unedited


@pytest.mark.parametrize("index", [0, 7], ids=["source", "translation"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_document_split_at_a_whitespace_run(tmp_path, capsys, unedited, index, where):
    data = copy_data(tmp_path / "data")

    def split(documents: list[dict]) -> list[dict]:
        document = documents[index]
        path = data / document["path"]
        text = path.read_text(encoding="utf-8")
        runs = list(re.finditer(r"(?<=\S)\s+(?=\S)", text))  # each between two words
        run = runs[{"first": 0, "middle": len(runs) // 2, "last": -1}[where]]
        head, tail = text[:run.start()], text[run.end():]
        path.write_text(head, encoding="utf-8")
        (path.parent / f"tail_{path.name}").write_text(tail, encoding="utf-8")
        second = {**document, "id": f"{document['id']}-tail",
                  "path": document["path"].replace(path.name, f"tail_{path.name}")}
        return documents[:index + 1] + [second] + documents[index + 1:]

    edit_manifest(data, split)
    assert bundle(data, tmp_path / "out") == unedited
