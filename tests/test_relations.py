"""Metamorphic relations of the whole pipeline, after Chen, Cheung & Yiu (1998),
"Metamorphic testing", HKUST-CS98-01, and Segura et al. (2016), IEEE TSE 42(9).

Each test edits a copy of tests/data in a way the analysis must not see, runs
`main(["analyze", ...])` in process on it, and compares the bundle with that of the
unedited copy. Only the input-hash lines may differ: each CSV's `# inputs: sha256=` line
and summary.json's `inputs`, since the edited inputs are other bytes.
- R1, order: the manifest's documents, or the rows of one lexicon, frequency table, lemma
  dictionary or the concept map, in a drawn order; each reversal is always among them.
- R3, split: a drawn document of each translation kind split at a drawn whitespace run
  into two documents of its stratum; the first, middle and last run of the kind's first
  document are always among them.
"""

import json
import re
import shutil
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semdrift.cli import main

from helpers import DATA, read_summary

RESOURCES = ["lexicons/lex_en_core.tsv", "lexicons/lex_en_extra.tsv",
             "lexicons/lex_ru_core.tsv", "freq_en.tsv", "freq_ru.tsv", "dicts/en_lemmas.tsv",
             "dicts/ru_lemmas.tsv", "concepts.tsv"]
DOCUMENTS = json.loads((DATA / "manifest.json").read_text(encoding="utf-8"))["documents"]
WORD_GAP = re.compile(r"(?<=\S)\s+(?=\S)")  # a whitespace run between two words


def rows(resource: str) -> list[str]:
    """The lines of a resource file that are not comments, each with its newline."""
    lines = (DATA / resource).read_text(encoding="utf-8").splitlines(keepends=True)
    return [line for line in lines if not line.startswith("#")]


MOST_ROWS = max(len(rows(resource)) for resource in RESOURCES)


def gaps(index: int) -> list[re.Match]:
    """The whitespace runs between two words of the manifest's document `index`."""
    text = (DATA / DOCUMENTS[index]["path"]).read_text(encoding="utf-8")
    return list(WORD_GAP.finditer(text))


def at(items: list, fraction: float):
    """The item `fraction` of the way along `items`: the first at 0, the last at 1."""
    return items[round(fraction * (len(items) - 1))]


@contextmanager
def data_copy() -> Iterator[Path]:
    with tempfile.TemporaryDirectory() as tmp:
        yield shutil.copytree(DATA, Path(tmp) / "data",
                              ignore=shutil.ignore_patterns("expected_bundle"))


def bundle(data: Path) -> dict[str, str]:
    """Each file of the bundle `analyze` writes for a copy of tests/data, by name, without
    its input-hash lines."""
    out = data.parent / "out"
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
def unedited() -> dict[str, str]:
    with data_copy() as data:
        return bundle(data)


def edit_manifest(data: Path, edit) -> None:
    path = data / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["documents"] = edit(manifest["documents"])
    path.write_text(json.dumps(manifest), encoding="utf-8")


@given(order=st.permutations(range(len(DOCUMENTS))))
@example(order=list(range(len(DOCUMENTS)))[::-1])
@settings(max_examples=8, deadline=None)
def test_permuted_manifest_documents(unedited, order):
    with data_copy() as data:
        edit_manifest(data, lambda documents: [documents[i] for i in order])
        assert bundle(data) == unedited


@pytest.mark.parametrize("resource", RESOURCES)
@given(order=st.permutations(range(MOST_ROWS)))
@example(order=list(range(MOST_ROWS))[::-1])
@settings(max_examples=2, deadline=None)
def test_permuted_resource_rows(unedited, resource, order):
    # the indices of `order` below the row count, kept in its order, are a uniform
    # permutation of the rows
    unpermuted = rows(resource)
    permuted = [unpermuted[i] for i in order if i < len(unpermuted)]
    assert len(permuted) > 1 and all(line.endswith("\n") for line in permuted)
    with data_copy() as data:
        path = data / resource
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join([line for line in lines if line.startswith("#")] + permuted),
                        encoding="utf-8")
        assert bundle(data) == unedited


@pytest.mark.parametrize("kind", ["source", "machine", "human"])
@given(which=st.floats(0.0, 1.0), where=st.floats(0.0, 1.0))
@example(which=0.0, where=0.0)  # the first document of the kind at its first, middle
@example(which=0.0, where=0.5)  # and last whitespace run
@example(which=0.0, where=1.0)
@settings(max_examples=3, deadline=None)
def test_document_split_at_a_whitespace_run(unedited, kind, which, where):
    index = at([i for i, d in enumerate(DOCUMENTS) if d["translation_kind"] == kind], which)

    def edit(documents: list[dict]) -> list[dict]:
        document = documents[index]
        path = data / document["path"]
        text = path.read_text(encoding="utf-8")
        run = at(gaps(index), where)
        path.write_text(text[:run.start()], encoding="utf-8")
        (path.parent / f"tail_{path.name}").write_text(text[run.end():], encoding="utf-8")
        second = {**document, "id": f"{document['id']}-tail",
                  "path": document["path"].replace(path.name, f"tail_{path.name}")}
        return documents[:index + 1] + [second] + documents[index + 1:]

    with data_copy() as data:
        edit_manifest(data, edit)
        assert bundle(data) == unedited
