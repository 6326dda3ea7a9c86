import csv
import difflib
import errno
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import unicodedata
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semdrift.cli
import semdrift.ingest
from semdrift import Side, load_corpus
from semdrift.cli import (_CONFIG_TYPES, _FLAGS, _HELP, _SYNTH_TYPES, analyze, load_config,
                          main, parse_args, run_validation)
from semdrift.errors import NUMBER, IngestError, ValidationError

from helpers import (DATA, ENTRIES, child_env, count_class_of, digest, fixture_concept_map,
                     forbid_panel_building, read_summary, reference_parse)

ROOT = Path(__file__).parent.parent
# sha256s (see helpers.digest) of the texts `synth` writes for the tiny seed-1 many-groups
# benchmark corpus, and of their analyze bundle: a 3 x 3 summit x term grid gives Tukey
# tests of k = 3 groups. A synth change moves both pins, an analyze change only the second.
MANY_GROUPS_TEXTS_DIGEST = "6b124168a0ca394e86b3afe41c39433b2dbfc12f20727f61c88393ccd91e4009"
MANY_GROUPS_DIGEST = "780c72fb569c90639aa919971b64b05702627cb500b5195cf39135bd00c795f8"
# the same for the full-size seed-1 corpus, the benchmark's own: its 5 x 4 grid gives
# Tukey tests of k = 4 and 5 groups
MANY_GROUPS_FULL_TEXTS_DIGEST = "004b6f9fb6c55ecd84f5b0c1a3b3a4f06d5a6067f50913e2482906f8d0b0a4fc"
MANY_GROUPS_FULL_DIGEST = "985cc835d75e61c1853d59178e5fa47e6721372ec3fb93e0245af6b8d096ff52"
# sha256 of the golden bundle itself: regenerating tests/data/expected_bundle would let
# the golden-file test pass on any bundle, so a change to these bytes must move this pin
EXPECTED_BUNDLE_DIGEST = "12e3b629a5f2a1fdc250725f76d4d32e3d6905ebd26265952a33b1a1e0bd54b1"


def base_config() -> dict:
    return {
        "manifest": str(DATA / "manifest.json"),
        "source_language": "ru",
        "target_language": "en",
        "lexicons": {
            "ru": [str(DATA / "lexicons/lex_ru_core.tsv")],
            "en": [str(DATA / "lexicons/lex_en_core.tsv"),
                   str(DATA / "lexicons/lex_en_extra.tsv")],
        },
        "concept_map": str(DATA / "concepts.tsv"),
        "frequency_tables": {"ru": str(DATA / "freq_ru.tsv"),
                             "en": str(DATA / "freq_en.tsv")},
        "priority": ["epistemic", "negative", "positive"],
        "group_by": ["term", "summit"],
        "alpha": 0.05,
        "top_k": 5,
    }


def write_config(tmp_path, name="config.json", **overrides) -> Path:
    config = {**base_config(), **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(config, ensure_ascii=False, indent=2), encoding="utf-8")
    return path


def read_bundle(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def bundle_differences(actual: dict[str, bytes], expected: dict[str, bytes]) -> list[str]:
    """Each file whose bytes differ between two bundles, with its first differing lines."""
    report = []
    for name in sorted(actual.keys() | expected.keys()):
        if actual.get(name) == expected.get(name):
            continue
        if name not in actual or name not in expected:
            where = "expected" if name in expected else "new"
            report.append(f"{name}: only in the {where} bundle")
            continue
        old, new = (b.decode("utf-8", "replace").splitlines(keepends=True)
                    for b in (expected[name], actual[name]))
        diff = difflib.unified_diff(old, new, f"expected/{name}", f"new/{name}", n=0)
        report.append("".join(islice(diff, 12)))
    return report


class TestValidate:
    def test_clean_config(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["validate", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out

    @pytest.mark.parametrize("priority, clear, fine", [
        (["epistemic", "negative", "positive"], "epistemic", "negative"),
        (["positive", "negative", "epistemic"], "positive", "positive"),
    ], ids=["epistemic-first", "positive-first"])
    def test_conflicts_reported_with_resolution(self, tmp_path, capsys, priority, clear, fine):
        # the report names the class each lemma has in the merged lexicon
        config = write_config(tmp_path, priority=priority)
        main(["validate", "--config", str(config)])
        out = capsys.readouterr().out
        assert f"cross-listed lemma 'clear' (positive, epistemic) resolved to {clear}\n" in out
        assert f"cross-listed lemma 'fine' (positive, negative) resolved to {fine}\n" in out

    def test_missing_frequency_table_exits_2(self, tmp_path, capsys):
        config = write_config(
            tmp_path, frequency_tables={"ru": str(DATA / "freq_ru.tsv"),
                                        "en": str(tmp_path / "missing.tsv")})
        assert main(["validate", "--config", str(config)]) == 2
        out = capsys.readouterr().out
        assert "error" in out and "file not found" in out

    def test_frequency_table_lemma_with_a_nul_exits_2(self, tmp_path, capsys):
        table = tmp_path / "freq_en.tsv"
        table.write_text("good\t10\na\x00b\t5\n", encoding="utf-8")
        config = write_config(
            tmp_path, frequency_tables={"ru": str(DATA / "freq_ru.tsv"), "en": str(table)})
        assert main(["validate", "--config", str(config)]) == 2
        assert f"{table}:2: control character U+0000" in capsys.readouterr().out

    def test_missing_manifest_file_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, manifest=str(tmp_path / "nope.json"))
        assert main(["validate", "--config", str(config)]) == 2

    def test_bad_config_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2

    def test_group_by_meets_a_group_key_in_another_normal_form(self, tmp_path, capsys):
        body = absolute_manifest()
        for doc in body["documents"]:
            doc["group_keys"][unicodedata.normalize("NFD", "période")] = \
                doc["group_keys"].pop("term")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(body), encoding="utf-8")
        config = write_config(tmp_path, manifest=str(manifest),
                              group_by=[unicodedata.normalize("NFC", "période"), "summit"])
        assert main(["validate", "--config", str(config)]) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_empty_concept_map_path_exits_2(self, tmp_path, capsys):
        # "" names the config's own directory; only an absent key or null means no map
        config = write_config(tmp_path, concept_map="")
        assert main(["validate", "--config", str(config)]) == 2
        assert f"error: concept map: cannot read {tmp_path}: " in capsys.readouterr().out
        out = tmp_path / "run"
        assert main(["analyze", "--config", str(config), "--output-dir", str(out)]) == 2
        assert not out.exists()

    def test_concept_map_with_equal_languages_exits_2(self, tmp_path, capsys):
        # a stratum's language picks its side of the map, so with one language on both
        # sides every stratum would read the source column and none the target column;
        # this map, English on both sides, loads against the English lexicon
        rows = [line.split("\t") for line in
                (DATA / "concepts.tsv").read_text(encoding="utf-8").splitlines()]
        cmap = tmp_path / "concepts_en.tsv"
        cmap.write_text("".join(f"{cid}\t{cls}\t{tgt}\t{tgt}\n" for cid, cls, _, tgt in rows),
                        encoding="utf-8")
        config = write_config(tmp_path, source_language="en", concept_map=str(cmap))
        message = "error: concept_map requires source_language and target_language to differ"
        assert main(["validate", "--config", str(config)]) == 2
        assert f"{message}\n" in capsys.readouterr().out
        out = tmp_path / "run"
        for command in ("analyze", "synth"):
            assert main([command, "--config", str(config), "--output-dir", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"{message}\n")
        assert not out.exists()

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: the top level must be a JSON object\n"

    def test_config_with_a_byte_order_mark_reads_as_without_one(self, tmp_path):
        marked = tmp_path / "marked.json"
        marked.write_text(json.dumps(base_config()), encoding="utf-8-sig")
        assert load_config(marked) == load_config(write_config(tmp_path))
        assert main(["validate", "--config", str(marked)]) == 0


class TestConfigTypes:
    @pytest.mark.parametrize("overrides, message", [
        ({"top_k": "five"}, "top_k must be an integer"),
        ({"alpha": "x"}, "alpha must be a number"),
        ({"lexicons": [str(DATA / "lexicons/lex_en_core.tsv")]}, "lexicons must be an object"),
        ({"group_by": "term"}, "group_by must be a list"),
        ({"top_k": True}, "top_k must be an integer"),
        ({"deviation_mode": 1}, "deviation_mode must be a string"),
        ({"frequency_tables": {"en": 1}}, "frequency_tables.en must be a string"),
        ({"synth": {"words": "many"}}, "synth.words must be an integer"),
        ({"deviation_mode": "ratios"},
         "deviation_mode must be one of 'difference', 'ratio', got 'ratios'"),
        ({"priority": ["positive", "bad", "negative"]},
         "priority[1] must be one of 'positive', 'negative', 'epistemic', got 'bad'"),
        ({"synth": {"kind": ["human"]}}, "synth.kind must be a string, got ['human']"),
        ({"synth": {"kind": "robot"}},
         "synth.kind must be one of 'machine', 'human', got 'robot'"),
        ({"lexicons": {"en": [5]}}, "lexicons.en[0] must be a string"),
        ({"group_by": ["term", 1]}, "group_by[1] must be a string"),
        ({"synth": {"concept_budget": {"say": "x"}}},
         "synth.concept_budget.say must be a number"),
        ({"alpha": 10 ** 400}, "alpha must be a finite number within the float range"),
        ({"synth": {"length_inflation": float("inf")}},
         "synth.length_inflation must be a finite number within the float range"),
        ({"synth": {"concept_budget": {"say": float("nan")}}},
         "synth.concept_budget.say must be a finite number within the float range"),
    ])
    def test_wrong_type_exits_2(self, tmp_path, capsys, overrides, message):
        config = write_config(tmp_path, **overrides)
        assert main(["validate", "--config", str(config)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_null_takes_the_default(self, tmp_path, capsys):
        config = write_config(tmp_path, top_k=None, alpha=None)
        assert main(["validate", "--config", str(config)]) == 0

    @pytest.mark.parametrize("command", ["analyze", "synth"])
    def test_every_flag_is_a_typed_config_key(self, command):
        # a flag reaches a run only through load_config, so its key must be a checked one,
        # and parse_args converts its value by that key's spec
        keys = set(_FLAGS[command].values()) - {"output_dir"}
        assert keys and keys <= _CONFIG_TYPES.keys() | _SYNTH_TYPES.keys()
        for flag, key in _FLAGS[command].items():
            spec = _SYNTH_TYPES.get(key) or _CONFIG_TYPES[key]
            value = {int: "7", NUMBER: "0.5"}.get(spec, "machine")
            expected = {int: 7, NUMBER: 0.5}.get(spec, "machine")
            assert parse_args([command, "--config", "c", flag, value])[2] == {key: expected}

    def test_removed_attested_key_is_ignored(self, tmp_path):
        # "attested" changed no number and is no longer a config key
        config = write_config(tmp_path, attested="anything")
        out = tmp_path / "run"
        assert main(["analyze", "--config", str(config), "--output-dir", str(out)]) == 0
        summary = read_summary(out)
        assert "attested" not in summary["mode"]


USAGE_ERRORS = [
    ([], "command must be one of 'validate', 'analyze', 'synth', got None"),
    (["bogus", "--config", "c.json"],
     "command must be one of 'validate', 'analyze', 'synth', got 'bogus'"),
    (["--config", "c.json"], "command must be one of 'validate', 'analyze', 'synth', "
                             "got '--config'"),
    (["analyze"], "analyze needs --config"),
    (["synth", "--words", "10"], "synth needs --config"),
    (["analyze", "--config"], "--config needs a value"),
    (["analyze", "--config", "c.json", "--top-k"], "--top-k needs a value"),
    (["analyze", "--config", "c.json", "--output-dir", "--top-k", "3"],
     "--output-dir needs a value"),
    (["analyze", "--config", "c.json", "--top-k", "five"], "--top-k needs int, got 'five'"),
    (["analyze", "--config", "c.json", "--top-k=2.5"], "--top-k needs int, got '2.5'"),
    (["analyze", "--config", "c.json", "--alpha", "x"], "--alpha needs float, got 'x'"),
    (["synth", "--config", "c.json", "--words", "1e4"], "--words needs int, got '1e4'"),
    (["analyze", "--config", "c.json", "--out", "d"], "unknown argument '--out'"),
    (["analyze", "--config=c.json", "--top=3"], "unknown argument '--top=3'"),
    (["validate", "--config", "c.json", "--output-dir", "d"],
     "unknown argument '--output-dir'"),
    (["analyze", "--config", "c.json", "--kind", "machine"], "unknown argument '--kind'"),
    (["synth", "--config", "c.json", "--top-k", "3"], "unknown argument '--top-k'"),
    (["analyze", "--config", "c.json", "out"], "unknown argument 'out'"),
    (["analyze", "-c", "c.json"], "unknown argument '-c'"),
    (["analyze", "--config", "c.json", "--top-k", "3", "--top-k", "4"], "--top-k given twice"),
    (["synth", "--config", "c.json", "--seed=1", "--seed", "1"], "--seed given twice"),
    (["analyze", "--config", "a.json", "--config", "b.json"], "--config given twice"),
]
USAGE_IDS = [" ".join(argv) or "empty" for argv, _ in USAGE_ERRORS]


def _flag_value(spec):
    """Text that `parse_args` converts by a flag's spec: integers for an int, numbers in
    plain and exponent form for a NUMBER, anything (non-ASCII paths too) for the rest but
    `--`, which argparse drops even as `--flag=--`."""
    numbers = st.floats(allow_nan=False, allow_infinity=False)
    if spec is int:
        return st.integers(-10**12, 10**12).map(str)
    if spec is NUMBER:
        return st.one_of(numbers.map(repr), numbers.map("{:e}".format),
                         st.integers(-10**6, 10**6).map(str))
    return st.text(st.characters(blacklist_categories=("Cs",)), max_size=12).filter(
        lambda text: text != "--")


def _argument(flag: str, value: str, attached: bool) -> list[str]:
    # argparse takes a value after a space only if it does not start with "-" or is a plain
    # negative number; any value can be attached with "="
    if attached or (value.startswith("-") and not re.fullmatch(r"-\d+|-\d*\.\d+", value)):
        return [f"{flag}={value}"]
    return [flag, value]


@st.composite
def command_lines(draw) -> list[str]:
    """A valid `analyze` or `synth` command line: its flags in any order, each in either
    form, with `--config` among them."""
    command = draw(st.sampled_from(["analyze", "synth"]))
    flags = {"--config": str, **{flag: _SYNTH_TYPES.get(key) or _CONFIG_TYPES[key]
                                 for flag, key in _FLAGS[command].items()}}
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    chosen = draw(st.permutations(chosen if "--config" in chosen else [*chosen, "--config"]))
    argv = [command]
    for flag in chosen:
        argv += _argument(flag, draw(_flag_value(flags[flag])), draw(st.booleans()))
    return argv


class TestCommandLine:
    @settings(max_examples=300, deadline=None)
    @given(command_lines())
    @example(["synth", "--seed", "-3", "--config", "конфиг/日本.json", "--factor=-1e-05",
              "--output-dir", "вывод"])
    @example(["analyze", "--alpha", "-.5", "--config=c.json", "--top-k=-1",
              "--output-dir=-x", "--deviation-mode", "ratio"])
    def test_overrides_equal_those_of_an_argparse_reference(self, argv):
        assert parse_args(argv) == reference_parse(argv)

    def test_main_returns_the_usage_codes_without_raising(self, capsys):
        assert main(["analyze"]) == 2
        assert main(["--help"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "error: analyze needs --config\n"
        assert captured.out.startswith("usage: semdrift ")

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["analyze", "--help"],
                                      ["synth", "--config", "c.json", "-h"],
                                      ["bogus", "--help"]])
    def test_help_lists_every_flag_with_its_help(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert not captured.err
        for text in ("--config CONFIG", "--deviation-mode {difference,ratio}",
                     "--kind {machine,human}", "--pull NORM_PULL", *_HELP.values()):
            assert text in captured.out
        for flags in _FLAGS.values():
            assert all(f"  {flag} " in captured.out for flag in flags)

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=USAGE_IDS)
    def test_usage_error_exits_2_with_one_error_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=USAGE_IDS)
    def test_usage_error_exits_2_through_each_process_entry(self, entry, argv, message):
        proc = subprocess.run([sys.executable, *ENTRIES[entry], *argv], env=child_env(),
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 2
        assert (proc.stdout, proc.stderr) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("flags, flag", [
        (["--output-dir", "a", "--top-k", "3", "--top-k", "4"], "--top-k"),
        (["--top-k=3", "--output-dir", "a", "--top-k", "3"], "--top-k"),
        (["--output-dir", "a", "--output-dir=b"], "--output-dir"),
    ])
    def test_a_flag_given_twice_is_refused_by_name(self, tmp_path, capsys, monkeypatch,
                                                   flags, flag):
        # argparse kept the last value and dropped the first unseen
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", "--config", str(DATA / "config.json"), *flags]) == 2
        assert capsys.readouterr().err == f"error: {flag} given twice\n"
        assert not any(tmp_path.iterdir())

    def test_an_abbreviated_flag_is_unknown(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", "--config", str(DATA / "config.json"), "--out", "b"]) == 2
        assert capsys.readouterr().err == "error: unknown argument '--out'\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, overrides", [
        (["--alpha", "-1e-3"], {"alpha": -0.001}),
        (["--alpha", "-inf"], {"alpha": float("-inf")}),
        (["--top-k", "-2"], {"top_k": -2}),
        (["--alpha=1E-2", "--top-k=+3"], {"alpha": 0.01, "top_k": 3}),
        (["--output-dir", "-", "--deviation-mode=ratio"],
         {"output_dir": "-", "deviation_mode": "ratio"}),
        (["--output-dir="], {"output_dir": ""}),
        (["--output-dir=--"], {"output_dir": "--"}),
    ])
    def test_a_negative_number_or_a_dash_is_a_value(self, argv, overrides):
        assert parse_args(["analyze", "--config", "c.json", *argv]) == \
            ("analyze", "c.json", overrides)

    def test_a_negative_alpha_reaches_the_config_check(self, capsys):
        assert main(["analyze", "--config", str(DATA / "config.json"),
                     "--alpha", "-1e-3"]) == 2
        assert capsys.readouterr().err == "error: alpha must be in (0, 1), got -0.001\n"


def _count_load_corpus(monkeypatch) -> list:
    calls = []
    original = semdrift.ingest.load_corpus

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(semdrift.ingest, "load_corpus", counted)
    return calls


class TestSingleLoad:
    def test_analyze_reads_the_corpus_once(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        expected = tmp_path / "expected"
        assert main(["analyze", "--config", str(config), "--output-dir", str(expected)]) == 0
        calls = _count_load_corpus(monkeypatch)
        out = tmp_path / "run"
        assert main(["analyze", "--config", str(config), "--output-dir", str(out)]) == 0
        assert len(calls) == 1
        assert read_bundle(out) == read_bundle(expected)

    def test_analyze_splits_each_stratum_by_class_once(self, monkeypatch):
        config = load_config(DATA / "config.json")
        report = run_validation(config)
        calls = count_class_of(monkeypatch)
        analyze(config, report)
        assert len(calls) == sum(len(stratum.lemma_counts()) for stratum in report.strata
                                 if stratum.language_code in report.lexicons)

    def test_missing_manifest_exits_2(self, tmp_path, capsys, monkeypatch):
        calls = _count_load_corpus(monkeypatch)
        config = write_config(tmp_path, manifest=str(tmp_path / "nope.json"))
        out = tmp_path / "bundle"
        assert main(["analyze", "--config", str(config), "--output-dir", str(out)]) == 2
        assert "error: manifest: file not found" in capsys.readouterr().err
        assert len(calls) == 1
        assert not out.exists()

    def test_invalid_manifest_exits_2(self, tmp_path, capsys, monkeypatch):
        calls = _count_load_corpus(monkeypatch)
        (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
        config = write_config(tmp_path, manifest=str(tmp_path / "manifest.json"))
        out = tmp_path / "bundle"
        assert main(["analyze", "--config", str(config), "--output-dir", str(out)]) == 2
        assert "error: manifest: " in capsys.readouterr().err
        assert len(calls) == 1
        assert not out.exists()

    def test_unnamed_manifest_exits_2(self, tmp_path, capsys, monkeypatch):
        calls = _count_load_corpus(monkeypatch)
        config = write_config(tmp_path)
        body = json.loads(config.read_text(encoding="utf-8"))
        del body["manifest"]
        config.write_text(json.dumps(body), encoding="utf-8")
        assert main(["analyze", "--config", str(config),
                     "--output-dir", str(tmp_path / "bundle")]) == 2
        assert "error: config does not name a manifest" in capsys.readouterr().err
        assert calls == []


def absolute_manifest() -> dict:
    """The fixture manifest with absolute file paths, so a copy can be written anywhere."""
    body = json.loads((DATA / "manifest.json").read_text(encoding="utf-8"))
    body["lemma_dicts"] = {code: str(DATA / rel) for code, rel in body["lemma_dicts"].items()}
    for doc in body["documents"]:
        doc["path"] = str(DATA / doc["path"])
    return body


class TestManifestTypes:
    # (top-level keys set, keys set on the first document, error, message)
    @pytest.mark.parametrize("top, first_doc, error, message", [
        ({"profiles": ["de"]}, {}, ValidationError, "profiles must be an object"),
        ({"profiles": {"de": ["a-z"]}}, {}, ValidationError, "profiles.de must be an object"),
        ({"lemma_dicts": ["x"]}, {}, ValidationError, "lemma_dicts must be an object"),
        ({"lemma_dicts": {"ru": 5}}, {}, ValidationError, "lemma_dicts.ru must be a string"),
        ({}, {"path": 5}, ValidationError, "documents[0].path must be a string"),
        ({}, {"path": "."}, IngestError, "cannot read ."),
        ({}, {"language": ["ru"]}, ValidationError, "documents[0].language must be a string"),
        ({"profiles": {"de": {"letters": [5]}}}, {}, ValidationError,
         "profiles.de.letters[0] must be a string"),
        ({}, {"path": "latin1.txt"}, IngestError, "latin1.txt: not UTF-8 text (byte 3)"),
        ({}, {"id": [1]}, ValidationError, "documents[0].id must be a string"),
        ({"documents": {"ru-g8-t1": {}}}, {}, ValidationError, "documents must be a list"),
        ({}, {"group_keys": {"term": 2000}}, ValidationError,
         "documents[0].group_keys.term must be a string, got 2000"),
        ({}, {"translation_kind": ["source"]}, ValidationError,
         "documents[0].translation_kind must be a string"),
        ({}, {"id": None}, ValidationError, "documents[0] is missing field 'id'"),
    ], ids=["profiles-list", "profile-list", "lemma-dicts-list", "lemma-dict-number",
            "path-number", "path-directory", "language-list", "letters-number",
            "text-not-utf8", "id-list", "documents-object", "group-key-number",
            "kind-list", "id-null"])
    def test_wrong_type_or_unreadable_file_exits_2(self, tmp_path, capsys, top, first_doc,
                                                   error, message):
        (tmp_path / "latin1.txt").write_bytes("café".encode("latin-1"))
        body = absolute_manifest()
        body["documents"][0].update(first_doc)
        body.update(top)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(body), encoding="utf-8")
        with pytest.raises(error, match=re.escape(message)) as info:
            load_corpus(manifest)
        if error is IngestError:
            assert str(info.value).startswith(f"{manifest}: ")
        config = write_config(tmp_path, manifest=str(manifest))
        out = tmp_path / "bundle"
        assert main(["analyze", "--config", str(config), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: manifest: ") and message in err
        assert not out.exists()


class TestGroupKeys:
    """Group keys that would make two strata indistinguishable are a manifest error."""

    def test_keys_that_blur_two_strata_exit_2(self, tmp_path, capsys):
        body = absolute_manifest()
        # en-hum-g8-t2 would share the label of en-hum-g8-t1, and unique_lemmas.csv
        # and the ANOVA, which look strata up by label, would mix the two
        body["documents"][5]["group_keys"] = {"summit": "G8,term=2000-2003"}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(body), encoding="utf-8")
        message = ("group keys {'summit': 'G8', 'term': '2000-2003'} and "
                   "{'summit': 'G8,term=2000-2003'} give two strata one label: "
                   "'en/human/summit=G8,term=2000-2003'")
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_corpus(manifest)
        config = write_config(tmp_path, manifest=str(manifest))
        out = tmp_path / "bundle"
        assert main(["analyze", "--config", str(config), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: manifest: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["language", "translation_kind"])
    def test_key_named_after_a_document_field_exits_2(self, tmp_path, capsys, name):
        # grouping by such a key would read the document's own field instead, so
        # every ANOVA over it would find one group and be skipped
        body = absolute_manifest()
        for doc in body["documents"]:
            doc["group_keys"] = {name: doc["group_keys"]["summit"],
                                 "term": doc["group_keys"]["term"]}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(body), encoding="utf-8")
        message = (f"documents[0].group_keys.{name}: a group key may not share its name "
                   f"with a document field")
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_corpus(manifest)
        config = write_config(tmp_path, manifest=str(manifest), group_by=[name])
        out = tmp_path / "bundle"
        assert main(["analyze", "--config", str(config), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: manifest: {message}\n"
        assert not out.exists()


# Relative paths resolve against the directory of the fuzzed file, which holds a
# Latin-1 "latin1.txt"; "" and "." name that directory itself.
# Enum values, near misses of them and decomposed text stand where enums and names go.
_STRINGS = st.one_of(
    st.text(max_size=4),
    st.text(max_size=4).map(lambda text: unicodedata.normalize("NFD", text)),
    st.sampled_from(["ru", "en", "de", "source", "human", "a-z", "term", "robot", "Source",
                     "ratio", "epistemic", "ä", unicodedata.normalize("NFD", "ä")]),
    st.sampled_from(["", ".", "latin1.txt", "missing.txt", str(DATA / "freq_en.tsv"),
                     str(DATA / "texts")]))
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 6), st.floats(-1.0, 2.0), _STRINGS),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_STRINGS, inner, max_size=3)),
    max_leaves=6)
_DELETE = object()
_EDIT_VALUES = st.one_of(_STRINGS, _JSON, st.lists(_STRINGS, min_size=1, max_size=2),
                         st.just(_DELETE))


def _edit(body, location: tuple, value):
    """Replace (or, for _DELETE, remove) the value at a nested location; a location
    that an earlier edit removed is left alone."""
    if not location:
        return {} if value is _DELETE else value
    parent = body
    for key in location[:-1]:
        try:
            parent = parent[key]
        except (KeyError, IndexError, TypeError):
            return body
    key = location[-1]
    if isinstance(parent, dict) and value is _DELETE:
        parent.pop(key, None)
    elif isinstance(parent, dict) or isinstance(parent, list) and key in range(len(parent)):
        parent[key] = {} if value is _DELETE else value
    return body


def _exit_codes(directory: Path, config_body) -> set[int]:
    (directory / "latin1.txt").write_bytes("café".encode("latin-1"))
    config = directory / "config.json"
    config.write_text(json.dumps(config_body), encoding="utf-8")
    return {main(["validate", "--config", str(config)]),
            main(["analyze", "--config", str(config), "--output-dir", str(directory / "out")])}


_MANIFEST_LOCATIONS = [(), ("documents",), ("profiles",), ("lemma_dicts",), ("profiles", "de"),
                       ("profiles", "de", "letters"), ("profiles", "de", "case_fold"),
                       ("lemma_dicts", "en"), ("documents", 0), ("documents", 1)] + [
    ("documents", 0, key) for key in ("path", "id", "language", "translation_kind",
                                      "group_keys")] + [("documents", 1, "group_keys", "term")]
_CONFIG_LOCATIONS = [(), ("lexicons", "en"), ("frequency_tables", "en"), ("priority", 0),
                     ("synth", "kind"), ("synth", "factor"), ("synth", "concept_budget")] + [
    (key,) for key in ("manifest", "source_language", "target_language", "lexicons",
                       "concept_map", "frequency_tables", "priority", "group_by", "alpha",
                       "deviation_mode", "top_k", "synth")]


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


class TestNormalForms:
    # a language with its own profile, read under every name the config and manifest hold
    TEXT = _nfc("Mädchen été")

    def write_inputs(self, tmp_path, nfd_field: str) -> Path:
        """Write a config and a manifest with every string in NFC but `nfd_field`'s."""
        def form(field: str, text: str) -> str:
            return unicodedata.normalize("NFD" if field == nfd_field else "NFC", text)

        text_name = form("path", "é.txt")
        (tmp_path / text_name).write_text(self.TEXT, encoding="utf-8")
        manifest_name = form("manifest", "mé.json")
        (tmp_path / manifest_name).write_text(json.dumps({
            "profiles": {_nfc("dé"): {"letters": ["A-Z", "a-z", form("letters", "äé")]}},
            "documents": [{"path": text_name, "id": form("id", "é-1"),
                           "language": form("language", "dé"), "translation_kind": "source",
                           "group_keys": {_nfc("année"): form("group_keys", "été")}}],
        }, ensure_ascii=False), encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "manifest": manifest_name, "source_language": form("source_language", "dé"),
            "target_language": form("target_language", "dé"),
            "group_by": [form("group_by", "année")]}, ensure_ascii=False), encoding="utf-8")
        return config

    @pytest.mark.parametrize("nfd_field", [
        "source_language", "target_language", "group_by", "id", "language", "group_keys",
        "letters", "manifest", "path"])
    def test_strings_are_read_in_nfc_and_paths_as_written(self, tmp_path, nfd_field):
        # a path that NFC changed would name no file: only the decomposed name exists
        config = load_config(self.write_inputs(tmp_path, nfd_field))
        assert (config.source_language, config.target_language, config.group_by) == \
            (_nfc("dé"), _nfc("dé"), [_nfc("année")])
        [stratum] = load_corpus(config.manifest)
        assert (stratum.label, [(d.id, dict(d.counts)) for d in stratum.documents]) == \
            (_nfc("dé/source/année=été"), [(_nfc("é-1"), {_nfc("mädchen"): 1, _nfc("été"): 1})])

    def test_keys_equal_in_nfc_exit_2(self, tmp_path, capsys):
        body = absolute_manifest()
        body["documents"][0]["group_keys"] = {_nfc("année"): "a",
                                              unicodedata.normalize("NFD", "année"): "b"}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(body, ensure_ascii=False), encoding="utf-8")
        message = f"{manifest}: object key {_nfc('année')!r} is written in two normal forms"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_corpus(manifest)
        config = write_config(tmp_path, manifest=str(manifest))
        assert main(["validate", "--config", str(config)]) == 2
        assert f"error: manifest: {message}" in capsys.readouterr().out

    @pytest.mark.parametrize("where", ["manifest", "config", "group_keys"])
    def test_a_key_written_twice_exits_2(self, tmp_path, capsys, where):
        # json keeps the last of two equal keys, so half a manifest's documents or a
        # config's first alpha would vanish without a word
        def json_object(pairs):
            return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"

        body = absolute_manifest()
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(body), encoding="utf-8")
        config = write_config(tmp_path, manifest=str(manifest))
        if where == "manifest":
            documents = body.pop("documents")
            manifest.write_text(json_object([*body.items(), ("documents", documents[:6]),
                                             ("documents", documents[6:])]), encoding="utf-8")
            path, key = manifest, "documents"
        elif where == "config":
            given_config = json.loads(config.read_text(encoding="utf-8"))
            del given_config["alpha"]
            config.write_text(json_object([*given_config.items(), ("alpha", 0.01),
                                           ("alpha", 0.5)]), encoding="utf-8")
            path, key = config, "alpha"
        else:
            manifest.write_text(json.dumps(body).replace(
                '"group_keys": {', '"group_keys": {"summit": "G20", ', 1), encoding="utf-8")
            path, key = manifest, "summit"
        assert main(["validate", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        shown = "" if where == "config" else "manifest: "
        assert f"error: {shown}{path}: object key {key!r} is written twice\n" in \
            captured.out + captured.err
        assert "Traceback" not in captured.out + captured.err


class TestNoTraceback:
    """Malformed input ends in an exit code (0, 1 or 2), never in an exception."""

    @given(st.lists(st.tuples(st.sampled_from(_MANIFEST_LOCATIONS),
                              _EDIT_VALUES), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_fuzzed_manifest(self, tmp_path_factory, edits):
        directory = tmp_path_factory.mktemp("manifest")
        body = absolute_manifest()
        body["documents"] = body["documents"][:4]
        body["profiles"] = {"de": {"letters": ["a-z"], "case_fold": True}}
        for location, value in edits:
            body = _edit(body, location, value)
        (directory / "manifest.json").write_text(json.dumps(body), encoding="utf-8")
        config = {**base_config(), "manifest": str(directory / "manifest.json")}
        assert _exit_codes(directory, config) <= {0, 1, 2}

    @given(st.lists(st.tuples(st.sampled_from(_CONFIG_LOCATIONS),
                              _EDIT_VALUES), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_config(self, tmp_path_factory, edits):
        body = {**base_config(), "synth": {"kind": "human", "factor": 1.5}}
        for location, value in edits:
            body = _edit(body, location, value)
        assert _exit_codes(tmp_path_factory.mktemp("config"), body) <= {0, 1, 2}


class TestAnalyze:
    def test_bundle_written_and_deterministic(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["analyze", "--config", str(config), "--output-dir", str(out1)]) == 0
        assert main(["analyze", "--config", str(config), "--output-dir", str(out2)]) == 0
        a = read_bundle(out1)
        b = read_bundle(out2)
        assert a.keys() == b.keys()
        assert a == b
        expected = {"unique_lemmas.csv", "tokens_per_lemma_hist.csv", "deviation.csv",
                    "deviation_lemmas.csv", "anova.csv", "tukey.csv", "variants.csv",
                    "top_concepts.csv", "field_width.csv", "cosine.csv", "euclidean.csv",
                    "pca.csv", "summary.json"}
        assert expected <= set(a)

    def test_bundle_matches_golden_files(self, tmp_path):
        # the fixture config names its inputs by relative paths, so the checksum
        # lines and summary.json do not depend on where the repository lives
        out = tmp_path / "run"
        assert main(["analyze", "--config", str(DATA / "config.json"),
                     "--output-dir", str(out)]) == 0
        differences = bundle_differences(read_bundle(out), read_bundle(DATA / "expected_bundle"))
        if differences:
            pytest.fail("the bundle differs from tests/data/expected_bundle (README says how to "
                        "regenerate it):\n" + "\n".join(differences), pytrace=False)

    def test_golden_bundle_is_unchanged(self):
        assert digest(DATA / "expected_bundle") == EXPECTED_BUNDLE_DIGEST

    def test_rerun_over_a_longer_stale_bundle_writes_the_golden_bytes(self, tmp_path):
        expected = read_bundle(DATA / "expected_bundle")
        out = tmp_path / "run"
        out.mkdir()
        for name, data in expected.items():  # each stale file is longer than its new text
            (out / name).write_bytes(data + b"stale\n" * 100)
        assert main(["analyze", "--config", str(DATA / "config.json"),
                     "--output-dir", str(out)]) == 0
        assert read_bundle(out) == expected

    @pytest.mark.skipif(not os.environ.get("SEMDRIFT_PYTHONS"),
                        reason="set SEMDRIFT_PYTHONS to interpreter paths, separated by "
                               "os.pathsep, to enable")
    def test_bundle_matches_golden_files_under_every_interpreter(self, tmp_path):
        env = child_env()
        failures = []
        for i, python in enumerate(os.environ["SEMDRIFT_PYTHONS"].split(os.pathsep)):
            out = tmp_path / f"run{i}"
            run = subprocess.run([python, "-m", "semdrift.cli", "analyze", "--config",
                                  str(DATA / "config.json"), "--output-dir", str(out)],
                                 env=env, capture_output=True, text=True)
            if run.returncode:
                failures.append(f"{python}: exit code {run.returncode}\n{run.stderr}")
                continue
            differences = bundle_differences(read_bundle(out),
                                             read_bundle(DATA / "expected_bundle"))
            failures += [f"{python}: {difference}" for difference in differences]
        if failures:
            pytest.fail("\n".join(failures), pytrace=False)

    def test_headers_carry_table_mode_and_checksums(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["analyze", "--config", str(config), "--output-dir", str(out)])
        text = (out / "unique_lemmas.csv").read_text(encoding="utf-8")
        assert text.startswith("# table: unique_lemmas\n")
        assert "# mode: deviation=difference priority=epistemic>negative>positive" in text
        assert "# inputs: sha256=" in text

    def test_fixture_shows_expected_width_ordering(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["analyze", "--config", str(config), "--output-dir", str(out)])
        summary = read_summary(out)
        widths = {w["stratum"]: w["width_ratio_vs_baseline"]
                  for w in summary["field_width"]}
        assert widths["en/machine"] < 1.0 < widths["en/human"]
        assert summary["pca"]["explained_variance"][0] >= \
            summary["pca"]["explained_variance"][1]

    def test_baseline_is_the_source_stratum_on_the_concept_maps_source_side(self, tmp_path):
        # an English original sorts before ru/source, but the concept map runs ru -> en
        data = shutil.copytree(DATA, tmp_path / "data")
        manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
        manifest["documents"].append({"path": "texts/en_human_g8_t1.txt", "id": "en-original",
                                      "language": "en", "translation_kind": "source"})
        (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["analyze", "--config", str(data / "config.json"),
                     "--output-dir", str(out)]) == 0
        table = (out / "field_width.csv").read_text(encoding="utf-8").splitlines()
        assert table[4:6] == ["en/human,ru/source,3.33333333333,1.5,",
                              "en/machine,ru/source,1,0.45,"]
        assert table[6].startswith("en/source,ru/source,") and len(table) == 7
        # and in summary.json the two translations' rows are the golden ones
        rows, golden = ({r["stratum"]: r for r in read_summary(directory)["field_width"]}
                        for directory in (out, DATA / "expected_bundle"))
        assert [rows["en/human"], rows["en/machine"]] == list(golden.values())

    def test_uncovered_lemmas_reported(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["analyze", "--config", str(config), "--output-dir", str(out)])
        text = (out / "deviation_lemmas.csv").read_text(encoding="utf-8")
        assert "splendid" in text and "uncovered" in text

    def test_analysis_error_exits_1_without_partial_output(self, tmp_path, capsys,
                                                           monkeypatch):
        calls = _count_load_corpus(monkeypatch)
        # an empty translation stratum makes the concept vector undefined
        (tmp_path / "ru.txt").write_text("сказать хороший", encoding="utf-8")
        (tmp_path / "en.txt").write_text("...", encoding="utf-8")
        manifest = {"documents": [
            {"path": "ru.txt", "id": "r", "language": "ru", "translation_kind": "source"},
            {"path": "en.txt", "id": "e", "language": "en", "translation_kind": "human"},
        ]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        out = tmp_path / "bundle"
        # no group_by: these documents carry no group keys
        config = write_config(tmp_path, manifest=str(tmp_path / "manifest.json"), group_by=[])
        code = main(["analyze", "--config", str(config), "--output-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: concept vector for en/human: empty stratum" in err
        assert not out.exists() or not any(out.iterdir())
        assert len(calls) == 1

    @pytest.mark.parametrize("loss", ["removed", "unreadable"])
    def test_input_lost_after_validation_exits_1_without_output(self, tmp_path, capsys,
                                                                monkeypatch, loss):
        # the checksum covers every file the config names, so a lexicon that validation
        # read but that is gone or unreadable when the checksum reads it writes no bundle
        data = shutil.copytree(DATA, tmp_path / "data")
        lexicon = data / "lexicons" / "lex_en_extra.tsv"
        validate = semdrift.cli.run_validation

        def validate_then_lose(*args, **kwargs):
            report = validate(*args, **kwargs)
            lexicon.unlink()
            if loss == "unreadable":
                lexicon.mkdir()
            return report

        monkeypatch.setattr(semdrift.cli, "run_validation", validate_then_lose)
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(data / "config.json"),
                     "--output-dir", str(out)]) == 1
        message = (f"error: file not found: {lexicon}\n" if loss == "removed"
                   else f"error: cannot read {lexicon}: Is a directory\n")
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_output_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("keep", encoding="utf-8")
        assert main(["analyze", "--config", str(config), "--output-dir", str(taken)]) == 2
        assert capsys.readouterr().err.startswith(f"error: output_dir: cannot write {taken}: ")
        assert taken.read_text(encoding="utf-8") == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]

    @pytest.mark.parametrize("command, flags", [
        ("validate", []), ("synth", []), ("analyze", []),
        ("synth", ["--output-dir", ""]), ("analyze", ["--output-dir", ""])])
    def test_empty_output_dir_exits_2_and_leaves_the_inputs(self, tmp_path, capsys, command,
                                                            flags):
        # "" would resolve to the config's own directory, among the inputs
        data = shutil.copytree(DATA, tmp_path / "data")
        config = data / "config.json"
        if not flags:
            body = json.loads(config.read_text(encoding="utf-8"))
            config.write_text(json.dumps({**body, "output_dir": ""}), encoding="utf-8")

        def files():
            return {p: p.read_bytes() for p in sorted(data.rglob("*")) if p.is_file()}

        before = files()
        assert main([command, "--config", str(config), *flags]) == 2
        assert capsys.readouterr().err == "error: output_dir must not be empty\n"
        assert files() == before

    @pytest.mark.parametrize("command", ["synth", "analyze"])
    @pytest.mark.parametrize("by_flag", [True, False], ids=["flag", "config-key"])
    def test_output_dir_holding_an_input_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                                    command, by_flag):
        data = shutil.copytree(DATA, tmp_path / "data")
        config = data / "config.json"
        body = json.loads(config.read_text(encoding="utf-8"))
        if command == "synth":  # synth's channel_params.json would replace a table it reads
            clobbered = "channel_params.json"
            (data / "freq_en.tsv").rename(data / clobbered)
            body["frequency_tables"]["en"] = clobbered
        else:  # the bundle's summary.json would replace the manifest
            clobbered = "summary.json"
            (data / "manifest.json").rename(data / clobbered)
            body["manifest"] = clobbered
        config.write_text(json.dumps({**body, "output_dir": "."}), encoding="utf-8")

        def files():
            return {p: p.read_bytes() for p in sorted(data.rglob("*")) if p.is_file()}

        before = files()
        flags = ["--output-dir", str(data)] if by_flag else []
        assert main([command, "--config", str(config), *flags]) == 2
        assert capsys.readouterr().err == (
            f"error: output_dir: writing {(data / clobbered).resolve()} would overwrite the "
            f"input {clobbered!r}\n")
        assert files() == before

    @staticmethod
    def _rename_in_manifest(data: Path, old: str, new: str) -> None:
        (data / old).rename(data / new)
        manifest = data / "manifest.json"
        manifest.write_text(manifest.read_text(encoding="utf-8").replace(f'"{old}"', f'"{new}"'),
                            encoding="utf-8")

    @pytest.mark.parametrize("command, clobbered, output_dir", [
        ("analyze", "texts/anova.csv", "texts"),
        ("analyze", "pca.csv", "."),
        ("analyze", "summary.json", "."),
        ("synth", "channel_params.json", "."),
    ], ids=["analyze-text", "analyze-lemma-dict", "analyze-config", "synth-config"])
    def test_output_dir_holding_a_file_read_but_not_configured_exits_2(
            self, tmp_path, capsys, command, clobbered, output_dir):
        # the corpus's texts and lemma dictionaries, and the config file itself
        data = shutil.copytree(DATA, tmp_path / "data",
                               ignore=shutil.ignore_patterns("expected_bundle"))
        config = data / "config.json"
        if clobbered == "texts/anova.csv":
            self._rename_in_manifest(data, "texts/en_human_g8_t1.txt", clobbered)
        elif clobbered == "pca.csv":
            self._rename_in_manifest(data, "dicts/en_lemmas.tsv", clobbered)
        else:
            config = config.rename(data / clobbered)

        def files():
            return {p: p.read_bytes() for p in sorted(data.rglob("*")) if p.is_file()}

        before = files()
        assert main([command, "--config", str(config),
                     "--output-dir", str(data / output_dir)]) == 2
        assert capsys.readouterr().err == (
            f"error: output_dir: writing {(data / clobbered).resolve()} would overwrite the "
            f"input {str(data / clobbered)!r}\n")
        assert files() == before

    @pytest.mark.parametrize("command", ["synth", "analyze"])
    def test_output_dir_in_a_symlink_loop_exits_2(self, tmp_path, capsys, command):
        config = write_config(tmp_path)
        (tmp_path / "a").symlink_to("b")
        (tmp_path / "b").symlink_to("a")
        assert main([command, "--config", str(config), "--output-dir",
                     str(tmp_path / "a" / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: output_dir: cannot write ")

    @pytest.mark.parametrize("command", ["validate", "synth", "analyze"])
    def test_output_dir_with_a_nul_character_exits_2(self, tmp_path, capsys, command):
        config = write_config(tmp_path, output_dir="run\0")
        assert main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: output_dir must not contain a NUL character\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_failed_write_leaves_no_partial_bundle(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        # a directory where a table must go; the files sorted before it are written first
        (out / "tukey.csv").mkdir(parents=True)
        assert main(["analyze", "--config", str(config), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: output_dir: cannot write {out / 'tukey.csv'}: ")
        assert [p.name for p in out.iterdir()] == ["tukey.csv"]

    @pytest.mark.parametrize("name", ["deviation_lemmas.csv", "summary.json"])
    def test_failed_write_into_a_file_leaves_none_of_the_bundle(self, tmp_path, capsys,
                                                                 monkeypatch, name):
        # a disk that fills up after the first write into `name`: the files sorted before
        # it are whole by then, and `name` holds part of its text
        config = write_config(tmp_path)
        out = tmp_path / "run"
        real_open = Path.open

        class FillsUp:
            def __init__(self, file):
                self.file = file
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.file.close()

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.file.write(text)

        def open_(path, *args, **kwargs):
            file = real_open(path, *args, **kwargs)
            return FillsUp(file) if path == out / name else file

        monkeypatch.setattr(Path, "open", open_)
        assert main(["analyze", "--config", str(config), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: output_dir: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
        assert list(out.iterdir()) == []

    def test_validation_failure_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, concept_map=str(tmp_path / "missing.tsv"))
        assert main(["analyze", "--config", str(config),
                     "--output-dir", str(tmp_path / "x")]) == 2

    def test_group_by_factor_no_document_carries_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, group_by=["genre", "term"])
        assert main(["validate", "--config", str(config)]) == 2
        assert "error: group_by factor 'genre': no document has this group key" in \
            capsys.readouterr().out
        out = tmp_path / "run"
        assert main(["analyze", "--config", str(config), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: group_by factor 'genre': no document has this group key\n"
        assert not out.exists()

    def test_ratio_mode_flag(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        main(["analyze", "--config", str(config), "--output-dir", str(out),
              "--deviation-mode", "ratio"])
        text = (out / "deviation.csv").read_text(encoding="utf-8")
        assert "# mode: deviation=ratio" in text
        assert ",ratio," in text

    def test_ratio_mode_leaves_out_an_expected_percent_that_underflows(self, tmp_path):
        # 1e-320 per million is 1e-324 percent, which underflows to 0.0: no denominator
        data = shutil.copytree(DATA, tmp_path / "data")
        freq = data / "freq_en.tsv"
        text = freq.read_text(encoding="utf-8")
        freq.write_text(text.replace("say\t2600\n", "say\t1e-320\n"), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["analyze", "--config", str(data / "config.json"), "--output-dir", str(out),
                     "--deviation-mode", "ratio"]) == 0
        lines = (out / "deviation_lemmas.csv").read_text(encoding="utf-8").splitlines()[3:]
        said = [row for row in csv.DictReader(lines) if row["lemma"] == "say"]
        assert len(said) == 8
        assert all((row["expected_pct"], row["value"], row["status"]) == ("", "", "uncovered")
                   for row in said)
        assert {r["stratum"] for r in read_summary(out)["deviations"]
                if "say" in r["uncovered"]} == {row["stratum"] for row in said}

    @staticmethod
    def many_groups_bundle(tmp_path, tiny):
        """The seed-1 many-groups benchmark corpus, its analyze bundle and group counts."""
        spec = importlib.util.spec_from_file_location("workloads",
                                                      ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        workload = workloads.many_groups(ROOT, tmp_path / "corpus", 1, tiny=tiny)
        out = tmp_path / "bundle"
        assert main(["analyze", "--config", str(workload.directory / workload.config),
                     "--output-dir", str(out)]) == 0
        anova = read_summary(out)["anova"]
        return workload.directory / "texts", out, {len(r["group_means"]) for r in anova}

    def test_three_group_bundle_matches_pinned_digest(self, tmp_path):
        texts, out, group_counts = self.many_groups_bundle(tmp_path, tiny=True)
        assert group_counts >= {3}
        assert digest(texts) == MANY_GROUPS_TEXTS_DIGEST
        assert digest(out) == MANY_GROUPS_DIGEST

    def test_full_size_bundle_matches_pinned_digest(self, tmp_path):
        texts, out, group_counts = self.many_groups_bundle(tmp_path, tiny=False)
        assert group_counts >= {4, 5}
        assert digest(texts) == MANY_GROUPS_FULL_TEXTS_DIGEST
        assert digest(out) == MANY_GROUPS_FULL_DIGEST

    def test_full_size_analyze_builds_no_panel(self, tmp_path, monkeypatch):
        # its Tukey calls are of k = 4 and 5, whose panels all come from the shipped table
        forbid_panel_building(monkeypatch)
        self.many_groups_bundle(tmp_path, tiny=False)


class TestSynth:
    def synth_config(self, tmp_path, **synth_options):
        return write_config(tmp_path, synth={"words": 4000, **synth_options})

    def test_reproducible_output(self, tmp_path):
        config = self.synth_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            assert main(["synth", "--config", str(config), "--kind", "machine",
                         "--seed", "7", "--output-dir", str(out)]) == 0
        assert read_bundle(out1) == read_bundle(out2)

    def test_word_count_ratio(self, tmp_path):
        config = self.synth_config(tmp_path)
        out = tmp_path / "s"
        assert main(["synth", "--config", str(config), "--kind", "human",
                     "--seed", "3", "--inflation", "1.19",
                     "--output-dir", str(out)]) == 0
        strata = load_corpus(out / "manifest.json")
        by_kind = {s.translation_kind.value: s.total_word_count for s in strata}
        ratio = by_kind["human"] / by_kind["source"]
        assert abs(ratio - 1.19) <= 0.005 * 1.19

    @pytest.mark.parametrize("options, tokens", [
        ({}, 400), ({"concept_budget": None}, 400), ({"concept_budget": {}}, 0),
        ({"concept_budget": {"say": 0}}, 0)], ids=["absent", "null", "empty", "zero"])
    def test_only_an_absent_budget_takes_every_concept(self, tmp_path, options, tokens):
        config = self.synth_config(tmp_path, words=2000, **options)
        out = tmp_path / "s"
        assert main(["synth", "--config", str(config), "--output-dir", str(out)]) == 0
        source = next(s for s in load_corpus(out / "manifest.json")
                      if s.translation_kind.value == "source")
        counts = source.lemma_counts()
        assert sum(counts[lem] for lem in fixture_concept_map().lemmas(Side.SOURCE)) == tokens
        assert source.total_word_count == 2000

    def test_invalid_inflation_exits_2(self, tmp_path, capsys):
        config = self.synth_config(tmp_path)
        assert main(["synth", "--config", str(config), "--inflation", "0",
                     "--output-dir", str(tmp_path / "s")]) == 2
        assert "length_inflation" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, options, message", [
        (["--words", "0"], {}, "target_words must be > 0, got 0"),
        ([], {"filler_size": 0}, "filler_size must be >= 1, got 0"),
        ([], {"concept_density": 1.5}, "concept_density must be in [0, 1], got 1.5"),
        ([], {"concept_budget": {"say": -1}}, "concept weights must be >= 0, got -1.0 for 'say'"),
        ([], {"concept_budget": {"nope": 1}}, "unknown concept id in budget: 'nope'"),
        ([], {"kind": "robot"}, "synth.kind must be one of 'machine', 'human', got 'robot'"),
        ([], {"words": 10**12}, "synth.words must be at most 10000000, got 1000000000000"),
        (["--words", "10000001"], {}, "synth.words must be at most 10000000, got 10000001"),
        ([], {"filler_size": 10_000_001},
         "synth.filler_size must be at most 10000000, got 10000001"),
        ([], {"length_inflation": 1e12},
         "synth.words x synth.length_inflation must be at most 10000000, "
         "got 4000000000000000.0"),
        (["--inflation", "2500.5"], {},
         "synth.words x synth.length_inflation must be at most 10000000, got 10002000.0"),
        (["--seed", "-1"], {}, "seed must be >= 0, got -1"),
        (["--factor", "1e308"], {},
         "narrow_widen_factor is too large: 1e+308 times 3 attested variants overflows"),
        ([], {"concept_budget": {"say": 1e308, "think": 1e308}},
         "concept weights must sum to a finite number"),
    ])
    def test_out_of_range_setting_exits_2_unwritten(self, tmp_path, capsys, flags, options,
                                                    message):
        config = self.synth_config(tmp_path, **options)
        out = tmp_path / "s"
        assert main(["synth", "--config", str(config), *flags, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_sizes_are_bounded_before_any_input_is_read(self, tmp_path, capsys):
        config = write_config(tmp_path, concept_map=str(tmp_path / "missing.tsv"),
                              synth={"words": 4000, "length_inflation": 1e12})
        out = tmp_path / "s"
        assert main(["synth", "--config", str(config), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: synth.words x synth.length_inflation")
        assert not out.exists()

    def test_output_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        config = self.synth_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("keep", encoding="utf-8")
        assert main(["synth", "--config", str(config), "--output-dir", str(taken)]) == 2
        assert capsys.readouterr().err.startswith(f"error: output_dir: cannot write {taken}: ")
        assert taken.read_text(encoding="utf-8") == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]

    @pytest.mark.parametrize("blocked", ["channel_params.json", "synthetic-machine-seed0.txt",
                                         "manifest.json"])
    def test_failed_write_leaves_no_partial_corpus(self, tmp_path, capsys, blocked):
        config = self.synth_config(tmp_path)
        out = tmp_path / "s"
        # a directory where a file must go; the files before it are written first
        (out / blocked).mkdir(parents=True)
        assert main(["synth", "--config", str(config), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: output_dir: cannot write {out / blocked}: ")
        assert [p.name for p in out.iterdir()] == [blocked]

    def test_broken_source_frequency_table_exits_2(self, tmp_path, capsys):
        # synth validates its inputs as `validate` does, the source-side table included
        config = write_config(tmp_path, synth={"words": 4000},
                              frequency_tables={"ru": str(tmp_path / "missing.tsv"),
                                                "en": str(DATA / "freq_en.tsv")})
        out = tmp_path / "s"
        assert main(["synth", "--config", str(config), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: frequency table ru: ")
        assert not out.exists()

    def test_synth_then_analyze_recovers_direction(self, tmp_path):
        config = self.synth_config(tmp_path)
        corpus_dir = tmp_path / "corpus"
        assert main(["synth", "--config", str(config), "--kind", "machine",
                     "--seed", "11", "--words", "20000",
                     "--output-dir", str(corpus_dir)]) == 0
        analyze_config = write_config(
            tmp_path, name="analyze_config.json",
            manifest=str(corpus_dir / "manifest.json"), group_by=[])
        out = tmp_path / "bundle"
        assert main(["analyze", "--config", str(analyze_config),
                     "--output-dir", str(out)]) == 0
        summary = read_summary(out)
        widths = {w["stratum"]: w["width_ratio_vs_baseline"]
                  for w in summary["field_width"]}
        assert widths["en/machine"] < 1.0

    def test_synth_writes_the_manifest_that_analyze_then_reads(self, tmp_path):
        # one config for both commands: it names the corpus synth writes as its manifest,
        # which synth does not read, so the output guard lets synth write it
        corpus_dir = tmp_path / "corpus"
        config = write_config(tmp_path, manifest="corpus/manifest.json", output_dir="out",
                              group_by=[], synth={"words": 4000})
        assert main(["synth", "--config", str(config), "--output-dir", str(corpus_dir)]) == 0
        assert main(["analyze", "--config", str(config)]) == 0
        summary = read_summary(tmp_path / "out")
        words = {(s["language"], s["translation_kind"]): s["total_word_count"]
                 for s in summary["strata"]}
        assert words.keys() == {("ru", "source"), ("en", "machine")}
        assert words["ru", "source"] == 4000


@pytest.mark.parametrize("command", ["analyze", "synth"])
def test_output_dir_flag_is_relative_to_the_working_directory(tmp_path, monkeypatch, command):
    (tmp_path / "conf").mkdir()
    config = write_config(tmp_path / "conf", output_dir="from_config", synth={"words": 4000})
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main([command, "--config", str(config), "--output-dir", "out"]) == 0
    assert (work / "out").is_dir()
    assert not (tmp_path / "conf" / "out").exists()
    # the config's own output_dir stays relative to the config file
    assert main([command, "--config", str(config)]) == 0
    assert (tmp_path / "conf" / "from_config").is_dir()
    assert not (work / "from_config").exists()
