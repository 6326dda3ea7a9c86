import json
from pathlib import Path

import pytest

import semdrift.ingest
from semdrift import load_corpus
from semdrift.cli import main

from helpers import DATA


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
        "attested": True,
    }


def write_config(tmp_path, name="config.json", **overrides) -> Path:
    config = {**base_config(), **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(config, ensure_ascii=False, indent=2), encoding="utf-8")
    return path


def read_bundle(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestValidate:
    def test_clean_config(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["validate", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out

    def test_conflicts_reported_with_resolution(self, tmp_path, capsys):
        config = write_config(tmp_path)
        main(["validate", "--config", str(config)])
        out = capsys.readouterr().out
        assert "cross-listed lemma 'clear'" in out
        assert "resolved to epistemic" in out
        assert "cross-listed lemma 'fine'" in out
        assert "resolved to negative" in out

    def test_missing_frequency_table_exits_2(self, tmp_path, capsys):
        config = write_config(
            tmp_path, frequency_tables={"ru": str(DATA / "freq_ru.tsv"),
                                        "en": str(tmp_path / "missing.tsv")})
        assert main(["validate", "--config", str(config)]) == 2
        out = capsys.readouterr().out
        assert "error" in out and "file not found" in out

    def test_missing_manifest_file_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, manifest=str(tmp_path / "nope.json"))
        assert main(["validate", "--config", str(config)]) == 2

    def test_bad_config_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2


class TestConfigTypes:
    @pytest.mark.parametrize("overrides, message", [
        ({"top_k": "five"}, "top_k must be an integer"),
        ({"alpha": "x"}, "alpha must be a number"),
        ({"lexicons": [str(DATA / "lexicons/lex_en_core.tsv")]}, "lexicons must be an object"),
        ({"group_by": "term"}, "group_by must be a list"),
        ({"top_k": True}, "top_k must be an integer"),
        ({"attested": "false"}, "attested must be true or false"),
        ({"frequency_tables": {"en": 1}}, "frequency_tables.en must be a string"),
        ({"synth": {"words": "many"}}, "synth.words must be an integer"),
    ])
    def test_wrong_type_exits_2(self, tmp_path, capsys, overrides, message):
        config = write_config(tmp_path, **overrides)
        assert main(["validate", "--config", str(config)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_null_takes_the_default(self, tmp_path, capsys):
        config = write_config(tmp_path, top_k=None, alpha=None)
        assert main(["validate", "--config", str(config)]) == 0


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
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        widths = {w["stratum"]: w["width_ratio_vs_baseline"]
                  for w in summary["field_width"]}
        assert widths["en/machine"] < 1.0 < widths["en/human"]
        assert summary["pca"]["explained_variance"][0] >= \
            summary["pca"]["explained_variance"][1]

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

    def test_invalid_inflation_exits_2(self, tmp_path, capsys):
        config = self.synth_config(tmp_path)
        assert main(["synth", "--config", str(config), "--inflation", "0",
                     "--output-dir", str(tmp_path / "s")]) == 2
        assert "length_inflation" in capsys.readouterr().err

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
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        widths = {w["stratum"]: w["width_ratio_vs_baseline"]
                  for w in summary["field_width"]}
        assert widths["en/machine"] < 1.0
