"""Per-module spans for one semdrift CLI command, recorded from outside the program.

Run as a child process with `src` on PYTHONPATH:

    python perfbench/tracer.py SPANS.json -- analyze --config config.json

It wraps every public module-level function of each semdrift module (and the
few methods in METHODS), rebinds each wrapper wherever a module imported the
original by name (`semdrift.cli` imports the lexicon loaders that way), runs
`semdrift.cli.main` on the arguments, and writes one record per wrapped
function: calls, total seconds, self seconds (total minus time in nested
wrapped calls) and the counters its HOOKS collect.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("ingest", "lexicon", "freq", "semfield", "vectors", "stats", "synth", "cli")
# Methods worth a span; module-level public functions are found by inspection.
METHODS = {"ingest": ("CorpusStratum.lemma_counts",), "freq": ("FrequencyTable.load",)}


def _manifest_bytes(manifest_path) -> int:
    """Bytes of a manifest plus every lemma dict and document it lists."""
    manifest_path = Path(manifest_path)
    body = json.loads(manifest_path.read_text(encoding="utf-8"))
    base = manifest_path.parent
    files = list(body.get("lemma_dicts", {}).values()) + [d["path"] for d in body["documents"]]
    return manifest_path.stat().st_size + sum((base / f).stat().st_size for f in files)


def _count(key, fn):
    return lambda args, kwargs, result: {key: fn(args, kwargs, result)}


# Counters taken at the span boundary: name -> f(args, kwargs, result) -> {counter: n}.
HOOKS = {
    "ingest.tokenize": _count("tokens", lambda a, k, r: len(r)),
    "ingest.lemmatize": lambda a, k, r: {
        "tokens": len(r), "dict_hits": sum(t in a[1].entries for t in a[0])},
    "ingest.load_corpus": _count("bytes_read", lambda a, k, r: _manifest_bytes(a[0])),
    "ingest.save_corpus": _count("bytes_written", lambda a, k, r: _manifest_bytes(r)),
    "lexicon.load_lexicon_sources": _count("entries", lambda a, k, r: len(r)),
    "lexicon.find_conflicts": _count("conflicts", lambda a, k, r: len(r)),
    "semfield.variant_counts": _count("concepts", lambda a, k, r: len(r)),
    "vectors.concept_vector": _count("dims_max", lambda a, k, r: len(r.dims)),
    "vectors.pca_2d": _count("dims_max", lambda a, k, r: len(a[0][0].dims)),
    "stats.tukey_hsd": _count("pairs", lambda a, k, r: len(r.pairs)),
    "synth.generate_source": _count("words", lambda a, k, r: r.total_word_count),
    "synth.apply_channel": _count("words", lambda a, k, r: r.total_word_count),
}


def _accumulate(record: dict, key: str, value) -> None:
    """Add `value` to a counter; counters named `*_max` keep the maximum instead."""
    record[key] = max(record.get(key, 0), value) if key.endswith("_max") \
        else record.get(key, 0) + value


class Tracer:
    """Aggregated spans: a stack of open calls and per-function totals."""

    def __init__(self):
        self.stack: list[list[float]] = []      # [start, time covered by children]
        self.records: dict[str, dict] = {}

    def wrap(self, name: str, fn):
        record = self.records.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        hook = HOOKS.get(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[0]
                record["calls"] += 1
                record["total_s"] += duration
                record["self_s"] += duration - frame[1]
            if hook is not None:
                for key, n in hook(args, kwargs, result).items():
                    _accumulate(record, key, n)
            if stack:
                # the hook's own time is not the caller's work either
                stack[-1][1] += time.perf_counter() - frame[0]
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"semdrift.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrapper = self.wrap(f"{layer}.{attr}", value)
                    setattr(module, attr, wrapper)
                    replaced[id(value)] = wrapper
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(f"{layer}.{path}", raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(f"{layer}.{path}", raw))
        # rebind names imported with `from .x import f` in every semdrift module
        for name, module in list(sys.modules.items()):
            if name == "semdrift" or name.startswith("semdrift."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replaced and value is not replaced[id(value)]:
                        setattr(module, attr, replaced[id(value)])


# Spans every workload must record; the wiring guard fails the run on a zero.
REQUIRED = (
    "ingest.load_corpus", "ingest.tokenize", "ingest.lemmatize", "ingest.save_corpus",
    "ingest.CorpusStratum.lemma_counts", "lexicon.load_lexicon_sources",
    "lexicon.merge_disjoint", "lexicon.find_conflicts", "lexicon.load_concept_map",
    "freq.FrequencyTable.load", "freq.sentiment_stats", "freq.tokens_per_lemma",
    "freq.expected_deviation", "semfield.variant_counts", "semfield.field_width_report",
    "vectors.concept_vector", "vectors.cosine", "vectors.euclidean", "vectors.pca_2d",
    "synth.generate_source", "synth.apply_channel", "cli.run_validation", "cli.analyze",
    "cli.cmd_analyze", "cli.cmd_synth")


def merge_records(*runs: dict) -> dict:
    """Sum span records of several traced commands (maxima for `*_max` counters)."""
    merged: dict[str, dict] = {}
    for spans in runs:
        for name, record in spans.items():
            into = merged.setdefault(name, {})
            for key, value in record.items():
                _accumulate(into, key, value)
    return merged


def layer_self(spans: dict) -> dict[str, float]:
    """Self seconds per layer."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, record in spans.items():
        totals[name.split(".")[0]] += record["self_s"]
    return totals


SRANGE = "stats.studentized_range_cdf"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(synth_spans: dict, analyze_spans: dict, extra: dict) -> dict:
    """Per-layer metrics over one traced synth plus one traced analyze.

    Returns name -> (value, unit, spans it is computed from).
    """
    spans = merge_records(synth_spans, analyze_spans)
    own = layer_self(spans)

    def get(name, key="total_s"):
        return spans.get(name, {}).get(key, 0)

    def total(*names):
        return sum(get(n) for n in names)

    srange_calls = get(SRANGE, "calls")
    anova_calls = get("stats.one_way_anova", "calls")
    words = get("synth.generate_source", "words") + get("synth.apply_channel", "words")
    dims = get("vectors.pca_2d", "dims_max") or get("vectors.concept_vector", "dims_max")
    table = [
        ("ingest.load_corpus_calls", get("ingest.load_corpus", "calls"), "count",
         ["ingest.load_corpus"]),
        ("ingest.load_corpus_s", total("ingest.load_corpus"), "s", ["ingest.load_corpus"]),
        ("ingest.self_s", own["ingest"], "s", []),
        ("ingest.tokenize_s", total("ingest.tokenize"), "s", ["ingest.tokenize"]),
        ("ingest.tokens", get("ingest.tokenize", "tokens"), "count", ["ingest.tokenize"]),
        ("ingest.tokens_per_s", _ratio(get("ingest.tokenize", "tokens"),
                                       total("ingest.tokenize")), "tokens/s",
         ["ingest.tokenize"]),
        ("ingest.lemmatize_s", total("ingest.lemmatize"), "s", ["ingest.lemmatize"]),
        ("ingest.dict_hit_rate", _ratio(get("ingest.lemmatize", "dict_hits"),
                                        get("ingest.lemmatize", "tokens")), "ratio",
         ["ingest.lemmatize"]),
        ("ingest.lemma_counts_s", total("ingest.CorpusStratum.lemma_counts"), "s",
         ["ingest.CorpusStratum.lemma_counts"]),
        ("ingest.bytes_read", get("ingest.load_corpus", "bytes_read"), "B",
         ["ingest.load_corpus"]),
        ("ingest.retained_mib", extra["retained_bytes"] / 2**20, "MiB", []),
        ("ingest.save_corpus_s", total("ingest.save_corpus"), "s", ["ingest.save_corpus"]),
        ("ingest.bytes_written", get("ingest.save_corpus", "bytes_written"), "B",
         ["ingest.save_corpus"]),
        ("lexicon.load_calls", get("lexicon.load_lexicon_sources", "calls"), "count",
         ["lexicon.load_lexicon_sources"]),
        ("lexicon.load_s", total("lexicon.load_lexicon_sources", "lexicon.find_conflicts",
                                 "lexicon.merge_disjoint"), "s",
         ["lexicon.load_lexicon_sources", "lexicon.find_conflicts", "lexicon.merge_disjoint"]),
        ("lexicon.entries", get("lexicon.load_lexicon_sources", "entries"), "count",
         ["lexicon.load_lexicon_sources"]),
        ("lexicon.conflicts", get("lexicon.find_conflicts", "conflicts"), "count",
         ["lexicon.find_conflicts"]),
        ("lexicon.concept_map_s", total("lexicon.load_concept_map"), "s",
         ["lexicon.load_concept_map"]),
        ("lexicon.self_s", own["lexicon"], "s", []),
        ("freq.table_load_s", total("freq.FrequencyTable.load"), "s",
         ["freq.FrequencyTable.load"]),
        ("freq.sentiment_stats_calls", get("freq.sentiment_stats", "calls"), "count",
         ["freq.sentiment_stats"]),
        ("freq.sentiment_stats_s", total("freq.sentiment_stats"), "s",
         ["freq.sentiment_stats"]),
        ("freq.tokens_per_lemma_s", total("freq.tokens_per_lemma"), "s",
         ["freq.tokens_per_lemma"]),
        ("freq.expected_deviation_s", total("freq.expected_deviation"), "s",
         ["freq.expected_deviation"]),
        ("freq.self_s", own["freq"], "s", []),
        ("semfield.variant_counts_calls", get("semfield.variant_counts", "calls"), "count",
         ["semfield.variant_counts"]),
        ("semfield.variant_counts_s", total("semfield.variant_counts"), "s",
         ["semfield.variant_counts"]),
        ("semfield.concepts_profiled", get("semfield.variant_counts", "concepts"), "count",
         ["semfield.variant_counts"]),
        ("semfield.field_width_s", total("semfield.field_width_report"), "s",
         ["semfield.field_width_report"]),
        ("semfield.self_s", own["semfield"], "s", []),
        ("vectors.concept_vector_s", total("vectors.concept_vector"), "s",
         ["vectors.concept_vector"]),
        ("vectors.similarity_pairs", get("vectors.cosine", "calls"), "count",
         ["vectors.cosine"]),
        ("vectors.similarity_s", total("vectors.cosine", "vectors.euclidean"), "s",
         ["vectors.cosine", "vectors.euclidean"]),
        ("vectors.pca_2d_s", total("vectors.pca_2d"), "s", ["vectors.pca_2d"]),
        ("vectors.dims", dims, "count", ["vectors.concept_vector"]),
        ("vectors.cov_bytes", dims * dims * 8, "B", ["vectors.pca_2d"]),
        ("vectors.self_s", own["vectors"], "s", []),
        ("stats.anova_calls", anova_calls, "count", ["stats.one_way_anova"]),
        ("stats.anova_s", total("stats.one_way_anova"), "s", ["stats.one_way_anova"]),
        ("stats.f_cdf_calls", get("stats.f_cdf", "calls"), "count", ["stats.f_cdf"]),
        ("stats.f_cdf_s", total("stats.f_cdf"), "s", ["stats.f_cdf"]),
        ("stats.tukey_calls", get("stats.tukey_hsd", "calls"), "count", ["stats.tukey_hsd"]),
        ("stats.tukey_pairs", get("stats.tukey_hsd", "pairs"), "count", ["stats.tukey_hsd"]),
        ("stats.tukey_s", total("stats.tukey_hsd"), "s", ["stats.tukey_hsd"]),
        ("stats.srange_cdf_calls", srange_calls, "count", [SRANGE]),
        ("stats.srange_cdf_s", total(SRANGE), "s", [SRANGE]),
        ("stats.srange_cdf_us_per_call",
         1e6 * _ratio(total(SRANGE), srange_calls), "us", [SRANGE]),
        ("stats.srange_grid_points", srange_calls * 160 * 96, "count", [SRANGE]),
        ("stats.skipped_ratio", _ratio(extra["anova_skipped"],
                                       extra["anova_skipped"] + anova_calls), "ratio",
         ["stats.one_way_anova"]),
        ("stats.self_s", own["stats"], "s", []),
        ("synth.generate_source_s", total("synth.generate_source"), "s",
         ["synth.generate_source"]),
        ("synth.apply_channel_s", total("synth.apply_channel"), "s", ["synth.apply_channel"]),
        ("synth.words_emitted", words, "count", ["synth.generate_source"]),
        ("synth.words_per_s",
         _ratio(words, total("synth.generate_source", "synth.apply_channel")), "words/s",
         ["synth.generate_source", "synth.apply_channel"]),
        ("synth.self_s", own["synth"], "s", []),
        ("cli.validate_s", total("cli.run_validation"), "s", ["cli.run_validation"]),
        ("cli.analyze_s", total("cli.analyze"), "s", ["cli.analyze"]),
        ("cli.self_s", get("cli.analyze", "self_s"), "s", ["cli.analyze"]),
        ("cli.write_s", get("cli.cmd_analyze", "self_s"), "s", ["cli.cmd_analyze"]),
        ("cli.bundle_bytes", extra["bundle_bytes"], "B", []),
        ("cli.bundle_files", extra["bundle_files"], "count", []),
        ("trace.overhead_pct", extra["overhead_pct"], "%", []),
    ]
    return {name: (value, unit, deps) for name, value, unit, deps in table}


def main(argv: list[str]) -> int:
    out, sep, command = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <semdrift arguments>")
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("semdrift.cli")
    start = time.perf_counter()
    code = cli.main(command)
    wall = time.perf_counter() - start
    Path(out).write_text(json.dumps({"exit_code": code, "wall_s": wall,
                                     "spans": tracer.records}, indent=1, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
