"""Command-line front end: validate inputs, run the analysis bundle, or synthesize corpora.

Exit codes: 0 success, 1 analysis error, 2 configuration/validation error.

`run()` is the process entry, of both `python -m semdrift.cli` and the `semdrift`
console script: it runs `main()` with the cyclic garbage collector off and freezes what
survives, so no collection runs during the command and the one at interpreter shutdown has
almost nothing to scan. `main(argv)` returns the exit code and leaves the collector as it
found it, for callers in process such as the tests and `perfbench/tracer.py`.
"""

import gc
import json
import os
import sys
from functools import partial
from pathlib import Path

from . import ingest
from .errors import NUMBER, PATH, Record, SemdriftError, ValidationError, check
from .freq import DeviationMode, FrequencyTable
from .ingest import ChannelKind, CorpusStratum, TranslationKind, group_strata
from .lexicon import (DEFAULT_PRIORITY, ConceptMap, SentimentClass, SentimentLexicon,
                      find_conflicts, load_concept_map, load_lexicon_sources, merge_disjoint)

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_CONFIG = 2


class RunConfig(Record):
    """Resolved run settings; paths are absolute, and `inputs` maps each as written to it."""

    def __init__(self, manifest: Path | None = None, source_language: str | None = None,
                 target_language: str | None = None,
                 lexicons: dict[str, list[Path]] | None = None, concept_map: Path | None = None,
                 frequency_tables: dict[str, Path] | None = None,
                 priority: tuple[SentimentClass, ...] = DEFAULT_PRIORITY,
                 group_by: list[str] | None = None, alpha: float = 0.05,
                 deviation_mode: DeviationMode = DeviationMode.DIFFERENCE, top_k: int = 5,
                 output_dir: Path = Path("out"), synth_options: dict | None = None,
                 inputs: dict[str, Path] | None = None):
        self.manifest = manifest
        self.source_language = source_language
        self.target_language = target_language
        self.lexicons = {} if lexicons is None else lexicons
        self.concept_map = concept_map
        self.frequency_tables = {} if frequency_tables is None else frequency_tables
        self.priority = priority
        self.group_by = [] if group_by is None else group_by
        self.alpha = alpha
        self.deviation_mode = deviation_mode
        self.top_k = top_k
        self.output_dir = output_dir
        self.synth_options = {} if synth_options is None else synth_options
        self.inputs = {} if inputs is None else inputs


# The spec (see `errors.check`) of each config key; a key that is absent or null takes the
# RunConfig default. `lexicons` maps a language to a path or a list of paths.
_SYNTH_TYPES = {
    "words": int, "seed": int, "kind": ChannelKind, "factor": NUMBER, "norm_pull": NUMBER,
    "length_inflation": NUMBER, "concept_density": NUMBER, "filler_size": int,
    "concept_budget": {str: NUMBER},
}
_CONFIG_TYPES = {
    "manifest": PATH, "source_language": str, "target_language": str, "lexicons": dict,
    "concept_map": PATH, "frequency_tables": {str: PATH}, "priority": [SentimentClass],
    "group_by": [str], "alpha": NUMBER, "deviation_mode": DeviationMode, "top_k": int,
    "output_dir": PATH, "synth": _SYNTH_TYPES,
}
_SETTINGS = ("source_language", "target_language", "group_by", "alpha", "deviation_mode",
             "top_k")


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Read a JSON config file and apply command-line overrides.

    `overrides` maps config keys to values (None sets nothing); a `_SYNTH_TYPES`
    key goes into the `synth` block. Every value, overrides included, is
    checked against its spec in `_CONFIG_TYPES` (see `errors.check`), so a
    malformed config ends in a ValidationError rather than a misread value or
    a traceback: names are read in NFC, paths as written, numbers as floats.
    """
    path = Path(path)
    given = {k: v for k, v in (overrides or {}).items() if v is not None}
    body = check("", {**ingest.read_json(path),
                      **{k: v for k, v in given.items() if k in _CONFIG_TYPES}}, _CONFIG_TYPES)

    base = path.parent
    config = RunConfig(**{key: body[key] for key in _SETTINGS if key in body})

    def resolve(raw: str) -> Path:
        config.inputs[raw] = base / raw  # an absolute path replaces base
        return config.inputs[raw]

    if "manifest" in body:
        config.manifest = resolve(body["manifest"])
    for lang, paths in body.get("lexicons", {}).items():
        paths = check(f"lexicons.{lang}", [paths] if isinstance(paths, str) else paths, [PATH])
        config.lexicons[lang] = [resolve(p) for p in paths]
    if "concept_map" in body:
        config.concept_map = resolve(body["concept_map"])
    for lang, p in body.get("frequency_tables", {}).items():
        config.frequency_tables[lang] = resolve(p)

    if "priority" in body:
        config.priority = tuple(body["priority"])
        if sorted(config.priority) != sorted(SentimentClass):
            raise ValidationError(
                f"priority must be a permutation of the three classes: "
                f"{[c.value for c in config.priority]}")
    if not 0.0 < config.alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {config.alpha}")
    if config.top_k < 1:
        raise ValidationError(f"top_k must be >= 1, got {config.top_k}")
    if "output_dir" in body:
        if not body["output_dir"]:  # base / "" is the config's own directory
            raise ValidationError("output_dir must not be empty")
        if "\0" in body["output_dir"]:  # no file name holds one
            raise ValidationError("output_dir must not contain a NUL character")
        config.output_dir = base / body["output_dir"]
    # the flags' values are checked here, the config file's with the rest of its body
    config.synth_options = {**body.get("synth", {}), **check(
        "synth", {k: v for k, v in given.items() if k in _SYNTH_TYPES}, _SYNTH_TYPES)}
    return config


class ValidationReport(Record):
    """Validation messages plus every input that loaded, so a run reads each input once."""

    def __init__(self, errors: list[str] | None = None, warnings: list[str] | None = None,
                 lexicons: dict[str, SentimentLexicon] | None = None,
                 concept_map: ConceptMap | None = None,
                 tables: dict[str, FrequencyTable] | None = None,
                 strata: list[CorpusStratum] | None = None):
        self.errors = [] if errors is None else errors
        self.warnings = [] if warnings is None else warnings
        self.lexicons = {} if lexicons is None else lexicons
        self.concept_map = concept_map
        self.tables = {} if tables is None else tables
        self.strata = [] if strata is None else strata


def _load_lexicons(config: RunConfig, report: ValidationReport) -> dict[str, SentimentLexicon]:
    lexicons: dict[str, SentimentLexicon] = {}
    for lang in sorted(config.lexicons):
        try:
            raws = load_lexicon_sources(config.lexicons[lang], lang)
        except SemdriftError as exc:
            report.errors.append(f"lexicon {lang}: {exc}")
            continue
        lexicon = merge_disjoint(raws, config.priority, language_code=lang)
        for lemma, classes in sorted(find_conflicts(raws).items()):
            names = ", ".join(c.value for c in sorted(classes, key=list(SentimentClass).index))
            report.warnings.append(
                f"lexicon {lang}: cross-listed lemma {lemma!r} ({names}) "
                f"resolved to {lexicon.class_of(lemma).value}")
        for cls in SentimentClass:
            if not lexicon.lists[cls]:
                report.errors.append(f"lexicon {lang}: empty {cls.value} list after merge")
        lexicons[lang] = lexicon
    return lexicons


def _load_concept_map(config: RunConfig, lexicons: dict[str, SentimentLexicon],
                      report: ValidationReport) -> ConceptMap | None:
    if config.concept_map is None:
        return None
    if not config.source_language or not config.target_language:
        report.errors.append("concept_map requires source_language and target_language")
        return None
    src = lexicons.get(config.source_language)
    tgt = lexicons.get(config.target_language)
    if src is None or tgt is None:
        report.errors.append("concept_map requires lexicons for both configured languages")
        return None
    try:
        return load_concept_map(config.concept_map, src, tgt)
    except SemdriftError as exc:
        report.errors.append(f"concept map: {exc}")
        return None


def _load_frequency_tables(config: RunConfig,
                           report: ValidationReport) -> dict[str, FrequencyTable]:
    tables: dict[str, FrequencyTable] = {}
    for lang in sorted(config.frequency_tables):
        try:
            tables[lang] = FrequencyTable.load(config.frequency_tables[lang], lang)
        except SemdriftError as exc:
            report.errors.append(f"frequency table {lang}: {exc}")
    for lang in sorted(config.lexicons):
        if lang not in config.frequency_tables:
            report.warnings.append(f"no frequency table for {lang}; deviations skipped")
    return tables


def run_validation(config: RunConfig, *, need_manifest: bool = True,
                   read: list | None = None) -> ValidationReport:
    """Load and check every input named by the config.

    The report keeps what loaded (lexicons, concept map, frequency tables and,
    with `need_manifest`, the corpus) for `analyze` to reuse. A `group_by`
    factor that no document carries as a group key is an error, since every
    ANOVA over it would be skipped. `read`, when given, gets the path of each
    lemma dictionary and text that the corpus reads.
    """
    report = ValidationReport()
    report.lexicons = _load_lexicons(config, report)
    report.concept_map = _load_concept_map(config, report.lexicons, report)
    report.tables = _load_frequency_tables(config, report)
    if need_manifest:
        if config.manifest is None:
            report.errors.append("config does not name a manifest")
        else:
            try:
                report.strata = ingest.load_corpus(config.manifest, read)
                if not report.strata:
                    report.errors.append("manifest lists no documents")
            except SemdriftError as exc:
                report.errors.append(f"manifest: {exc}")
        carried = {key for stratum in report.strata for key in stratum.group_keys}
        for factor in config.group_by:
            if report.strata and factor != "translation_kind" and factor not in carried:
                report.errors.append(f"group_by factor {factor!r}: no document has this group key")
    return report


def cmd_validate(config: RunConfig) -> int:
    report = run_validation(config)
    for message in report.errors:
        print(f"error: {message}")
    for message in report.warnings:
        print(f"warning: {message}")
    print(f"{len(report.errors)} errors, {len(report.warnings)} warnings")
    return EXIT_CONFIG if report.errors else EXIT_OK


def analyze(config: RunConfig, inputs: ValidationReport) -> dict[str, partial]:
    """Run the full pipeline and return the report bundle as filename -> a function that
    writes the file's text into an open text file.

    `inputs` is the `run_validation(config)` report, whose loaded inputs are
    analyzed. Every table is computed here and nothing is written: `cmd_analyze`
    renders each file straight into its open file only after the whole bundle is
    computed, so failures leave no partial output behind, and no file's text is
    ever held whole in memory. A CSV-only table holds no rows: each is made, from
    the results computed here, as its file is written (see `report`), so each
    writer may be called again.
    """
    from . import report
    if inputs.errors:
        raise ValidationError("; ".join(inputs.errors))
    checksum, files = report.checksum_inputs(config)
    summary: dict = {
        "inputs": {"sha256": checksum, "files": files},
        "mode": {
            "deviation_mode": config.deviation_mode.value,
            "priority": [c.value for c in config.priority],
            "alpha": config.alpha,
            "top_k": config.top_k,
            "group_by": config.group_by,
        },
        "skipped": [],
    }
    by_kind = group_strata(inputs.strata, ("language", "translation_kind"))
    tables = [*report.stratum_tables(config, inputs, summary),
              *report.anova_tables(config, inputs, by_kind, summary)]
    if inputs.concept_map is not None:
        # semantic field and vectors over (language, translation kind) merges
        merged = [CorpusStratum(language, TranslationKind(kind), {},
                                [d for m in members for d in m.documents])
                  for (language, kind), members in by_kind.items()]
        tables += report.concept_tables(config, inputs.concept_map, merged, summary)

    priority = ">".join(cls.value for cls in config.priority)
    mode = (f"deviation={config.deviation_mode.value} priority={priority} "
            f"alpha={config.alpha:g} top_k={config.top_k}")
    bundle = {f"{table.name}.csv": partial(table.write_csv, mode_line=mode, checksum=checksum)
              for table in tables}
    bundle["summary.json"] = partial(report.write_summary, summary=summary)
    return bundle


def _fail(code: int, *messages) -> int:
    for message in messages:
        print(f"error: {message}", file=sys.stderr)
    return code


def _write_failed(exc: OSError, config: RunConfig) -> int:
    return _fail(EXIT_CONFIG, f"output_dir: cannot write {exc.filename or config.output_dir}: "
                              f"{exc.strerror or exc}")


def _check_inputs_survive(config: RunConfig, names, read, *,
                          need_manifest: bool = True) -> None:
    """Raise ValidationError if writing any of `names` into the output directory would
    replace a file the command reads: each input the config names (the manifest only with
    `need_manifest`) and each path in `read` (the config file itself, and the corpus's
    texts and lemma dictionaries). Paths are compared with symbolic links resolved
    (`os.path.realpath`, which unlike `Path.resolve` never raises on a link loop)."""
    inputs = {os.path.realpath(path): str(path) for path in read}
    inputs.update((os.path.realpath(path), raw) for raw, path in config.inputs.items()
                  if need_manifest or path != config.manifest)
    for name in names:
        target = os.path.realpath(config.output_dir / name)
        if target in inputs:
            raise ValidationError(f"output_dir: writing {target} would overwrite the input "
                                  f"{inputs[target]!r}")


def cmd_analyze(config: RunConfig, config_path: Path) -> int:
    """Analyze, then write the bundle one file at a time, each rendered as it is written
    (text mode, UTF-8, the platform's newline, as `Path.write_text` writes); a failed
    write removes every file of the bundle written so far."""
    # compile the analysis modules and the chunk counter before any input is read: the
    # compiler's transient memory is then freed before the run reaches its peak
    from . import chunks, report  # noqa: F401
    read = [config_path]
    inputs = run_validation(config, read=read)
    if inputs.errors:
        return _fail(EXIT_CONFIG, *inputs.errors)
    try:
        bundle = analyze(config, inputs)
    except SemdriftError as exc:
        return _fail(EXIT_ANALYSIS, exc)
    try:
        _check_inputs_survive(config, bundle, read)
        config.output_dir.mkdir(parents=True, exist_ok=True)
        with ingest.remove_on_failure([]) as written:  # no half-written bundle
            for name in sorted(bundle):
                written.append(config.output_dir / name)
                with written[-1].open("w", encoding="utf-8") as out:
                    bundle[name](out)
    except ValidationError as exc:
        return _fail(EXIT_CONFIG, exc)
    except OSError as exc:
        return _write_failed(exc, config)
    print(f"wrote {len(bundle)} files to {config.output_dir}")
    return EXIT_OK


_CHANNEL_KEYS = {"seed": "seed", "factor": "narrow_widen_factor", "norm_pull": "norm_pull",
                 "length_inflation": "length_inflation"}


def cmd_synth(config: RunConfig, config_path: Path) -> int:
    """Write a synthetic corpus and its channel output; a failure leaves none of its files."""
    from . import synth
    options = config.synth_options
    words = options.get("words", 10_000)
    filler_size = options.get("filler_size", synth.DEFAULT_FILLER_SIZE)
    emitted = words * options.get("length_inflation", synth.DEFAULT_LENGTH_INFLATION)
    # every size that synth allocates, checked before any input is read
    for name, size in (("synth.words", words), ("synth.filler_size", filler_size),
                       ("synth.words x synth.length_inflation", emitted)):
        if size > synth.MAX_SYNTH_WORDS:
            return _fail(EXIT_CONFIG,
                         f"{name} must be at most {synth.MAX_SYNTH_WORDS}, got {size}")
    report = run_validation(config, need_manifest=False)
    cmap, ref = report.concept_map, report.tables.get(config.target_language)
    if cmap is None:
        report.errors.append("synth requires a concept_map")
    if ref is None:
        report.errors.append(f"synth requires a frequency table for the target language "
                             f"({config.target_language!r})")
    if report.errors:
        return _fail(EXIT_CONFIG, *report.errors)
    density = options.get("concept_density", synth.DEFAULT_CONCEPT_DENSITY)
    budget = options.get("concept_budget", {cid: 1.0 for cid in cmap.concepts})
    given = {name: options[key] for key, name in _CHANNEL_KEYS.items() if key in options}
    channel = (synth.ChannelParams.human if options.get("kind") is ChannelKind.HUMAN
               else synth.ChannelParams.machine)
    try:
        params = channel(**given)
        source = synth.generate_source(cmap, words, budget, params.seed,
                                       concept_density=density, filler_size=filler_size)
        translated = synth.apply_channel(source, cmap, params, ref)
        params_blob = {"kind": params.kind, "narrow_widen_factor": params.narrow_widen_factor,
                       "norm_pull": params.norm_pull,
                       "length_inflation": params.length_inflation, "seed": params.seed,
                       "words": words, "concept_density": density, "filler_size": filler_size}
        texts = [ingest._document_filename(doc.id)
                 for doc in source.documents + translated.documents]
        _check_inputs_survive(config, ["channel_params.json", "manifest.json", *texts],
                              [config_path], need_manifest=False)
        config.output_dir.mkdir(parents=True, exist_ok=True)
        # save_corpus removes its own files if it fails; this removes the parameters
        with ingest.remove_on_failure([config.output_dir / "channel_params.json"]) as written:
            written[0].write_text(json.dumps(params_blob, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
            manifest_path = ingest.save_corpus([source, translated], config.output_dir)
    except ValidationError as exc:
        return _fail(EXIT_CONFIG, exc)
    except OSError as exc:
        return _write_failed(exc, config)
    print(f"wrote corpus manifest {manifest_path}")
    return EXIT_OK


def _build_parser() -> "argparse.ArgumentParser":
    import argparse  # with `gettext` and `locale`, which a caller of the library never needs
    parser = argparse.ArgumentParser(
        prog="semdrift",
        description="Sentiment and semantic-field shift analytics for translated corpora")
    sub = parser.add_subparsers(dest="command", required=True)

    # every other flag's dest is the config key it overrides
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON run configuration")
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--output-dir", help="override the configured output directory; "
                                             "relative to the working directory")

    sub.add_parser("validate", parents=[common],
                   help="check lexicons, concept map, tables, and manifest")

    p_analyze = sub.add_parser("analyze", parents=[common, writes],
                               help="run the full analysis and write the report bundle")
    p_analyze.add_argument("--deviation-mode", choices=[m.value for m in DeviationMode])
    p_analyze.add_argument("--alpha", type=float)
    p_analyze.add_argument("--top-k", type=int)

    p_synth = sub.add_parser("synth", parents=[common, writes],
                             help="generate a synthetic source corpus and channel output")
    p_synth.add_argument("--kind", choices=[k.value for k in ChannelKind])
    p_synth.add_argument("--words", type=int)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--factor", type=float,
                         help="expected attested-variant ratio, output over source")
    p_synth.add_argument("--pull", dest="norm_pull", type=float,
                         help="per-token probability of resampling from the reference")
    p_synth.add_argument("--inflation", dest="length_inflation", type=float,
                         help="output/input word-count ratio")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "output_dir", None):
        # the flag is relative to the working directory, the config key to the config file
        args.output_dir = str(Path(args.output_dir).absolute())
    try:
        config = load_config(args.config, vars(args))
    except SemdriftError as exc:
        return _fail(EXIT_CONFIG, exc)
    if args.command == "validate":
        return cmd_validate(config)
    if args.command == "analyze":
        return cmd_analyze(config, Path(args.config))
    return cmd_synth(config, Path(args.config))


def run() -> None:
    """Run `main()` as a whole process, with no cyclic garbage collection, and exit.

    A command is one short process. The few KB of cyclic garbage it makes (the argument
    parser, the JSON encoder's closures) are the same for any input and go back to the OS
    at exit, so collecting them, during the run or over the survivors at shutdown, is
    wasted. Freezing moves every object out of the collector's reach, so the collection
    that shutdown makes even with the collector off has almost nothing to scan. Unlike
    `os._exit`, shutdown still runs the atexit handlers, flushes stdio and keeps the exit
    code.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
