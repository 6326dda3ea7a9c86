"""Command-line front end: validate inputs, run the analysis bundle, or synthesize corpora.

Each flag overrides a config key (`_FLAGS`). Exit codes: 0 success or `--help`, 1
analysis error, 2 usage or configuration/validation error. `run()`, the one process entry
(of `python -m semdrift.cli` and of the `semdrift` script), runs `main()` with the cyclic
garbage collector off; nothing else in the package turns it off. `main(argv)` returns the
exit code and leaves the collector alone, for callers in process.
"""

import gc
import importlib
import os
import sys
from pathlib import Path

from .errors import NUMBER, PATH, Record, SemdriftError, ValidationError, check
from .inputs import ChannelKind, DeviationMode, FrequencyTable, read_json
from .lexicon import (DEFAULT_PRIORITY, ConceptMap, SentimentClass, SentimentLexicon,
                      find_conflicts, load_concept_map, load_lexicon_sources, merge_disjoint)

TYPE_CHECKING = False  # type checkers read it as True, and `typing` stays unloaded
if TYPE_CHECKING:  # only the commands that read or write a corpus load `ingest`
    from .ingest import CorpusStratum

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
    """Read a JSON config file and apply `overrides`, config keys to values (None sets
    nothing; a `_SYNTH_TYPES` key goes into the `synth` block). Every value is checked
    against its spec in `_CONFIG_TYPES`, so a malformed one is a ValidationError: names
    are read in NFC, paths as written, numbers as floats."""
    path = Path(path)
    given = {k: v for k, v in (overrides or {}).items() if v is not None}
    body = check("", {**read_json(path),
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
                 strata: "list[CorpusStratum] | None" = None):
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
    """Load and check every input named by the config; the report keeps what loaded (with
    `need_manifest`, the corpus too) for `analyze`. A `group_by` factor that no document
    carries is an error, since every ANOVA over it would be skipped. `read`, when given,
    gets the path of each lemma dictionary and text that the corpus reads."""
    report = ValidationReport()
    report.lexicons = _load_lexicons(config, report)
    report.concept_map = _load_concept_map(config, report.lexicons, report)
    report.tables = _load_frequency_tables(config, report)
    if need_manifest:
        from . import ingest
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


def analyze(config: RunConfig, inputs: ValidationReport) -> dict:
    """The bundle of the inputs `run_validation(config)` loaded (a report with errors is a
    ValidationError), as file name -> a function that writes the file's text into an open
    text file and may be called again. Every table is computed here and nothing written,
    so `cmd_analyze` writes only once the whole bundle is computed."""
    from . import report
    if inputs.errors:
        raise ValidationError("; ".join(inputs.errors))
    return report.bundle(config, inputs)


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
    replace an input the config names (the manifest only with `need_manifest`) or a path in
    `read` (the config file, the corpus's texts and lemma dictionaries), with symbolic links
    resolved (`os.path.realpath` never raises on a loop)."""
    inputs = {os.path.realpath(path): str(path) for path in read}
    inputs.update((os.path.realpath(path), raw) for raw, path in config.inputs.items()
                  if need_manifest or path != config.manifest)
    for name in names:
        target = os.path.realpath(config.output_dir / name)
        if target in inputs:
            raise ValidationError(f"output_dir: writing {target} would overwrite the input "
                                  f"{inputs[target]!r}")


def cmd_analyze(config: RunConfig, config_path: Path) -> int:
    """Analyze, then render each bundle file into its open file (UTF-8, the platform's
    newline); a failed write removes every file of the bundle written so far."""
    from . import ingest
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


def cmd_synth(config: RunConfig, config_path: Path) -> int:
    """Write a synthetic corpus and its channel output; a failure leaves none of its files."""
    from . import synth
    try:  # every size that synth allocates, checked before any input is read
        synth.check_sizes(config.synth_options)
    except ValidationError as exc:
        return _fail(EXIT_CONFIG, exc)
    report = run_validation(config, need_manifest=False)
    cmap, ref = report.concept_map, report.tables.get(config.target_language)
    if cmap is None:
        report.errors.append("synth requires a concept_map")
    if ref is None:
        report.errors.append(f"synth requires a frequency table for the target language "
                             f"({config.target_language!r})")
    if report.errors:
        return _fail(EXIT_CONFIG, *report.errors)
    try:
        settings, strata = synth.synthesize(config.synth_options, cmap, ref)
        _check_inputs_survive(config, synth.file_names(strata), [config_path],
                              need_manifest=False)
        manifest_path = synth.write_corpus(settings, strata, config.output_dir)
    except ValidationError as exc:
        return _fail(EXIT_CONFIG, exc)
    except OSError as exc:
        return _write_failed(exc, config)
    print(f"wrote corpus manifest {manifest_path}")
    return EXIT_OK


# Each command's flags, `--config` aside, and the config key each overrides; `load_config`
# checks their values.
_FLAGS = {"validate": {},
          "analyze": {"--output-dir": "output_dir", "--deviation-mode": "deviation_mode",
                      "--alpha": "alpha", "--top-k": "top_k"},
          "synth": {"--output-dir": "output_dir", "--kind": "kind", "--words": "words",
                    "--seed": "seed", "--factor": "factor", "--pull": "norm_pull",
                    "--inflation": "length_inflation"}}
_HELP = {"validate": "check lexicons, concept map, tables, and manifest",
         "analyze": "run the full analysis and write the report bundle",
         "synth": "generate a synthetic source corpus and channel output",
         "--output-dir": "override the configured output directory; relative to the "
                         "working directory",
         "--factor": "expected attested-variant ratio, output over source",
         "--pull": "per-token probability of resampling from the reference",
         "--inflation": "output/input word-count ratio"}


def _usage() -> str:
    lines = ["usage: semdrift COMMAND --config CONFIG [--flag VALUE | --flag=VALUE ...]\n",
             "Sentiment and semantic-field shift analytics for translated corpora\n",
             "  --config CONFIG  JSON run configuration", "  -h, --help  show this help"]
    for command, flags in _FLAGS.items():
        lines.append(f"\n{command}: {_HELP[command]}")
        for flag, key in flags.items():
            spec = _SYNTH_TYPES.get(key) or _CONFIG_TYPES[key]  # an enum lists its values
            value = f"{{{','.join(spec)}}}" if hasattr(spec, "__members__") else key.upper()
            lines.append(f"  {flag} {value}  {_HELP.get(flag, '')}".rstrip())
    return "\n".join(lines)


def parse_args(argv) -> tuple[str, str, dict]:
    """The command, its config file and the config keys its flags override, each value by
    its key's spec (`int()`, `float()` for a `NUMBER`); a usage error is a ValidationError."""
    command, *rest = argv or [None]
    if command not in _FLAGS:
        raise ValidationError(f"command must be one of 'validate', 'analyze', 'synth', "
                              f"got {command!r}")
    flags, given, args = {"--config": "config", **_FLAGS[command]}, {}, iter(rest)
    for arg in args:
        flag, eq, value = arg.partition("=")
        key = flags.get(flag)
        if key is None or key in given:
            raise ValidationError(f"{flag} given twice" if key else f"unknown argument {arg!r}")
        if not eq:  # the next argument, a negative number too
            value = next(args, "--")
            if value.startswith("--"):
                raise ValidationError(f"{flag} needs a value")
        convert = {int: int, NUMBER: float}.get(_SYNTH_TYPES.get(key, _CONFIG_TYPES.get(key)), str)
        try:
            given[key] = convert(value)
        except ValueError:
            raise ValidationError(f"{flag} needs {convert.__name__}, got {value!r}") from None
    if "config" not in given:
        raise ValidationError(f"{command} needs --config")
    return command, given.pop("config"), given


# The modules each command runs beyond those every command loads. `main` imports them
# before it reads any input, its config included: compiled from source, a module's
# compiler memory is then freed before the inputs are live, off the command's peak. In 30
# alternating pairs of a seed-1 many-groups `analyze` compiled from source (2-core VM,
# Python 3.11.7), peak RSS was 16.82 MiB with this import and 16.96 MiB without it, lower
# with it in 29 pairs; on bulk-ingest the two were within noise (16.27 and 16.26 MiB).
_COMMAND_MODULES = {"validate": ("chunks",), "synth": ("synth",), "analyze": ("chunks", "report")}


def main(argv=None) -> int:
    """Run a command line and return its exit code: 2 for a usage error, 0 for --help."""
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_usage())
        return EXIT_OK
    try:
        command, config_path, overrides = parse_args(argv)
    except ValidationError as exc:
        return _fail(EXIT_CONFIG, exc)
    for name in _COMMAND_MODULES[command]:
        importlib.import_module(f"{__package__}.{name}")
    if overrides.get("output_dir"):
        # the flag is relative to the working directory, the config key to the config file
        overrides["output_dir"] = str(Path(overrides["output_dir"]).absolute())
    try:
        config = load_config(config_path, overrides)
    except SemdriftError as exc:
        return _fail(EXIT_CONFIG, exc)
    if command == "validate":
        return cmd_validate(config)
    return (cmd_analyze if command == "analyze" else cmd_synth)(config, Path(config_path))


def run() -> None:
    """Run `main()` as a whole process, with no cyclic garbage collection, and exit.

    The cyclic garbage a command makes (the JSON encoder's closures) is the same for any
    input and goes back to the OS at exit. Freezing what survives leaves the collection at
    shutdown almost nothing to scan; unlike `os._exit`, shutdown still flushes stdio. In 30
    alternating pairs of a seed-1 many-groups `synth` compiled from source (2-core VM,
    Python 3.11.7), the median was 69.3 ms with the freeze and 79.2 ms without it, faster
    with it in 27 pairs.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
