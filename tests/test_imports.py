"""Cold start: each command loads only the semdrift modules it runs, and never numpy.

numpy costs about 150 ms and 15 MiB at start-up. No command imports it: `validate` and
`analyze` run without it whether their Tukey tests compare two groups or more, and
`synth` draws from Python's own `random.Random` at any size. Every command loads `cli`,
`errors`, `inputs` and `lexicon`, which hold no corpus or analysis code; on top of these
`validate` loads `ingest` and `chunks`, which read and count the corpus's texts, `synth`
loads `ingest` and `synth`, and `analyze` loads `ingest`, `chunks`, `freq`, `report`,
`semfield`, `stats` and `vectors` but not `synth`. The benchmark's set-up job,
`perfbench/run.py`'s `SETUP_CODE`, reads no corpus and loads only the common modules, and
every module of the package is loaded by at least one command. Each command loads its
modules before it reads any input, its config file included. No command loads
`dataclasses`, `inspect`, `hashlib` or `_hashlib` (OpenSSL): every SHA-256 comes from the
interpreter's built-in module, which only `analyze` and a `synth` whose document ids are
not plain names load. Neither `validate` nor the set-up job loads `csv`, which only
`analyze` uses.
Over a bare interpreter, no command adds the codecs of a byte order mark or of ASCII (every
file is decoded as UTF-8), `__future__` or `typing`, and neither a command, `--help` nor the
set-up job adds `argparse`, `gettext` or `locale`: the command line is parsed from a table
of flags. Without the site hook (`python -S`), no command loads `shutil`, nor with it
`zlib`, `bz2` or `lzma`. Each command runs in a fresh interpreter, which reports its exit
code and the modules it loaded; the package's exports load on first access.
"""

import importlib
import json
import shutil
import subprocess
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

import semdrift
import semdrift.ingest

from helpers import DATA, PACKAGE, child_env, digest, perfbench_constant, read_summary

PROBE = ("import json, sys\n"
         "from semdrift.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n")
# the semdrift modules every command loads, and those `synth` and `analyze` add to them
COMMON = {f"semdrift{m}" for m in ("", ".cli", ".errors", ".inputs", ".lexicon")}
VALIDATE = COMMON | {"semdrift.ingest", "semdrift.chunks"}
SYNTH = COMMON | {"semdrift.ingest", "semdrift.synth"}
ANALYZE = VALIDATE | {"semdrift.freq", "semdrift.report", "semdrift.semfield",
                      "semdrift.stats", "semdrift.vectors"}
# stdlib modules no command loads (the record classes are plain classes, and SHA-256 comes
# from the built-in module), and the one only `analyze` loads, for its CSV tables
NEVER_LOADED = {"dataclasses", "inspect", "hashlib", "_hashlib"}
WRITE_ONLY = {"csv"}
# stdlib modules no command adds to what a bare interpreter loads, which a site hook may
# make any of: `read_text` strips a byte order mark itself and the kernel reads its ASCII
# tables as UTF-8, so neither codec module loads, and no module imports `__future__` or
# `typing`
TRIMMED = {"encodings.utf_8_sig", "encodings.ascii", "__future__", "typing"}
# stdlib modules that `argparse` would load, and that the table of flags needs none of;
# `shutil` loads `zlib`, `bz2` and `lzma` with it, which a site hook may load anyway
PARSER = {"argparse", "gettext", "locale"}
ARCHIVERS = {"shutil", "zlib", "bz2", "lzma"}
# the built-in SHA-256 module, loaded to hash the inputs' checksums and the file names of
# non-plain document ids; from Python 3.12 it is `_sha2`, which `random` loads in every
# command for its own seeding, so only before 3.12 does it show whether a command hashed
BUILTIN_SHA256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
HASH_ONLY = {BUILTIN_SHA256} if sys.version_info < (3, 12) else set()
# sha256 over the name and bytes of each file `synth` writes for tests/data/config.json
# with its default settings; the seed's `random.Random(seed).random()` stream defines them
SYNTH_DIGEST = "e41009883e164e4ce3057bd05e087ace69ad2bf0eab5e109cb84b028557375ad"


def run_fresh(code: str, *args: str, flags: tuple[str, ...] = ()) -> str:
    """The last line that `code` prints in a fresh interpreter started with `flags`, which
    imports the package this suite imports."""
    proc = subprocess.run([sys.executable, *flags, "-c", code, *args], env=child_env(),
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


@cache
def bare_modules() -> frozenset[str]:
    """The modules an interpreter has loaded before it runs any code, in this environment."""
    return frozenset(run_fresh("import sys\nprint(*sys.modules)").split())


def added(modules: set[str]) -> set[str]:
    return modules - bare_modules()


def run_command(*args: str, config: Path = DATA / "config.json",
                flags: tuple[str, ...] = ()) -> tuple[int, set[str]]:
    """The command's exit code and the modules loaded when it returned."""
    result = json.loads(run_fresh(PROBE, *args, "--config", str(config), flags=flags))
    return result["code"], set(result["modules"])


def three_summit_config(tmp_path: Path) -> Path:
    """A copy of tests/data with a third summit, "G7", holding a copy of each G8 document."""
    data = shutil.copytree(DATA, tmp_path / "data")
    manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    manifest["documents"] += [
        {**doc, "id": f"{doc['id']}-g7", "group_keys": {**doc["group_keys"], "summit": "G7"}}
        for doc in manifest["documents"] if doc["group_keys"]["summit"] == "G8"]
    (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return data / "config.json"


def pairs_per_test(output_dir: Path) -> Counter:
    summary = read_summary(output_dir)
    return Counter((r["language"], r["factor"], r["slice"], r["class"], r["metric"])
                   for r in summary["tukey"])


def semdrift_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "semdrift" or m.startswith("semdrift.")}


def test_validate_never_imports_numpy():
    code, modules = run_command("validate")
    assert code == 0
    assert "numpy" not in modules
    assert semdrift_modules(modules) == VALIDATE
    assert not modules & (NEVER_LOADED | WRITE_ONLY | HASH_ONLY)
    assert not added(modules) & (TRIMMED | PARSER)


def test_benchmark_setup_job_loads_only_the_common_modules():
    # the set-up job's own code, run as the benchmark runs it, with the module list
    # printed at exit
    setup = perfbench_constant("run", "SETUP_CODE")
    code = ("import atexit, json, sys\n"
            "atexit.register(lambda: print(json.dumps(sorted(sys.modules))))\n" + setup)
    modules = set(json.loads(run_fresh(code, str(DATA / "config.json"))))
    assert "numpy" not in modules
    assert semdrift_modules(modules) == COMMON
    assert not modules & (NEVER_LOADED | WRITE_ONLY | HASH_ONLY)
    assert not added(modules) & (TRIMMED | PARSER)


def test_two_group_analyze_never_imports_numpy(tmp_path):
    code, modules = run_command("analyze", "--output-dir", str(tmp_path))
    assert code == 0
    assert "numpy" not in modules
    assert semdrift_modules(modules) == ANALYZE
    assert not modules & NEVER_LOADED
    assert not added(modules) & (TRIMMED | PARSER)
    assert BUILTIN_SHA256 in modules
    tests = pairs_per_test(tmp_path)
    assert tests and set(tests.values()) == {1}  # one pair per test: every k is 2


def test_many_group_analyze_never_imports_numpy(tmp_path):
    out = tmp_path / "out"
    config = three_summit_config(tmp_path)
    code, modules = run_command("analyze", "--output-dir", str(out), config=config)
    assert code == 0
    assert "numpy" not in modules
    assert semdrift_modules(modules) == ANALYZE
    assert not modules & NEVER_LOADED
    assert not added(modules) & (TRIMMED | PARSER)  # its k = 3 tests read both tables
    assert BUILTIN_SHA256 in modules
    tests = pairs_per_test(out)
    # every summit test compares three groups (three pairs, k = 3)
    assert {n for (_, factor, *_), n in tests.items() if factor == "summit"} == {3}


def test_analyze_loads_its_modules_before_it_reads_the_corpus(tmp_path):
    # compiled from source after the corpus is in memory, their compile's transient memory
    # would land on the run's peak
    code = ("import json, sys\n"
            "from semdrift import ingest\n"
            "from semdrift.cli import main\n"
            "loaded, load_corpus = [], ingest.load_corpus\n"
            "def probe(*args):\n"
            "    loaded.extend(sys.modules)\n"
            "    return load_corpus(*args)\n"
            "ingest.load_corpus = probe\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps({'code': code, 'modules': loaded}))\n")
    result = json.loads(run_fresh(code, "analyze", "--config", str(DATA / "config.json"),
                                  "--output-dir", str(tmp_path)))
    assert result["code"] == 0
    assert semdrift_modules(set(result["modules"])) == ANALYZE


def test_synth_loads_its_modules_before_it_reads_a_resource(tmp_path):
    # the first TSV that synth reads is a lexicon; `lexicon` binds the probe when `cli`
    # imports it, after the probe is installed
    code = ("import json, sys\n"
            "from semdrift import inputs\n"
            "loaded, read_tsv = [], inputs.read_tsv\n"
            "def probe(*args):\n"
            "    if not loaded:\n"
            "        loaded.extend(sys.modules)\n"
            "    return read_tsv(*args)\n"
            "inputs.read_tsv = probe\n"
            "from semdrift.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps({'code': code, 'modules': loaded}))\n")
    result = json.loads(run_fresh(code, "synth", "--config", str(DATA / "config.json"),
                                  "--output-dir", str(tmp_path)))
    assert result["code"] == 0
    assert semdrift_modules(set(result["modules"])) == SYNTH


@pytest.mark.parametrize("command, expected", [("validate", VALIDATE), ("synth", SYNTH),
                                               ("analyze", ANALYZE)])
def test_each_command_loads_its_modules_before_it_opens_its_config(tmp_path, command,
                                                                   expected):
    # compiled after the config is read, their compile's transient memory would add to the
    # command's peak; the audit hook sees the first open of the config's path
    code = ("import json, os, sys\n"
            "config = sys.argv[sys.argv.index('--config') + 1]\n"
            "loaded = []\n"
            "def probe(event, args):\n"
            "    if event == 'open' and not loaded and isinstance(args[0], (str, os.PathLike))"
            " and os.fspath(args[0]) == config:\n"
            "        loaded.extend(sys.modules)\n"
            "sys.addaudithook(probe)\n"
            "from semdrift.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps({'code': code, 'modules': loaded}))\n")
    args = ["--output-dir", str(tmp_path)] if command != "validate" else []
    result = json.loads(run_fresh(code, command, "--config", str(DATA / "config.json"),
                                  *args))
    assert result["code"] == 0
    assert semdrift_modules(set(result["modules"])) == expected


@pytest.mark.parametrize("args", [("validate",), ("synth", "--words", "1000"), ("analyze",),
                                  ("analyze", "--help"), ("--help",)])
def test_no_command_and_no_help_loads_the_argument_parser_modules(tmp_path, args):
    # argparse brought gettext and locale, and shutil with zlib, bz2 and lzma; without the
    # site hook, as a CI runner starts, none of them is loaded at start
    bare = set(run_fresh("import sys\nprint(*sys.modules)", flags=("-S",)).split())
    assert not bare & (PARSER | ARCHIVERS)
    out = ["--output-dir", str(tmp_path)] if args[0] in ("synth", "analyze") else []
    code, modules = run_command(*args, *out, flags=("-S",))
    assert code == 0
    assert not modules & (PARSER | ARCHIVERS)


def test_analyze_run_as_a_module_loads_cli_only_as_main(tmp_path):
    # the benchmark runs `python -m semdrift.cli`, which executes cli as __main__; a module
    # that imported `semdrift.cli` by name would compile and run all of it a second time
    code = ("import atexit, json, runpy, sys\n"
            "atexit.register(lambda: print(json.dumps(sorted(sys.modules))))\n"
            "runpy.run_module('semdrift.cli', run_name='__main__')\n")
    modules = set(json.loads(run_fresh(code, "analyze", "--config", str(DATA / "config.json"),
                                       "--output-dir", str(tmp_path))))
    assert semdrift_modules(modules) == ANALYZE - {"semdrift.cli"}


def test_default_synth_loads_no_numpy_and_writes_the_same_bytes(tmp_path):
    code, modules = run_command("synth", "--output-dir", str(tmp_path))
    assert code == 0
    assert "numpy" not in modules
    assert semdrift_modules(modules) == SYNTH
    assert not modules & (NEVER_LOADED | HASH_ONLY)
    assert not added(modules) & (TRIMMED | PARSER)
    assert digest(tmp_path) == SYNTH_DIGEST


def test_large_synth_loads_no_numpy(tmp_path):
    # six times the default 10,000 words: every size draws from the same generator
    code, modules = run_command("synth", "--words", "60000", "--output-dir", str(tmp_path))
    assert code == 0
    assert "numpy" not in modules
    assert semdrift_modules(modules) == SYNTH
    assert not modules & (NEVER_LOADED | HASH_ONLY)


def test_synth_of_a_non_plain_document_id_hashes_with_the_builtin_module(tmp_path):
    # a non-plain id names its file by a hash (`ingest._document_filename`); synth's own ids
    # are plain, so the probe renames the source document
    code = ("import json, sys\n"
            "from semdrift import synth\n"
            "from semdrift.cli import main\n"
            "from semdrift.ingest import Document\n"
            "generate = synth.generate_source\n"
            "def renamed(*args, **kwargs):\n"
            "    corpus = generate(*args, **kwargs)\n"
            "    doc = corpus.documents[0]\n"
            "    corpus.documents[0] = Document('source/seed 7', doc.counts, doc.lemmas)\n"
            "    return corpus\n"
            "synth.generate_source = renamed\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n")
    result = json.loads(run_fresh(code, "synth", "--config", str(DATA / "config.json"),
                                  "--output-dir", str(tmp_path)))
    modules = set(result["modules"])
    assert result["code"] == 0
    assert semdrift_modules(modules) == SYNTH
    assert not modules & NEVER_LOADED
    assert BUILTIN_SHA256 in modules
    paths = {d["path"] for d in json.loads(
        (tmp_path / "manifest.json").read_text(encoding="utf-8"))["documents"]}
    hashed = semdrift.ingest._document_filename("source/seed 7")
    assert hashed.startswith("source_seed_7~") and hashed in paths


def test_analyze_without_the_builtin_hash_reproduces_the_golden_bundle(tmp_path):
    # a CPython build without the built-in modules hashes with hashlib, to the same digests
    code = ("import json, sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from semdrift.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n")
    result = json.loads(run_fresh(code, "analyze", "--config", str(DATA / "config.json"),
                                  "--output-dir", str(tmp_path)))
    assert result["code"] == 0
    assert "hashlib" in result["modules"]
    assert digest(tmp_path) == digest(DATA / "expected_bundle")


def test_every_module_is_loaded_by_some_command():
    # the tests above pin each command's set, so a module in none of them no command loads
    files = {"semdrift" if p.stem == "__init__" else f"semdrift.{p.stem}"
             for p in PACKAGE.glob("*.py")}
    assert files == COMMON | SYNTH | ANALYZE


def test_a_child_imports_the_package_the_suite_imports():
    # so the child-process tests judge the same copy of semdrift as the in-process ones
    child = run_fresh("import semdrift\nprint(semdrift.__file__)")
    assert Path(child).resolve() == (PACKAGE / "__init__.py").resolve()


def test_importing_the_package_loads_no_module():
    loaded = run_fresh("import sys, semdrift\n"
                       "print(sorted(m for m in sys.modules if m.startswith('semdrift')))")
    assert loaded == "['semdrift']"


def test_every_export_resolves_to_its_home_module():
    for name in semdrift.__all__:
        home = importlib.import_module(f"semdrift.{semdrift._HOME[name]}")
        value = getattr(semdrift, name)
        assert value is getattr(home, name)
        if hasattr(value, "__module__"):  # classes and functions name where they are defined
            assert value.__module__ == home.__name__, name


def test_dir_lists_every_export():
    assert set(semdrift.__all__) <= set(dir(semdrift))


@pytest.mark.parametrize("name", ["no_such_name", "pca2d", "_HOMES"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(semdrift, name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from semdrift import *", namespace)
    assert set(semdrift.__all__) <= set(namespace)
