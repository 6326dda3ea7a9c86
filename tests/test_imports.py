"""Cold start: each command loads only the semdrift modules it runs, and never numpy.

numpy costs about 150 ms and 15 MiB at start-up. No command imports it: `validate` and
`analyze` run without it whether their Tukey tests compare two groups or more, and
`synth` draws from Python's own `random.Random` at any size. Every command loads `cli`,
`errors`, `freq`, `ingest` and `lexicon`; on top of these `synth` loads only `synth`, and
`analyze` loads `semfield`, `stats` and `vectors` but not `synth`. The benchmark's set-up
job, `perfbench/run.py`'s `SETUP_CODE`, loads what `validate` does. No command loads
`dataclasses` or `inspect`, and neither `validate` nor the set-up job loads `hashlib` or
`csv`, which only the commands that write use. Each command runs in a fresh interpreter,
which reports its exit code and the modules it loaded; the package's exports load on
first access.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import semdrift

from helpers import DATA, digest, perfbench_constant

ROOT = Path(__file__).parent.parent
PROBE = ("import json, sys\n"
         "from semdrift.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n")
# the semdrift modules every command loads, and those `synth` and `analyze` add to them
COMMON = {f"semdrift{m}" for m in ("", ".cli", ".errors", ".freq", ".ingest", ".lexicon")}
SYNTH = COMMON | {"semdrift.synth"}
ANALYZE = COMMON | {"semdrift.semfield", "semdrift.stats", "semdrift.vectors"}
# stdlib modules no command loads (the record classes are plain classes), and those that
# only writing loads: checksums, CSV tables and the file names of non-plain document ids
NEVER_LOADED = {"dataclasses", "inspect"}
WRITE_ONLY = {"hashlib", "csv"}
# sha256 over the name and bytes of each file `synth` writes for tests/data/config.json
# with its default settings; the seed's `random.Random(seed).random()` stream defines them
SYNTH_DIGEST = "e41009883e164e4ce3057bd05e087ace69ad2bf0eab5e109cb84b028557375ad"


def run_fresh(code: str, *args: str) -> str:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.splitlines()[-1]


def run_command(*args: str, config: Path = DATA / "config.json") -> tuple[int, set[str]]:
    """The command's exit code and the modules loaded when it returned."""
    result = json.loads(run_fresh(PROBE, *args, "--config", str(config)))
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
    summary = json.loads((output_dir / "summary.json").read_text(encoding="utf-8"))
    return Counter((r["language"], r["factor"], r["slice"], r["class"], r["metric"])
                   for r in summary["tukey"])


def semdrift_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "semdrift" or m.startswith("semdrift.")}


def test_validate_never_imports_numpy():
    code, modules = run_command("validate")
    assert code == 0
    assert "numpy" not in modules
    assert semdrift_modules(modules) == COMMON
    assert not modules & (NEVER_LOADED | WRITE_ONLY)


def test_benchmark_setup_job_loads_only_the_common_modules():
    # the set-up job's own code, run as the benchmark runs it, with the module list
    # printed at exit
    setup = perfbench_constant("run", "SETUP_CODE")
    code = ("import atexit, json, sys\n"
            "atexit.register(lambda: print(json.dumps(sorted(sys.modules))))\n" + setup)
    modules = set(json.loads(run_fresh(code, str(DATA / "config.json"))))
    assert "numpy" not in modules
    assert semdrift_modules(modules) == COMMON
    assert not modules & (NEVER_LOADED | WRITE_ONLY)


def test_two_group_analyze_never_imports_numpy(tmp_path):
    code, modules = run_command("analyze", "--output-dir", str(tmp_path))
    assert code == 0
    assert "numpy" not in modules
    assert semdrift_modules(modules) == ANALYZE
    assert not modules & NEVER_LOADED
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
    tests = pairs_per_test(out)
    # every summit test compares three groups (three pairs, k = 3)
    assert {n for (_, factor, *_), n in tests.items() if factor == "summit"} == {3}


def test_default_synth_loads_no_numpy_and_writes_the_same_bytes(tmp_path):
    code, modules = run_command("synth", "--output-dir", str(tmp_path))
    assert code == 0
    assert "numpy" not in modules
    assert semdrift_modules(modules) == SYNTH
    assert not modules & NEVER_LOADED
    assert digest(tmp_path) == SYNTH_DIGEST


def test_large_synth_loads_no_numpy(tmp_path):
    # six times the default 10,000 words: every size draws from the same generator
    code, modules = run_command("synth", "--words", "60000", "--output-dir", str(tmp_path))
    assert code == 0
    assert "numpy" not in modules
    assert semdrift_modules(modules) == SYNTH
    assert not modules & NEVER_LOADED


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
