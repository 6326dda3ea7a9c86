"""The process entry: `cli.run()` runs `main()` with the cyclic garbage collector off and
frozen.

`python -m semdrift.cli` and the `semdrift` console script both start a command through
`cli.run()`, the one place that turns the collector off: importing the package changes
nothing process-wide. `run()` disables the collector, runs `main()`, then freezes every
surviving object so that the collection at shutdown has almost nothing to scan. That is
safe because what a command leaves to the collector is a fixed set of cycles (the JSON
encoder's closures), whatever the size of its input. Collections can still run while
`cli` and its top-level imports compile, before `run()` starts, but none once the
command's own modules load. `main(argv)` itself leaves the collector alone, for the
callers that run it in process.
"""

import gc
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from semdrift.cli import _COMMAND_MODULES, main

from helpers import DATA, ENTRIES, digest

ROOT = Path(__file__).parent.parent
# run as `sitecustomize`, which the interpreter imports before it runs the entry: it
# collects, so that what start-up allocated does not decide when the next collection
# falls; records, at the start of each collection from then on, the semdrift modules
# loaded, and at each gc.disable() call the file and function of its caller; and prints
# at exit, after the command returns and before the interpreter shuts down, the
# collector's state and those records
GC_PROBE = ("import atexit, gc, json, os, sys\n"
            "gc.collect()\n"
            "collections, disablers = [], []\n"
            "gc.callbacks.append(lambda phase, info: phase == 'start' and collections.append(\n"
            "    sorted(name for name in sys.modules if name.startswith('semdrift.'))))\n"
            "disable = gc.disable\n"
            "def probe():\n"
            "    caller = sys._getframe(1).f_code\n"
            "    disablers.append([os.path.basename(caller.co_filename), caller.co_name])\n"
            "    disable()\n"
            "gc.disable = probe\n"
            "atexit.register(lambda: print(json.dumps(\n"
            "    {'enabled': gc.isenabled(), 'frozen': gc.get_freeze_count(),\n"
            "     'collections': collections, 'disablers': disablers})))\n")


def run_entry(tmp_path: Path, entry: str, *args: str) -> tuple[int, dict]:
    """A command run through one entry in a fresh interpreter, on a copy of the package
    that holds no bytecode, so that every semdrift module compiles from source, as in a
    fresh checkout, while the standard library loads its own bytecode: its exit code, and
    the probe's record at exit."""
    probe, src = tmp_path / "probe", tmp_path / "src"
    probe.mkdir()
    (probe / "sitecustomize.py").write_text(GC_PROBE, encoding="utf-8")
    shutil.copytree(ROOT / "src" / "semdrift", src / "semdrift",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(probe), str(src),
                                                        os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *ENTRIES[entry], *args], env=env,
                          capture_output=True, text=True, check=False)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def empty_translation_config(tmp_path: Path) -> Path:
    """A config whose only translation stratum has no words: analyze exits 1 on it."""
    data = shutil.copytree(DATA, tmp_path / "data")
    manifest = {"documents": [
        {"path": "texts/ru_g8_t1.txt", "id": "r", "language": "ru",
         "translation_kind": "source"},
        {"path": "empty.txt", "id": "e", "language": "en", "translation_kind": "human"},
    ]}
    (data / "empty.txt").write_text("...", encoding="utf-8")
    (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    config = json.loads((data / "config.json").read_text(encoding="utf-8"))
    (data / "config.json").write_text(json.dumps({**config, "group_by": []}),
                                      encoding="utf-8")
    return data / "config.json"


def repeated_config(tmp_path: Path, times: int) -> Path:
    """A copy of tests/data whose every text is its original text `times` over."""
    data = shutil.copytree(DATA, tmp_path / "data")
    for path in (data / "texts").iterdir():
        path.write_text("\n".join([path.read_text(encoding="utf-8")] * times),
                        encoding="utf-8")
    return data / "config.json"


def words(config: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").split())
               for p in (config.parent / "texts").iterdir())


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_in_process_leaves_the_collector_as_it_was(tmp_path, capsys, enabled):
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["analyze", "--config", str(DATA / "config.json"),
                     "--output-dir", str(tmp_path)]) == 0
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("entry", ENTRIES)
class TestProcessEntry:
    def test_reproduces_the_golden_bundle_with_the_collector_off_and_frozen(self, tmp_path,
                                                                            entry):
        out = tmp_path / "out"
        code, state = run_entry(tmp_path, entry, "analyze", "--config",
                                str(DATA / "config.json"), "--output-dir", str(out))
        assert code == 0
        assert digest(out) == digest(DATA / "expected_bundle")
        assert not state["enabled"] and state["frozen"] > 0

    def test_config_error_exits_2(self, tmp_path, entry):
        code, state = run_entry(tmp_path, entry, "analyze", "--config",
                                str(tmp_path / "missing.json"))
        assert code == 2
        assert not state["enabled"] and state["frozen"] > 0

    def test_analysis_error_exits_1(self, tmp_path, entry):
        out = tmp_path / "out"
        code, state = run_entry(tmp_path, entry, "analyze", "--config",
                                str(empty_translation_config(tmp_path)),
                                "--output-dir", str(out))
        assert code == 1
        assert not out.exists() or not any(out.iterdir())
        assert not state["enabled"] and state["frozen"] > 0

    @pytest.mark.parametrize("command", ["validate", "synth", "analyze"])
    def test_every_collection_comes_before_the_command_modules_load(self, tmp_path, entry,
                                                                    command):
        # `run()` turns the collector off before `main` imports them
        args = ["--output-dir", str(tmp_path / "out")] if command != "validate" else []
        code, state = run_entry(tmp_path, entry, command, "--config",
                                str(DATA / "config.json"), *args)
        assert code == 0
        modules = {f"semdrift.{name}" for name in _COMMAND_MODULES[command]}
        assert all(modules.isdisjoint(loaded) for loaded in state["collections"])

    def test_cli_run_is_the_only_caller_of_gc_disable(self, tmp_path, entry):
        code, state = run_entry(tmp_path, entry, "validate", "--config",
                                str(DATA / "config.json"))
        assert code == 0
        assert state["disablers"] == [["cli.py", "run"]]


def cyclic_garbage(argv: list[str]) -> Counter:
    """The types of the objects in the reference cycles that `main(argv)` leaves
    unreachable, counted with the collector off and the gc state restored afterwards."""
    enabled, flags, kept = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage[kept:])
    finally:
        del gc.garbage[kept:]
        gc.set_debug(flags)
        if enabled:
            gc.enable()


def test_cyclic_garbage_does_not_grow_with_the_corpus(tmp_path, capsys):
    # what a command leaves to the collector is what `run()` keeps until exit; the same
    # cycles for tests/data and for twelve times its words show that this cannot grow with
    # the input
    large = repeated_config(tmp_path / "large", 12)
    assert words(large) >= 10 * words(DATA / "config.json")
    state = gc.isenabled(), gc.get_debug(), len(gc.garbage)

    def analyze(config: Path, out: str) -> Counter:
        return cyclic_garbage(["analyze", "--config", str(config),
                               "--output-dir", str(tmp_path / out)])

    analyze(DATA / "config.json", "warm")  # the first run's imports and caches
    small = analyze(DATA / "config.json", "small")
    assert small  # the JSON encoder's closures alone leave cycles
    assert analyze(large, "large") == small
    assert (gc.isenabled(), gc.get_debug(), len(gc.garbage)) == state


def test_synth_cyclic_garbage_does_not_grow_with_its_words(tmp_path, capsys):
    def synth(count: int, out: str) -> Counter:
        return cyclic_garbage(["synth", "--config", str(DATA / "config.json"),
                               "--words", str(count), "--output-dir", str(tmp_path / out)])

    synth(1000, "warm")
    small = synth(1000, "small")
    assert small
    assert synth(10_000, "large") == small
