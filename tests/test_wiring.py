"""The benchmark's wiring contract, checked without running the benchmark.

`perfbench/run.py --trace 1` fails a run when a traced `synth` plus `analyze`
records no call to one of the spans it requires. The tracer wraps each function
under the module that defines it, so a required function moved to another module
gets no span, and one that the commands stop calling records no call. The first
test checks the spans the tracer installs, the second runs it on the fixture
config.
"""

import json
import subprocess
import sys

from helpers import DATA, PERFBENCH, child_env, perfbench_constant

REQUIRED = perfbench_constant("tracer", "REQUIRED") + perfbench_constant("workloads",
                                                                          "STATS_FUNCTIONS")


def test_the_tracer_installs_a_span_for_every_required_function():
    code = ("import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import tracer\n"
            "spans = tracer.Tracer()\n"
            "spans.install()\n"
            "print(json.dumps(sorted(spans.records)))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(PERFBENCH)], env=child_env(),
                          check=True, capture_output=True, text=True)
    installed = set(json.loads(proc.stdout))
    assert [name for name in REQUIRED if name not in installed] == []


def test_traced_synth_and_analyze_call_every_required_span(tmp_path):
    env = child_env()
    calls: dict[str, int] = {}
    for command in ("synth", "analyze"):
        spans = tmp_path / f"spans_{command}.json"
        subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), str(spans), "--",
                        command, "--config", str(DATA / "config.json"),
                        "--output-dir", str(tmp_path / command)],
                       env=env, check=True, capture_output=True)
        record = json.loads(spans.read_text(encoding="utf-8"))
        assert record["exit_code"] == 0
        for name, span in record["spans"].items():
            calls[name] = calls.get(name, 0) + span["calls"]
    assert [name for name in REQUIRED if not calls.get(name)] == []
