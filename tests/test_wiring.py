"""The benchmark's wiring contract, checked without running the benchmark.

`perfbench/run.py --trace 1` fails a run when a traced `synth` plus `analyze`
records no call to one of the spans it requires. This runs the same tracer on
the fixture config, so a change that bypasses a required function fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import DATA, PERFBENCH, perfbench_constant

ROOT = Path(__file__).parent.parent


def test_traced_synth_and_analyze_call_every_required_span(tmp_path):
    required = (perfbench_constant("tracer", "REQUIRED")
                + perfbench_constant("workloads", "STATS_FUNCTIONS"))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")]))}
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
    assert [name for name in required if not calls.get(name)] == []
