"""Self-test of the benchmark harness at tiny sizes; takes well under a minute.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload and both trace settings it checks that the workload
generates, that every operation passes its output checks, and that the result
line carries exactly the metrics BENCHMARK.json names, with their units. Then
it corrupts each bundle the program writes and checks that the failures show
in `failed` and in the error rate, and it requires a span that no function
records and checks that the traced run fails instead of reporting a zero.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import checks
import run
import tracer

SEED = 3


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def in_process(trace: str) -> dict:
    """One tiny many-groups run inside this process, so patches here take effect."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        run.main(["--workload", "many-groups", "--seed", str(SEED), "--seconds", "1",
                  "--trace", trace, "--tiny"])
    return result_line(stdout.getvalue())


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                    "--trace", str(trace), "--tiny"]
            proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *argv],
                                  capture_output=True, text=True, check=False)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = result_line(proc.stdout)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units.items()) ^ set(expected[trace].items()))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: reported a failure: {result}")
            print(f"ok  {label}: {len(units)} metrics, {result['attempted']} operations")

    # a program that writes a wrong word count must raise the error rate
    original = checks.check_bundle

    def corrupted(workload, out_dir):
        path = out_dir / "summary.json"
        summary = json.loads(path.read_text(encoding="utf-8"))
        summary["strata"][0]["total_word_count"] += 1
        path.write_text(json.dumps(summary), encoding="utf-8")
        return original(workload, out_dir)

    checks.check_bundle = corrupted
    try:
        result = in_process("0")
    finally:
        checks.check_bundle = original
    if result["correct"] or result["failed"] == 0:
        problems.append(f"corrupted bundle was not detected: {result}")
    else:
        print(f"ok  corrupted bundle: {result['failed']} of {result['attempted']} "
              f"operations failed")

    # a public function renamed away must fail the traced run, not read zero
    required = tracer.REQUIRED
    tracer.REQUIRED = required + ("stats.renamed_away",)
    try:
        result = in_process("1")
    finally:
        tracer.REQUIRED = required
    if result["correct"] or not result["failed"]:
        problems.append(f"a missing span was not reported: {result}")
    else:
        print("ok  wiring guard: a span with no calls fails the traced run")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
