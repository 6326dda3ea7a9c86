"""semdrift benchmark: generate a workload from a seed, run the real CLI on it, check and time it.

Run from the repository root:

    python3 perfbench/run.py --workload bulk-ingest --seed 1 --seconds 45 --trace 0

Workloads (see workloads.py): bulk-ingest, many-groups, wide-map; BENCHMARK.json
lists the first two.

With --trace 0 the benchmark runs a closed loop with one client, each child
process run to exit before the next starts. An iteration is the reference
job, a fresh interpreter doing the set-up, a `semdrift synth` and a
`semdrift analyze`. One untimed warm-up iteration comes first; timed
iterations then repeat until --seconds have passed and at least two have run.
Each end-to-end metric is the mean of its samples over the whole run (set-up
time: the median), and times are scaled by the host speed that the reference
job measured over the same run (see host_scale). With --trace 1 it runs the
loop without the reference and set-up runs (at least one timed iteration),
then one synth and one analyze under perfbench/tracer.py, and reports
per-module metrics instead.

Every operation's output is checked against what the generator knows; the
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. The full record (environment, seed, bundle sha256, every sample
and span) goes to .perfbench_results/. Exit code 0 when every check passed,
1 when one failed, 2 when the program is missing or the arguments are wrong.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_ITERATIONS = 2
DEADLINE_S = 170.0
SETUP_CODE = ("import sys\n"
              "from semdrift.cli import load_config, run_validation\n"
              "report = run_validation(load_config(sys.argv[1]), need_manifest=False)\n"
              "sys.exit(1 if report.errors else 0)\n")

WORKLOADS = ("bulk-ingest", "many-groups", "wide-map")
END_TO_END_UNITS = {"setup_s": "s", "analyze_s": "s", "words_per_s": "words/s",
                    "peak_rss_mib": "MiB", "synth_s": "s", "synth_peak_rss_mib": "MiB"}
SAMPLED = ("reference_s", "setup_s", "analyze_s", "peak_rss_mib", "synth_s",
           "synth_peak_rss_mib")

# A fixed job that uses nothing from semdrift but does the same kinds of work:
# interpreter start, module imports, fresh memory, regex tokenizing, dict
# counting, numpy. Its time tracks the speed the shared host gives us.
REFERENCE_CODE = ("import csv, json, re, statistics\n"
                  "import numpy\n"
                  "words = [f'w{i % 7919}x{i % 13}' for i in range(100_000)]\n"
                  "counts = {}\n"
                  "for token in re.findall(r'\\w+', ' '.join(words).lower()):\n"
                  "    counts[token] = counts.get(token, 0) + 1\n"
                  "assert float(numpy.fromiter(counts.values(), float).sum()) == 100_000\n")
# The reference job's mean time on the host the baseline was taken on (2-core
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6). Reported times are in seconds of
# a host that runs the reference job in this time.
REFERENCE_NOMINAL_S = 0.35


def tail_percentile(values: list[float]):
    """The highest of a few percentiles with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            best = {"p": p, "value": ordered[rank - 1]}
    return best


def summarize(values: list[float]) -> dict:
    return {"mean": statistics.fmean(values), "median": statistics.median(values),
            "n": len(values), "tail": tail_percentile(values), "samples": values}


def host_scale(reference_s: list[float]) -> float:
    """Factor that turns times measured in this run into times on the nominal host.

    On a shared host the speed a process gets drifts by tens of percent over
    minutes; every job of a run slows or speeds together, so dividing by the
    reference job's mean over the same run removes most of the drift. Program
    changes cannot move the reference job, so they show in full.
    """
    return REFERENCE_NOMINAL_S / statistics.fmean(reference_s)


def environment(root: Path) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "source_sha256": source.hexdigest(), "loadavg_before": os.getloadavg()}


class Runner:
    """Runs children one at a time through perfbench/launcher.py; keeps the operation tally."""

    def __init__(self, root: Path, deadline: float):
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         text=True)
        self.workload = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def fail(self, message: str) -> None:
        self.failed = min(self.failed + 1, self.attempted)
        self.errors.append(message)

    def spawn(self, argv: list[str]) -> tuple[int, float, float]:
        """Run a child to exit: (exit code, wall seconds, peak RSS in MiB)."""
        request = {"argv": argv, "cwd": str(self.workload.directory), "env": self.env,
                   "log": str(self.workload.directory / "children.log"),
                   "timeout": max(1.0, self.deadline - time.monotonic())}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return reply["code"], reply["wall_s"], reply["rss_mib"]

    def operation(self, label: str, argv: list[str], check=None):
        """One attempted operation: a child plus the check of its output."""
        self.attempted += 1
        code, wall, rss = self.spawn(argv)
        errors = [f"exit code {code}"] if code != 0 else (check() if check else [])
        if errors:
            self.fail(f"{label}: {'; '.join(errors)}")
        return not errors, wall, rss


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "semdrift.cli", *args]


def closed_loop(runner: Runner, seconds: float, checks, min_iterations: int,
                end_to_end: bool) -> dict:
    """Run iterations until `seconds` have passed and `min_iterations` have run.

    An iteration is (if `end_to_end`) one reference job and one set-up
    interpreter, then one synth and one analyze. A first, untimed iteration
    warms the caches; its outputs are checked like the others. Short runs in
    every iteration sample the host's slow and fast phases alike.
    """
    wl = runner.workload
    digests = set()

    def iteration(samples: dict) -> None:
        if end_to_end:
            code, wall, _ = runner.spawn([sys.executable, "-c", REFERENCE_CODE])
            if code == 0:
                samples["reference_s"].append(wall)
            else:
                runner.errors.append(f"reference job: exit code {code}")
            ok, wall, _ = runner.operation(
                "setup", [sys.executable, "-c", SETUP_CODE, wl.config])
            if ok:
                samples["setup_s"].append(wall)
        ok, wall, rss = runner.operation(
            "synth", cli("synth", "--config", wl.config, *wl.synth_args),
            lambda: checks.check_synth(wl))
        if ok:
            samples["synth_s"].append(wall)
            samples["synth_peak_rss_mib"].append(rss)
        out = wl.directory / "out"
        shutil.rmtree(out, ignore_errors=True)
        ok, wall, rss = runner.operation(
            "analyze", cli("analyze", "--config", wl.config),
            lambda: checks.check_bundle(wl, out))
        if ok:
            samples["analyze_s"].append(wall)
            samples["peak_rss_mib"].append(rss)
            digests.add(checks.bundle_digest(out)[0])

    iteration({name: [] for name in SAMPLED})      # warm-up
    samples = {name: [] for name in SAMPLED}
    start = time.monotonic()
    iterations = 0
    while iterations < min_iterations or time.monotonic() - start < seconds:
        if time.monotonic() > runner.deadline - 1.0:
            runner.fail("deadline reached before the loop finished")
            break
        iteration(samples)
        iterations += 1
    if len(digests) > 1:
        runner.fail(f"bundles differ between runs: {sorted(digests)}")
    return {"iterations": iterations, "samples": samples,
            "bundle_sha256": digests.pop() if len(digests) == 1 else None}


def traced_run(runner: Runner, loop: dict, checks, tracer) -> tuple[dict, dict]:
    """One synth and one analyze under the tracer; per-layer metrics and span records."""
    wl = runner.workload
    script = str(HERE / "tracer.py")
    spans = {}
    for step, args, check in (
            ("synth", ["synth", "--config", wl.config, *wl.synth_args],
             lambda: checks.check_synth(wl)),
            ("analyze", ["analyze", "--config", wl.config, "--output-dir", "out_traced"],
             lambda: checks.check_bundle(wl, wl.directory / "out_traced"))):
        out = wl.directory / f"spans_{step}.json"
        ok, wall, _ = runner.operation(f"traced {step}",
                                       [sys.executable, script, str(out), "--", *args], check)
        spans[step] = json.loads(out.read_text()) if ok else None
        if ok:
            spans[step]["child_wall_s"] = wall
    if not all(spans.values()) or not loop["samples"]["analyze_s"]:
        return {}, spans
    digest, size, files = checks.bundle_digest(wl.directory / "out_traced")
    if loop["bundle_sha256"] and digest != loop["bundle_sha256"]:
        runner.fail("traced bundle differs from the untraced bundle")

    from semdrift.ingest import load_corpus
    manifest = json.loads((wl.directory / wl.config).read_text())["manifest"]
    tracemalloc.start()
    strata = load_corpus(wl.directory / manifest)
    retained = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    del strata

    summary = json.loads((wl.directory / "out_traced" / "summary.json").read_text())
    skipped = sum(1 for s in summary.get("skipped", []) if s.startswith("anova "))
    untraced = statistics.fmean(loop["samples"]["analyze_s"])
    extra = {"retained_bytes": retained, "anova_skipped": skipped, "bundle_bytes": size,
             "bundle_files": files,
             "overhead_pct": 100.0 * (spans["analyze"]["child_wall_s"] - untraced) / untraced}
    missing = [name for name in tracer.REQUIRED + wl.required_spans
               if spans["synth"]["spans"].get(name, {}).get("calls", 0)
               + spans["analyze"]["spans"].get(name, {}).get("calls", 0) == 0]
    for name in missing:
        runner.fail(f"wiring: the traced run recorded no call to {name}")
    metrics = tracer.layer_metrics(spans["synth"]["spans"], spans["analyze"]["spans"], extra)
    return {k: (value, unit) for k, (value, unit, deps) in metrics.items()
            if not set(deps) & set(missing)}, spans


def benchmark(args, root: Path, runner: Runner) -> int:
    """Generate the workload, measure it, print the metrics and the result line."""
    import checks
    import tracer
    from workloads import GENERATORS

    env = environment(root)
    directory = root / ".perfbench_work" / args.workload
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    gen_start = time.perf_counter()
    wl = runner.workload = GENERATORS[args.workload](root, directory, args.seed,
                                                     tiny=args.tiny)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "words": wl.words,
              "generate_s": time.perf_counter() - gen_start, "environment": env}
    if args.trace:
        loop = closed_loop(runner, args.seconds, checks, min_iterations=1, end_to_end=False)
        metrics, spans = traced_run(runner, loop, checks, tracer)
        record["spans"] = spans
        if spans.get("analyze"):
            record["layer_self_s"] = tracer.layer_self(spans["analyze"]["spans"])
    else:
        loop = closed_loop(runner, args.seconds, checks, MIN_ITERATIONS, end_to_end=True)
        timings = {k: summarize(v) for k, v in loop["samples"].items() if v}
        record["timings"] = timings
        scale = host_scale(loop["samples"]["reference_s"]) if timings.get("reference_s") else 1.0
        record["host_scale"] = scale
        # means weigh the host's slow and fast phases by time; set-up time is the
        # median of the run's set-ups
        metrics = {k: (t["median" if k == "setup_s" else "mean"]
                       * (scale if END_TO_END_UNITS[k] == "s" else 1.0), END_TO_END_UNITS[k])
                   for k, t in timings.items() if k in END_TO_END_UNITS}
        if "analyze_s" in metrics:
            # corpus words over the mean analyze time: the run's throughput
            metrics["words_per_s"] = (wl.words / metrics["analyze_s"][0], "words/s")
    record.update(iterations=loop["iterations"], bundle_sha256=loop["bundle_sha256"],
                  attempted=runner.attempted, failed=runner.failed,
                  error_rate=runner.failed / runner.attempted, errors=runner.errors)
    env["loadavg_after"] = os.getloadavg()

    timings = record.get("timings", {})
    if "reference_s" in timings:
        print(f"host_scale: {record['host_scale']:.6g}  (reference job: mean "
              f"{timings['reference_s']['mean']:.6g} s of n={timings['reference_s']['n']}, "
              f"nominal {REFERENCE_NOMINAL_S} s)")
    for name, (value, unit) in sorted(metrics.items()):
        timing = timings.get(name)
        note = ""
        if timing:
            tail = timing["tail"]
            note = f"  (measured: mean {timing['mean']:.6g} of n={timing['n']}, median " + (
                f"{timing['median']:.6g}, p{tail['p']:g}={tail['value']:.6g})" if tail
                else f"{timing['median']:.6g}; no percentile has 10 samples beyond it)")
        print(f"{name}: {value:.6g} {unit}{note}")
    print(f"error_rate: {record['error_rate']:.6g} ratio ({runner.failed} of "
          f"{runner.attempted} operations failed)")
    print(f"bundle_sha256: {record['bundle_sha256']}  seed: {args.seed}")
    for message in runner.errors:
        print(f"failed: {message}", file=sys.stderr)
    results = root / ".perfbench_results"
    results.mkdir(exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    correct = not runner.errors
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in sorted(metrics.items())}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-test only")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "semdrift" / "cli.py").is_file():
        print(f"error: no semdrift source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    # started before the heavy imports, so its own peak RSS stays small
    runner = Runner(root, time.monotonic() + DEADLINE_S)
    sys.path.insert(0, str(root / "src"))
    try:
        return benchmark(args, root, runner)
    finally:
        runner.close()


if __name__ == "__main__":
    sys.exit(main())
