"""Run every workload once untraced and traced on two seeds; write perfbench/baseline.json.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1 2 --seconds 45

The first seed gives the end-to-end and per-layer numbers recorded as the
baseline; the second is a held-out seed on which each workload must keep the
layer it was designed to load (bulk-ingest: ingest; many-groups: stats;
wide-map: lexicon, freq, semfield, vectors and cli self time together above
ingest). Every metric line the benchmark prints is echoed, so this is also the
one command that shows every metric of every workload.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

NON_INGEST = ("lexicon", "freq", "semfield", "vectors", "cli")


def design_holds(workload: str, layer_self: dict[str, float]) -> bool:
    dominant = max(layer_self, key=layer_self.get)
    if workload == "bulk-ingest":
        return dominant == "ingest"
    if workload == "many-groups":
        return dominant == "stats"
    return sum(layer_self[k] for k in NON_INGEST) > layer_self["ingest"]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {workload} seed={seed} trace={trace}  {line}")
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} seed={seed} trace={trace}: exit code {proc.returncode}")
    path = Path(".perfbench_results") / f"{workload}-seed{seed}-trace{trace}.json"
    return {"result": json.loads(lines[-1]), "record": json.loads(path.read_text())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    parser.add_argument("--seconds", type=float, default=45.0)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    seed, held_out = args.seeds
    baseline = {"seed": seed, "held_out_seed": held_out, "seconds": args.seconds,
                "metrics": {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]},
                "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        plain = run_once(workload, seed, args.seconds, 0)
        traced = {s: run_once(workload, s, args.seconds, 1) for s in (seed, held_out)}
        shares = {s: t["record"]["layer_self_s"] for s, t in traced.items()}
        holds = {s: design_holds(workload, v) for s, v in shares.items()}
        ok &= all(holds.values())
        print(f"{workload}: designed layer share holds on seeds {holds}")
        record = plain["record"]
        baseline["environment"] = record["environment"]
        baseline["workloads"][workload] = {
            "why": why.get(workload),            # None: not a BENCHMARK.json workload
            "end_to_end": {k: {"value": m["value"], "unit": m["unit"]}
                           for k, m in plain["result"]["metrics"].items()},
            "timings": {k: {"median": t["median"], "n": t["n"], "tail": t["tail"]}
                        for k, t in record["timings"].items()},
            "error_rate": record["error_rate"],
            "attempted": record["attempted"],
            "bundle_sha256": record["bundle_sha256"],
            "per_layer": traced[seed]["result"]["metrics"],
            "layer_self_s": {str(s): v for s, v in shares.items()},
            "design_holds": {str(s): v for s, v in holds.items()},
        }
    out = Path(__file__).with_name("baseline.json")
    out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
