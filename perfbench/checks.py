"""Output checks: compare what the program wrote with what the generator knows.

`workload` is a workloads.Workload.
"""

import csv
import hashlib
import json
from pathlib import Path


def bundle_digest(out_dir: Path) -> tuple[str, int, int]:
    """sha256 over the bundle's file names and bytes, plus its byte and file counts."""
    digest = hashlib.sha256()
    size = files = 0
    for path in sorted(p for p in out_dir.iterdir() if p.is_file()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
        size += len(data)
        files += 1
    return digest.hexdigest(), size, files


def check_synth(workload) -> list[str]:
    """The synth run must have written the generator's expected text files."""
    errors = []
    for rel, sha in sorted(workload.synth_expected.items()):
        path = workload.directory / rel
        if not path.is_file():
            errors.append(f"synth did not write {rel}")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != sha:
            errors.append(f"synth wrote different bytes for {rel}")
    return errors


def check_bundle(workload, out_dir: Path) -> list[str]:
    """Word counts per stratum and field-width direction per channel."""
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        with open(out_dir / "field_width.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    except (OSError, ValueError) as exc:
        return [f"unreadable bundle: {exc}"]
    errors = []
    words = {s.get("label"): s.get("total_word_count") for s in summary.get("strata", [])}
    if words != workload.expected_words:
        missing = sorted(set(workload.expected_words) ^ set(words))
        wrong = sorted(k for k in set(words) & set(workload.expected_words)
                       if words[k] != workload.expected_words[k])
        errors.append(f"stratum word counts differ: labels {missing[:3]}, counts {wrong[:3]}")
    ratios = {row["stratum"]: row["width_ratio_vs_baseline"] for row in rows}
    for label, direction in workload.widths.items():
        try:
            ratio = float(ratios[label])
        except (KeyError, ValueError):
            errors.append(f"field_width.csv has no ratio for {label}")
            continue
        if not (ratio < 1.0 if direction == "<1" else ratio > 1.0):
            errors.append(f"field width of {label} is {ratio}, expected {direction}")
    return errors
