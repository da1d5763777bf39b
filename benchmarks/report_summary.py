"""Render a bench-gate report file as a GitHub-flavored markdown table.

CI runs every perf gate with ``--report bench-report.json`` and pipes
this script's output into ``$GITHUB_STEP_SUMMARY``, so the gate ratios
are readable from the Checks tab without opening a single log::

    python benchmarks/report_summary.py bench-report.json >> "$GITHUB_STEP_SUMMARY"

The same file is uploaded as a workflow artifact (the smoke-shape
numbers; the nightly full-shape job uploads ``BENCH_hotloops.json`` on
top). Exits 0 even when gates failed — failing the job is the gate
scripts' business; this one only reports.
"""

from __future__ import annotations

import json
import pathlib
import sys

#: Display order + labels (anything not listed renders after, as-is).
GATE_LABELS = {
    "vectorized_vs_scalar": "Vectorized >= 3x scalar epoch",
    "fused_multi_model": "Fused >= 3x sequential at K=16",
    "shared_scan_pages": "Shared-scan >= 3x page ratio",
    "async_and_cache": "Async bitwise + free cache replay",
    "parallel_dispatch": "Per-table overlap >= 1.5x global lock",
    "elevator_boarding": "Elevator >= 1.5x fewer pages than windows",
    "service_obs": "Telemetry overhead <= 5% of drain",
    "disk_backend": "SQLite shared-scan >= 3x page ratio",
    "disk_thrash": "SQLite thrash misses == pages x loops",
    "service_http": "HTTP >= 0.5x in-process, submit p99 <= 50 ms",
}


def render(report: dict) -> str:
    gates = report.get("gates", {})
    lines = [
        "### Perf gates",
        "",
        "| Gate | Measured | Floor | Result |",
        "| --- | ---: | ---: | :---: |",
    ]
    ordered = [name for name in GATE_LABELS if name in gates]
    ordered += [name for name in sorted(gates) if name not in GATE_LABELS]
    for name in ordered:
        entry = gates[name]
        label = GATE_LABELS.get(name, name)
        value, floor = entry.get("value"), entry.get("floor")
        measured = "—" if value is None else f"{value:.2f}"
        floor_text = "—" if floor is None else f"{floor:g}"
        result = "✅ pass" if entry.get("passed") else "❌ FAIL"
        shape = entry.get("shape") or {}
        if shape:
            shape_text = ", ".join(f"{k}={v}" for k, v in sorted(shape.items()))
            label = f"{label} <br><sub>{shape_text}</sub>"
        lines.append(f"| {label} | {measured} | {floor_text} | {result} |")
    if not ordered:
        lines.append("| _no gates reported_ | — | — | — |")
    lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: report_summary.py REPORT_JSON", file=sys.stderr)
        return 2
    path = pathlib.Path(argv[0])
    if not path.exists():
        # A crashed gate may never have written the report; the summary
        # should say so rather than fail the reporting step too.
        print(f"### Perf gates\n\n_no report written ({path})_\n")
        return 0
    print(render(json.loads(path.read_text())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
