#!/usr/bin/env python3
"""Validates schema-v4 simulator artifacts.

CI smoke for the observability + robustness layers. Three modes:

  tools/check_report.py report.json [--require-timeseries] [--trace t.json]
      single run-result report (moca_cli run --json)
  tools/check_report.py sweep.json --sweep [--expect-cells N]
      [--expect-kind kind=N]...
      sweep report (moca_cli compare/sweep --json): schema envelope,
      typed failure kinds, attempts fields, crash fingerprints, the
      interrupted-envelope rule
  tools/check_report.py sweep.jsonl --journal [--expect-cells N]
      supervised-sweep resume journal: one framed entry per line, a
      consistent fingerprint, outcome payloads shaped like sweep outcomes

Schema v4 adds the process-isolation vocabulary: failure kinds "crashed",
"oom_killed" and "interrupted", an optional per-outcome
"crash": {"signal": N, "phase": "..."} fingerprint, and an optional
top-level "interrupted": true envelope flag on partial sweep reports.

Exits non-zero with a message on the first violation.
"""
import argparse
import json
import sys

SCHEMA_VERSION = 4
JOURNAL_VERSION = 1
KINDS = {"counter", "gauge", "rate", "ratio"}
FAILURE_KINDS = {"none", "failed", "timed_out", "quarantined",
                 "crashed", "oom_killed", "interrupted"}
# Heartbeat phases an isolated child can die in (src/sim/isolation.h).
CRASH_PHASES = {"spawned", "running", "reporting", "done"}
ADAPTIVE_KEYS = {
    "epochs", "reclassifications", "object_promotions", "object_demotions",
    "moved_pages", "copied_lines", "denied_no_space",
    "hysteresis_residency", "hysteresis_margin", "ping_pong_moves",
}


def fail(msg):
    print(f"check_report: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_timeseries(ts):
    cols = ts.get("columns")
    rows = ts.get("rows")
    if not cols:
        fail("timeseries.columns is empty")
    if not rows:
        fail("timeseries.rows is empty")
    if ts.get("epoch_instructions", 0) <= 0:
        fail("timeseries.epoch_instructions must be positive")

    paths = []
    for col in cols:
        if "path" not in col or col.get("kind") not in KINDS:
            fail(f"malformed column record: {col}")
        paths.append(col["path"])
    if paths != sorted(paths):
        fail("columns are not sorted by path")
    if len(set(paths)) != len(paths):
        fail("duplicate column paths")
    if "core0/ipc" not in paths:
        fail("per-core IPC column (core0/ipc) missing")
    if not any(p.startswith("mem/") and p.endswith("/bandwidth_bytes_per_s")
               for p in paths):
        fail("per-module bandwidth column missing")

    # Counter columns carry per-epoch deltas of monotonic counters; a
    # negative delta means the underlying counter went backwards. Fault
    # counters (faults/*) are the canary: a decrease there means the
    # injector lost state mid-run.
    counter_cols = [i for i, col in enumerate(cols)
                    if col.get("kind") == "counter"]

    prev_instr = -1
    prev_time = -1
    for i, row in enumerate(rows):
        if row.get("epoch") != i:
            fail(f"row {i} has epoch {row.get('epoch')}")
        if len(row.get("values", [])) != len(cols):
            fail(f"row {i} has {len(row.get('values', []))} values, "
                 f"expected {len(cols)}")
        if row["instructions"] <= prev_instr:
            fail(f"row {i} instructions not strictly increasing")
        prev_instr = row["instructions"]
        if row.get("time_ps", 0) < prev_time:
            fail(f"row {i} time_ps {row.get('time_ps')} moves backwards "
                 f"from {prev_time}")
        prev_time = row.get("time_ps", 0)
        for c in counter_cols:
            if row["values"][c] < 0:
                fail(f"row {i}: counter {paths[c]} has negative delta "
                     f"{row['values'][c]} (cumulative counter decreased)")


def check_adaptive(block):
    """The adaptive block is schema-additive: absent when the engine is
    off, and when present it carries exactly the counters report.cc
    writes, all non-negative integers with at least one elapsed epoch."""
    if set(block) != ADAPTIVE_KEYS:
        missing = sorted(ADAPTIVE_KEYS - set(block))
        extra = sorted(set(block) - ADAPTIVE_KEYS)
        fail(f"adaptive block keys wrong (missing {missing}, extra {extra})")
    for key in sorted(ADAPTIVE_KEYS):
        value = block[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            fail(f"adaptive.{key} is {value!r}, "
                 "expected a non-negative integer")
    if block["epochs"] == 0:
        fail("adaptive block present but epochs is 0 "
             "(engine-off reports must omit the block)")
    promos = block["object_promotions"] + block["object_demotions"]
    if promos != block["reclassifications"]:
        fail(f"adaptive reclassifications {block['reclassifications']} != "
             f"promotions + demotions ({promos})")


def check_trace(path):
    with open(path) as f:
        trace = json.load(f)
    events = trace.get("traceEvents")
    if not events:
        fail(f"{path}: traceEvents missing or empty")
    for ev in events:
        if ev.get("ph") not in ("i", "X") or "ts" not in ev:
            fail(f"{path}: malformed trace event: {ev}")
    names = {ev["name"] for ev in events}
    if "measured" not in names:
        fail(f"{path}: 'measured' phase event missing")


def check_crash_block(crash, kind, where):
    """The crash fingerprint: positive signal number plus the heartbeat
    phase the child last reported. Mandatory for "crashed", optional for
    "oom_killed" (present only when the kill arrived as a signal), illegal
    everywhere else."""
    if crash is None:
        if kind == "crashed":
            fail(f"{where}: kind=crashed but crash block missing")
        return
    if kind not in ("crashed", "oom_killed"):
        fail(f"{where}: crash block present but kind is {kind!r}")
    if not isinstance(crash, dict):
        fail(f"{where}: crash block is not an object: {crash!r}")
    signal = crash.get("signal")
    if isinstance(signal, bool) or not isinstance(signal, int) or signal <= 0:
        fail(f"{where}: crash.signal is {signal!r}, "
             "expected a positive integer")
    phase = crash.get("phase")
    if phase not in CRASH_PHASES:
        fail(f"{where}: crash.phase is {phase!r}, expected one of "
             f"{sorted(CRASH_PHASES)}")
    if set(crash) != {"signal", "phase"}:
        fail(f"{where}: crash block has unexpected keys {sorted(crash)}")


def check_outcome(outcome, where, allow_interrupted=False):
    """Typed failure fields every schema-v4 sweep outcome must carry."""
    if "job_id" not in outcome:
        fail(f"{where}: job_id missing")
    if not isinstance(outcome.get("ok"), bool):
        fail(f"{where}: ok missing or not a bool")
    kind = outcome.get("kind")
    if kind not in FAILURE_KINDS:
        fail(f"{where}: kind is {kind!r}, expected one of "
             f"{sorted(FAILURE_KINDS)}")
    if kind == "interrupted" and not allow_interrupted:
        fail(f"{where}: kind=interrupted outside an interrupted report "
             "(interrupted cells are never journaled and require the "
             "envelope flag)")
    if outcome["ok"] != (kind == "none"):
        fail(f"{where}: ok={outcome['ok']} inconsistent with kind={kind!r}")
    attempts = outcome.get("attempts")
    if not isinstance(attempts, int) or attempts < 1:
        fail(f"{where}: attempts is {attempts!r}, expected integer >= 1")
    check_crash_block(outcome.get("crash"), kind, where)
    if outcome["ok"]:
        result = outcome.get("result")
        if not isinstance(result, dict):
            fail(f"{where}: ok outcome has no result object")
        if result.get("schema_version") != SCHEMA_VERSION:
            fail(f"{where}: result schema_version is "
                 f"{result.get('schema_version')!r}, "
                 f"expected {SCHEMA_VERSION}")
    elif not outcome.get("error"):
        fail(f"{where}: failed outcome has no error text")


def parse_expect_kinds(specs):
    """--expect-kind crashed=2 style assertions -> {kind: count}."""
    expected = {}
    for spec in specs or []:
        kind, sep, count = spec.partition("=")
        if not sep or kind not in FAILURE_KINDS or not count.isdigit():
            fail(f"bad --expect-kind {spec!r} (want one of "
                 f"{sorted(FAILURE_KINDS)}=N)")
        expected[kind] = int(count)
    return expected


def check_sweep(path, expect_cells, expect_kinds=None):
    with open(path) as f:
        report = json.load(f)
    if report.get("schema_version") != SCHEMA_VERSION:
        fail(f"sweep schema_version is {report.get('schema_version')!r}, "
             f"expected {SCHEMA_VERSION}")
    interrupted = report.get("interrupted")
    if interrupted not in (None, True):
        fail(f"envelope interrupted is {interrupted!r} "
             "(must be true or absent)")
    outcomes = report.get("outcomes")
    if not isinstance(outcomes, list) or not outcomes:
        fail("sweep outcomes missing or empty")
    if expect_cells is not None and len(outcomes) != expect_cells:
        fail(f"sweep has {len(outcomes)} outcomes, expected {expect_cells}")
    counts = {}
    for i, outcome in enumerate(outcomes):
        if outcome.get("job_id") != i:
            fail(f"outcome {i} has job_id {outcome.get('job_id')} "
                 "(submission order violated)")
        check_outcome(outcome, f"outcome {i}",
                      allow_interrupted=interrupted is True)
        counts[outcome.get("kind")] = counts.get(outcome.get("kind"), 0) + 1
    if interrupted is True and counts.get("interrupted", 0) == 0:
        fail("envelope says interrupted but no cell has kind=interrupted")
    for kind, want in (expect_kinds or {}).items():
        got = counts.get(kind, 0)
        if got != want:
            fail(f"expected {want} outcomes of kind {kind!r}, got {got} "
                 f"(counts: {counts})")
    print(f"check_report: OK ({len(outcomes)} sweep outcomes)")


def check_journal(path, expect_cells):
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln]
    if not lines:
        fail("journal is empty")
    fingerprints = set()
    cells = set()
    for i, line in enumerate(lines):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                continue  # torn final line: legal crash artifact
            fail(f"journal line {i + 1} is not valid JSON")
        if entry.get("journal_version") != JOURNAL_VERSION:
            fail(f"journal line {i + 1}: journal_version is "
                 f"{entry.get('journal_version')!r}, "
                 f"expected {JOURNAL_VERSION}")
        fp = entry.get("fingerprint")
        if not isinstance(fp, str) or len(fp) != 16:
            fail(f"journal line {i + 1}: malformed fingerprint {fp!r}")
        fingerprints.add(fp)
        cell = entry.get("cell")
        if not isinstance(cell, int) or cell < 0:
            fail(f"journal line {i + 1}: malformed cell {cell!r}")
        cells.add(cell)
        check_outcome(entry.get("outcome") or {}, f"journal line {i + 1}")
    if len(fingerprints) > 1:
        fail(f"journal mixes fingerprints: {sorted(fingerprints)}")
    if expect_cells is not None and cells != set(range(expect_cells)):
        fail(f"journal covers cells {sorted(cells)}, "
             f"expected 0..{expect_cells - 1}")
    print(f"check_report: OK ({len(cells)} journal cells)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="JSON report (or journal) to check")
    parser.add_argument("--require-timeseries", action="store_true",
                        help="fail unless a non-empty timeseries is present")
    parser.add_argument("--require-adaptive", action="store_true",
                        help="fail unless an adaptive block is present")
    parser.add_argument("--trace", help="Chrome-trace JSON file to validate")
    parser.add_argument("--sweep", action="store_true",
                        help="treat the input as a supervised sweep report")
    parser.add_argument("--journal", action="store_true",
                        help="treat the input as a resume journal (JSONL)")
    parser.add_argument("--expect-cells", type=int,
                        help="required cell count (--sweep/--journal)")
    parser.add_argument("--expect-kind", action="append", metavar="KIND=N",
                        help="required count of a failure kind, e.g. "
                             "crashed=2 (--sweep only; repeatable)")
    args = parser.parse_args()

    if args.sweep:
        check_sweep(args.report, args.expect_cells,
                    parse_expect_kinds(args.expect_kind))
        return
    if args.journal:
        check_journal(args.report, args.expect_cells)
        return

    with open(args.report) as f:
        report = json.load(f)
    version = report.get("schema_version")
    if version != SCHEMA_VERSION:
        fail(f"schema_version is {version!r}, expected {SCHEMA_VERSION}")

    ts = report.get("timeseries")
    if args.require_timeseries and ts is None:
        fail("timeseries block missing")
    if ts is not None:
        check_timeseries(ts)
    adaptive = report.get("adaptive")
    if args.require_adaptive and adaptive is None:
        fail("adaptive block missing (was the engine enabled?)")
    if adaptive is not None:
        check_adaptive(adaptive)
    if args.trace:
        check_trace(args.trace)
    print("check_report: OK")


if __name__ == "__main__":
    main()
