#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the MOCA simulator.

Run from the repository root:

  python3 perfbench/run.py --workload sweep-1core --seed 2 --trace 0
  python3 perfbench/run.py --workload all

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, runs the moca_perfbench binary, checks that it
reported exactly the metrics perfbench/spec.json lists for the mode, prints
them as a table and ends with one JSON line:

  {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones and
writes a Chrome trace plus a self-time table under <build>/out/<workload>/.

  python3 perfbench/run.py --write-benchmark-json

regenerates BENCHMARK.json from perfbench/spec.json.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = HERE / "spec.json"
# A whole run, build included, stays under three minutes.
RUN_LIMIT_S = 175


def fail(message, code=1):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def benchmark_json(spec):
    """BENCHMARK.json is the spec without the fields only this tool reads."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": spec["run_seconds"],
        "workloads": [{"name": w["name"], "why": w["why"]}
                      for w in spec["workloads"]],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")}
                       for m in spec["end_to_end"]],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                      for m in spec["per_layer"]],
    }


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build():
    """Configures once, then builds incrementally. Build output goes to
    stderr so the last stdout line stays the result."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}; run from a checkout "
             "of the repository", code=2)
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.is_file() and f"={HERE}\n" not in cache.read_text():
        shutil.rmtree(out)  # configured for another source tree
    if not cache.is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return out / "moca_perfbench"


def expected_metrics(spec, trace):
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, expected):
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        fail(f"result keys {sorted(result)} != {sorted(keys)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number >= 0")
    got = result["metrics"]
    if set(got) != set(expected):
        fail(f"metrics differ from spec.json: missing "
             f"{sorted(set(expected) - set(got))}, extra "
             f"{sorted(set(got) - set(expected))}")
    for name, m in got.items():
        if m.get("unit") != expected[name]["unit"]:
            fail(f"{name}: unit {m.get('unit')!r} != "
                 f"{expected[name]['unit']!r}")


def print_table(workload, args, spec, result):
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"correct {str(result['correct']).lower()}")
    rows = []
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = result["metrics"][m["name"]]
        note = (f"moves {m['moves']} on {', '.join(m['on'])}"
                if m.get("moves") else f"{m['better']} is better")
        value = got["value"]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        rows.append((m["name"], shown, got["unit"], note))
    # fail_frac is 0 on a correct run, so it is carried by attempted/failed
    # rather than as a bounded metric.
    rows.append(("fail_frac", f"{failed / attempted:.6g}", "frac",
                 f"{failed} of {attempted} cells failed"))
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        print(f"  {name:<{width}}  {value:>14} {unit:<12} {note}")


def run_workload(binary, spec, workload, args, started):
    """Runs one workload; the last line printed is its result."""
    out_dir = build_dir() / "out" / workload
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    budget = max(RUN_LIMIT_S - (time.monotonic() - started), 2 * args.seconds)
    # Own process group, so stopping it also stops the isolated cell workers
    # moca_perfbench forks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except BaseException as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            fail(f"moca_perfbench did not finish within {budget:.0f} s")
        raise
    if proc.returncode != 0:
        fail(f"moca_perfbench exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail("moca_perfbench printed no result")
    result = json.loads(lines[-1])
    validate(result, expected_metrics(spec, args.trace))
    print_table(workload, args, spec, result)
    if args.trace:
        print(f"  trace: {out_dir / 'trace.json'}  "
              f"self time: {out_dir / 'self_time.tsv'}")
    print(json.dumps(result))


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=spec["seeds"]["default"])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from spec.json")
    args = parser.parse_args()

    if args.write_benchmark_json:
        with open(ROOT / "BENCHMARK.json", "w") as f:
            json.dump(benchmark_json(spec), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    started = time.monotonic()
    binary = build()
    for workload in names if args.workload == "all" else [args.workload]:
        run_workload(binary, spec, workload, args, started)
        started = time.monotonic()
    return 0


if __name__ == "__main__":
    sys.exit(main())
