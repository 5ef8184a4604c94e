#!/usr/bin/env bash
# Hot-path performance harness: measures the event scheduler microbench
# (events/s, allocations per event), the micro_overhead full-simulation
# benches, a single-job fig08_09 slice and a 4-core 2L2B mix slice, and
# writes the results to BENCH_hotpath.json. Run it on a quiet machine
# before and after a change:
#
#   tools/bench_hotpath.sh --out /tmp/base.json        # before
#   tools/bench_hotpath.sh --baseline /tmp/base.json   # after; embeds speedup
#
#   --quick   cuts google-benchmark sampling time (CI smoke / perf guard;
#             throughput metrics stay comparable to full runs, just noisier)
#   --out F   write the report to F (default: BENCH_hotpath.json)
#
# docs/perf.md describes the metrics and how to refresh the committed file.
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_hotpath.json"
baseline=""
quick=0
while [ $# -gt 0 ]; do
  case "$1" in
    --out) out=$2; shift 2 ;;
    --baseline) baseline=$2; shift 2 ;;
    --quick) quick=1; shift ;;
    *) echo "usage: $0 [--out FILE] [--baseline FILE] [--quick]" >&2; exit 2 ;;
  esac
done

jobs=$(nproc 2>/dev/null || echo 2)
cmake --preset default > /dev/null
cmake --build --preset default -j "$jobs" \
  --target micro_eventqueue micro_overhead micro_translation \
  micro_attribution hotpath_slice > /dev/null

bench_args=(--benchmark_format=json)
slice_instr=${MOCA_SIM_INSTR:-400000}
if [ "$quick" = 1 ]; then
  bench_args+=(--benchmark_min_time=0.05)
  # The slice keeps its full instruction budget even in quick mode (~0.15 s):
  # the CI perf-guard step compares a quick run against the committed
  # full-mode file, so throughput metrics must stay mode-comparable. Only
  # the google-benchmark sampling time is cut.
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "=== micro_eventqueue ===" >&2
./build/bench/micro_eventqueue "${bench_args[@]}" > "$tmp/eventqueue.json"
echo "=== micro_overhead ===" >&2
# The paired overhead bench compares two ~20 ms simulations per side; a
# single scheduler-steal burst inside one side skews the ratio by several
# percent. In full mode, sample long enough that bursts amortize.
overhead_args=("${bench_args[@]}")
if [ "$quick" != 1 ]; then
  overhead_args+=(--benchmark_min_time=2)
fi
./build/bench/micro_overhead "${overhead_args[@]}" > "$tmp/overhead.json"
echo "=== micro_translation ===" >&2
./build/bench/micro_translation "${bench_args[@]}" > "$tmp/translation.json"
echo "=== micro_attribution ===" >&2
./build/bench/micro_attribution "${bench_args[@]}" > "$tmp/attribution.json"
echo "=== hotpath_slice (fig08_09 single job, ${slice_instr} instr, best of 3) ===" >&2
# Best-of-3: the slice is one short wall-clock sample, so a scheduler
# preemption in the middle poisons the reading; the fastest of three is the
# closest to the machine's true throughput. Simulated metrics must be
# byte-identical across the three runs (asserted below).
for run in 1 2 3; do
  MOCA_SIM_INSTR=$slice_instr ./build/tools/hotpath_slice \
    > "$tmp/slice_$run.json"
done
# The multi-core path: the 2L2B mix on 4 cores under Homogen-DDR3, where
# cores wait on memory while their neighbours work. A quarter of the
# budget per core keeps the slice's total instruction count.
mix_instr=$((slice_instr / 4))
echo "=== hotpath_slice (2L2B mix, 4 x ${mix_instr} instr, best of 3) ===" >&2
for run in 1 2 3; do
  MOCA_SIM_INSTR=$mix_instr ./build/tools/hotpath_slice \
    --apps mcf,libquantum,lbm,mser > "$tmp/mix4_$run.json"
done

python3 - "$tmp" "$out" "$baseline" "$quick" <<'PY'
import json, platform, subprocess, sys

tmp, out, baseline_path, quick = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4]

def bench(path, name):
    with open(path) as f:
        data = json.load(f)
    for b in data["benchmarks"]:
        if b["name"] == name:
            return b
    raise SystemExit(f"benchmark {name} missing from {path}")

eq_drain = bench(f"{tmp}/eventqueue.json", "BM_FanOutDrain")
eq_allocs = bench(f"{tmp}/eventqueue.json", "BM_FanOutAllocs")
eq_self = bench(f"{tmp}/eventqueue.json", "BM_SelfRescheduling")
eq_far = bench(f"{tmp}/eventqueue.json", "BM_FarFutureMix")
ov_pair = bench(f"{tmp}/overhead.json",
                "BM_SimulationOverheadPaired/manual_time")
ov_adapt = bench(f"{tmp}/overhead.json",
                 "BM_SimulationAdaptivePaired/manual_time")
ov_epoch = bench(f"{tmp}/overhead.json", "BM_SimulationWithEpochSampling")
tr_hit = bench(f"{tmp}/translation.json", "BM_TlbLookupHit")
tr_miss = bench(f"{tmp}/translation.json", "BM_TlbMissInsert")
tr_walk = bench(f"{tmp}/translation.json", "BM_PageTableLookup")
tr_path = bench(f"{tmp}/translation.json", "BM_TranslationFastPath")
at_memo = bench(f"{tmp}/attribution.json", "BM_AttributionMemoHit")
at_page = bench(f"{tmp}/attribution.json", "BM_AttributionPageCacheHit")
at_cold = bench(f"{tmp}/attribution.json", "BM_AttributionColdFind")
at_path = bench(f"{tmp}/attribution.json", "BM_AttributionFastPath")
def best_of_3(name):
    runs = []
    for run in (1, 2, 3):
        with open(f"{tmp}/{name}_{run}.json") as f:
            runs.append(json.load(f))
    for s in runs[1:]:  # simulated metrics must not depend on the host
        for key in ("instructions", "exec_time_ps", "llc_misses"):
            assert s[key] == runs[0][key], (key, s, runs[0])
    return max(runs, key=lambda s: s["instr_per_s"])

slice_ = best_of_3("slice")
mix4 = best_of_3("mix4")

# micro_overhead simulates a fixed 60K-instruction window per iteration
# (plus warmup, excluded to keep the metric stable across warmup changes).
OVERHEAD_INSTR = 60_000
def per_sec(b):  # real_time is in the benchmark's time_unit
    unit = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[b["time_unit"]]
    return OVERHEAD_INSTR / (b["real_time"] * unit)

current = {
    "eventqueue_fanout_events_per_s": eq_drain["items_per_second"],
    "eventqueue_selfresched_events_per_s": eq_self["items_per_second"],
    "eventqueue_farfuture_events_per_s": eq_far["items_per_second"],
    "eventqueue_allocs_per_event": eq_allocs["allocs_per_event"],
    "micro_overhead_profiling_instr_per_s": ov_pair["profiling_instr_per_s"],
    "micro_overhead_noprofiling_instr_per_s":
        ov_pair["noprofiling_instr_per_s"],
    "micro_overhead_epochsampling_instr_per_s": per_sec(ov_epoch),
    "micro_overhead_noadaptive_instr_per_s":
        ov_adapt["noadaptive_instr_per_s"],
    "micro_overhead_adaptive_instr_per_s": ov_adapt["adaptive_instr_per_s"],
    "micro_translation_tlb_hit_per_s": tr_hit["items_per_second"],
    "micro_translation_tlb_miss_insert_per_s": tr_miss["items_per_second"],
    "micro_translation_walk_per_s": tr_walk["items_per_second"],
    "micro_translation_fastpath_per_s": tr_path["items_per_second"],
    "micro_attribution_memo_hit_per_s": at_memo["items_per_second"],
    "micro_attribution_page_cache_per_s": at_page["items_per_second"],
    "micro_attribution_cold_find_per_s": at_cold["items_per_second"],
    "micro_attribution_fastpath_per_s": at_path["items_per_second"],
    "fig08_09_slice_instr_per_s": slice_["instr_per_s"],
    "fig08_09_slice_wall_s": slice_["wall_s"],
    "fig08_09_slice_instructions": slice_["instructions"],
    "fig08_09_slice_exec_time_ps": slice_["exec_time_ps"],
    "fig08_09_slice_llc_misses": slice_["llc_misses"],
    "mix4_slice_instr_per_s": mix4["instr_per_s"],
    "mix4_slice_wall_s": mix4["wall_s"],
    "mix4_slice_instructions": mix4["instructions"],
    "mix4_slice_exec_time_ps": mix4["exec_time_ps"],
    "mix4_slice_llc_misses": mix4["llc_misses"],
}

report = {
    "schema": "moca-bench-hotpath-v1",
    "quick_mode": quick == "1",
    "host": {
        "machine": platform.machine(),
        "system": platform.system(),
    },
    "current": current,
}
if baseline_path:
    with open(baseline_path) as f:
        base = json.load(f)["current"]
    report["baseline"] = base
    speedup = {}
    for key in ("eventqueue_fanout_events_per_s",
                "eventqueue_selfresched_events_per_s",
                "eventqueue_farfuture_events_per_s",
                "micro_overhead_profiling_instr_per_s",
                "micro_overhead_noprofiling_instr_per_s",
                "micro_overhead_noadaptive_instr_per_s",
                "micro_translation_fastpath_per_s",
                "micro_attribution_fastpath_per_s",
                "fig08_09_slice_instr_per_s",
                "mix4_slice_instr_per_s"):
        if base.get(key):
            speedup[key] = current[key] / base[key]
    report["speedup"] = speedup

with open(out, "w") as f:
    json.dump(report, f, indent=2, sort_keys=True)
    f.write("\n")
print(json.dumps(report, indent=2, sort_keys=True))
PY
