#include "sim/report.h"

#include "common/json.h"

namespace moca::sim {
namespace {

/// Emits the observability time-series block (schema v2, additive).
void write_timeseries(JsonWriter& w, const ObservabilityResult& ts) {
  w.begin_object();
  w.key("epoch_instructions").value(ts.epoch_instructions);
  w.key("warmup_end_ps")
      .value(static_cast<std::uint64_t>(ts.warmup_end_ps));
  w.key("columns").begin_array();
  for (std::size_t i = 0; i < ts.columns.size(); ++i) {
    w.begin_object();
    w.key("path").value(ts.columns[i]);
    w.key("kind").value(to_string(ts.kinds[i]));
    w.end_object();
  }
  w.end_array();
  w.key("rows").begin_array();
  for (const EpochRow& row : ts.rows) {
    w.begin_object();
    w.key("epoch").value(row.epoch);
    w.key("time_ps").value(static_cast<std::uint64_t>(row.time_ps));
    w.key("instructions").value(row.instructions);
    w.key("values").begin_array();
    for (const double v : row.values) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

/// Emits the RunResult object body into an already-open writer so the same
/// serialization backs both the standalone report and the per-job wrapper.
void write_run_result(JsonWriter& w, const RunResult& r) {
  w.begin_object();
  w.key("schema_version").value(kReportSchemaVersion);
  w.key("memory_system").value(r.memsys_name);
  w.key("policy").value(r.policy_name);
  w.key("exec_time_ps").value(static_cast<std::uint64_t>(r.exec_time));
  w.key("total_mem_access_time_ps")
      .value(static_cast<std::uint64_t>(r.total_mem_access_time));
  w.key("memory_energy_j").value(r.memory_energy_j);
  w.key("core_energy_j").value(r.core_energy_j);
  w.key("memory_edp").value(r.memory_edp());
  w.key("system_edp").value(r.system_edp());
  w.key("total_instructions").value(r.total_instructions);
  w.key("total_llc_misses").value(r.total_llc_misses);

  w.key("cores").begin_array();
  for (const CoreResult& c : r.cores) {
    w.begin_object();
    w.key("app").value(c.app_name);
    w.key("instructions").value(c.core.committed);
    w.key("cycles").value(static_cast<std::uint64_t>(c.core.cycles));
    w.key("ipc").value(c.core.ipc());
    w.key("llc_misses").value(c.hierarchy.llc_misses);
    w.key("rob_head_stall_cycles")
        .value(static_cast<std::uint64_t>(c.core.rob_head_stall_cycles));
    w.key("tlb_misses").value(c.core.tlb_misses);
    w.key("finish_time_ps").value(static_cast<std::uint64_t>(c.finish_time));
    w.end_object();
  }
  w.end_array();

  w.key("modules").begin_array();
  for (const ModuleResult& m : r.modules) {
    w.begin_object();
    w.key("name").value(m.name);
    w.key("kind").value(dram::to_string(m.kind));
    w.key("capacity_bytes").value(m.capacity_bytes);
    w.key("frames_used").value(m.frames_used);
    w.key("reads").value(m.stats.reads);
    w.key("writes").value(m.stats.writes);
    w.key("row_hits").value(m.stats.row_hits);
    w.key("activates").value(m.stats.activates());
    w.key("access_time_ps")
        .value(static_cast<std::uint64_t>(m.stats.total_access_time_ps()));
    w.key("energy_j").value(m.energy_j);
    w.end_object();
  }
  w.end_array();

  w.key("page_faults").value(r.os_stats.page_faults);
  w.key("fallback_allocations").value(r.os_stats.fallback_allocations);
  if (r.migration.epochs > 0) {
    w.key("migration").begin_object();
    w.key("epochs").value(r.migration.epochs);
    w.key("promotions").value(r.migration.promotions);
    w.key("demotions").value(r.migration.demotions);
    w.key("copied_lines").value(r.migration.copied_lines);
    w.end_object();
  }
  // Schema-additive like "migration": the block only appears when the
  // adaptive engine ran, so engine-off reports stay byte-identical.
  if (r.adaptive.epochs > 0) {
    w.key("adaptive").begin_object();
    w.key("epochs").value(r.adaptive.epochs);
    w.key("reclassifications").value(r.adaptive.reclassifications);
    w.key("object_promotions").value(r.adaptive.object_promotions);
    w.key("object_demotions").value(r.adaptive.object_demotions);
    w.key("moved_pages").value(r.adaptive.moved_pages);
    w.key("copied_lines").value(r.adaptive.copied_lines);
    w.key("denied_no_space").value(r.adaptive.denied_no_space);
    w.key("hysteresis_residency").value(r.adaptive.hysteresis_residency);
    w.key("hysteresis_margin").value(r.adaptive.hysteresis_margin);
    w.key("ping_pong_moves").value(r.adaptive.ping_pong_moves);
    w.end_object();
  }
  if (r.observability.has_timeseries()) {
    w.key("timeseries");
    write_timeseries(w, r.observability);
  }
  w.end_object();
}

void write_outcome(JsonWriter& w, const SweepOutcome& o) {
  w.begin_object();
  w.key("job_id").value(static_cast<std::uint64_t>(o.job_id));
  if (!o.label.empty()) w.key("label").value(o.label);
  w.key("ok").value(o.ok);
  w.key("kind").value(to_string(o.kind));
  w.key("attempts").value(static_cast<std::uint64_t>(o.attempts));
  // Crash fingerprint (schema v4, additive): present only when a child
  // process died by signal, so non-isolated reports are unchanged.
  if (o.crash_signal != 0) {
    w.key("crash").begin_object();
    w.key("signal").value(static_cast<std::int64_t>(o.crash_signal));
    w.key("phase").value(o.crash_phase);
    w.end_object();
  }
  if (o.ok) {
    w.key("result");
    write_run_result(w, o.result);
  } else {
    w.key("error").value(o.error);
  }
  w.end_object();
}

}  // namespace

std::string to_json(const RunResult& r) {
  JsonWriter w;
  write_run_result(w, r);
  return w.str();
}

std::string to_deterministic_json(const SweepOutcome& outcome) {
  JsonWriter w;
  write_outcome(w, outcome);
  return w.str();
}

std::string sweep_report_json(const std::vector<std::string>& outcome_jsons,
                              bool interrupted) {
  // Spliced by hand: resume merges journal entries verbatim, and JsonWriter
  // has no raw-injection mode.
  std::string out = "{\"schema_version\":";
  out += std::to_string(kReportSchemaVersion);
  if (interrupted) out += ",\"interrupted\":true";
  out += ",\"outcomes\":[";
  for (std::size_t i = 0; i < outcome_jsons.size(); ++i) {
    if (i > 0) out += ',';
    out += outcome_jsons[i];
  }
  out += "]}";
  return out;
}

}  // namespace moca::sim
