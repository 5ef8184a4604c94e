#include "moca/adaptive.h"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/check.h"
#include "common/units.h"
#include "os/policy.h"

namespace moca::core {
namespace {

/// cache::kNoObject without pulling the cache headers into this layer.
constexpr std::uint64_t kNoObject = ~std::uint64_t{0};

/// Copy-rate ceiling for parsed specs (docs/adaptive.md): 32 page copies
/// per 50,000 cycles stay inside LPDDR2's service rate. A faster sustained
/// rate grows its queue without bound, starves demand misses and runs the
/// simulation into its cycle limit.
constexpr std::uint64_t kRatePages = 32;
constexpr std::uint64_t kRateCycles = 50'000;

/// Speed order of the classes' home kinds: LPDDR < HBM < RLDRAM. A move to
/// a higher rank is a promotion.
[[nodiscard]] int class_rank(os::MemClass c) {
  switch (c) {
    case os::MemClass::kNonIntensive:
      return 0;
    case os::MemClass::kBandwidth:
      return 1;
    case os::MemClass::kLatency:
      return 2;
  }
  MOCA_CHECK_MSG(false, "unknown MemClass");
  return 0;
}

std::uint64_t spec_u64(const std::string& text, const std::string& key) {
  MOCA_CHECK_MSG(!text.empty() && text[0] != '-',
                 "adaptive spec " << key << " needs a non-negative number, "
                                  << "got '" << text << "'");
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  MOCA_CHECK_MSG(end != text.c_str() && *end == '\0',
                 "adaptive spec " << key << " needs a number, got '" << text
                                  << "'");
  MOCA_CHECK_MSG(errno != ERANGE, "adaptive spec " << key
                                      << " is out of range, got '" << text
                                      << "'");
  return value;
}

/// The 32-bit keys: a larger value is rejected, not truncated.
std::uint32_t spec_u32(const std::string& text, const std::string& key) {
  const std::uint64_t value = spec_u64(text, key);
  MOCA_CHECK_MSG(value <= std::numeric_limits<std::uint32_t>::max(),
                 "adaptive spec " << key << " must be at most "
                                  << std::numeric_limits<std::uint32_t>::max()
                                  << ", got '" << text << "'");
  return static_cast<std::uint32_t>(value);
}

double spec_double(const std::string& text, const std::string& key) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  MOCA_CHECK_MSG(!text.empty() && end != text.c_str() && *end == '\0',
                 "adaptive spec " << key << " needs a number, got '" << text
                                  << "'");
  return value;
}

}  // namespace

os::MemClass classify_windowed(double mpki, double stall_per_miss,
                               os::MemClass current,
                               const Thresholds& thresholds, double margin) {
  const double lat_hi = thresholds.thr_lat * (1.0 + margin);
  const double lat_lo = thresholds.thr_lat * (1.0 - margin);
  const double bw_hi = thresholds.thr_bw * (1.0 + margin);
  const double bw_lo = thresholds.thr_bw * (1.0 - margin);
  switch (current) {
    case os::MemClass::kNonIntensive:
      // Leaving N requires clearing the intensity threshold by the margin;
      // the L/B split of a freshly intensive object is un-margined (there
      // is no current side to defend).
      if (mpki < lat_hi) return os::MemClass::kNonIntensive;
      return stall_per_miss >= thresholds.thr_bw ? os::MemClass::kLatency
                                                 : os::MemClass::kBandwidth;
    case os::MemClass::kLatency:
      if (mpki < lat_lo) return os::MemClass::kNonIntensive;
      if (stall_per_miss < bw_lo) return os::MemClass::kBandwidth;
      return os::MemClass::kLatency;
    case os::MemClass::kBandwidth:
      if (mpki < lat_lo) return os::MemClass::kNonIntensive;
      if (stall_per_miss >= bw_hi) return os::MemClass::kLatency;
      return os::MemClass::kBandwidth;
  }
  MOCA_CHECK_MSG(false, "unknown MemClass");
  return current;
}

AdaptiveEngine::AdaptiveEngine(os::Os& os, const ObjectRegistry& registry,
                               AdaptiveConfig config)
    : os_(os), registry_(registry), config_(config) {
  MOCA_CHECK(config_.epoch_cycles > 0);
  MOCA_CHECK(config_.window_epochs > 0);
  MOCA_CHECK(config_.max_object_moves_per_epoch > 0);
  MOCA_CHECK(config_.max_pages_per_epoch > 0);
  MOCA_CHECK(config_.reclass_margin >= 0.0 && config_.reclass_margin < 1.0);
}

AdaptiveEngine::ObjectState& AdaptiveEngine::ensure(std::uint64_t object_id) {
  if (object_id >= states_.size()) states_.resize(object_id + 1);
  ObjectState& state = states_[object_id];
  if (!state.tracked) {
    state.tracked = true;
    state.current = registry_.instance(object_id).placed_class;
    state.previous = state.current;
    state.window.assign(config_.window_epochs, EpochSample{});
    ++tracked_;
  }
  return state;
}

void AdaptiveEngine::record_miss(os::ProcessId /*pid*/,
                                 std::uint64_t object_id, bool is_load) {
  if (object_id == kNoObject) return;  // non-heap access
  EpochSample& pending = ensure(object_id).pending;
  ++pending.llc_misses;
  if (is_load) ++pending.load_misses;
}

void AdaptiveEngine::record_stall(os::ProcessId /*pid*/,
                                  std::uint64_t object_id,
                                  std::uint64_t cycles) {
  if (object_id == kNoObject) return;
  ensure(object_id).pending.stall_cycles += cycles;
}

void AdaptiveEngine::place_pages(ObjectState& state,
                                 const ObjectInstance& instance,
                                 std::uint32_t* budget) {
  os::PreferenceChain chain;
  os::chain_for_class(state.current, chain);
  os::PhysicalMemory& phys = os_.physical_memory();
  const os::PageTable& table =
      os_.address_space(instance.pid).page_table();
  const os::Vpn last =
      (instance.base + instance.bytes - 1) >> kPageShift;
  for (os::Vpn vpn = state.resume_vpn; vpn <= last; ++vpn) {
    if (*budget == 0) {
      state.resume_vpn = vpn;  // pick up here next epoch
      return;
    }
    const auto pfn = table.lookup(vpn);
    if (!pfn) continue;  // never touched: no frame to move
    const dram::MemKind current_kind =
        phys.module(phys.locate(*pfn << kPageShift).module_index).kind();
    bool placed = false;
    // Allocation-style placement: walk the new class's preference chain,
    // first present kind first. A page already sitting in the kind under
    // consideration is at its best reachable position and stays.
    for (const dram::MemKind kind : chain) {
      const std::vector<std::uint32_t>& candidates =
          phys.modules_of_kind(kind);
      if (candidates.empty()) continue;
      if (current_kind == kind) {
        placed = true;
        break;
      }
      for (const std::uint32_t target : candidates) {
        if (os_.try_remap(instance.pid, vpn, target)) {
          stats_.copied_lines += kPageBytes / kLineBytes;
          ++stats_.moved_pages;
          --*budget;
          placed = true;
          break;
        }
      }
      if (placed) break;
    }
    if (!placed) ++stats_.denied_no_space;  // stays put, not retried
  }
  state.placing = false;
}

bool AdaptiveEngine::run_epoch() {
  ++stats_.epochs;
  const std::uint64_t epoch = stats_.epochs;

  // Fold this epoch's committed-instruction deltas into the per-process
  // windows (the MPKI denominators).
  const std::size_t process_count = os_.process_count();
  if (processes_.size() < process_count) processes_.resize(process_count);
  for (std::size_t p = 0; p < process_count; ++p) {
    ProcessWindow& window = processes_[p];
    if (window.window.empty()) {
      window.window.assign(config_.window_epochs, 0);
    }
    std::uint64_t total = window.last_total;
    if (instructions_) {
      total = instructions_(static_cast<os::ProcessId>(p));
    }
    window.window[window.cursor] = total - window.last_total;
    window.last_total = total;
    window.cursor = (window.cursor + 1) % config_.window_epochs;
    if (window.observed_epochs < config_.window_epochs) {
      ++window.observed_epochs;
    }
  }

  // Close the epoch for every tracked object (dense-id order keeps every
  // pass deterministic).
  for (ObjectState& state : states_) {
    if (!state.tracked) continue;
    state.window[state.cursor] = state.pending;
    state.pending = EpochSample{};
    state.cursor = (state.cursor + 1) % config_.window_epochs;
    if (state.observed_epochs < config_.window_epochs) {
      ++state.observed_epochs;
    }
  }

  // Decision pass: re-run the threshold function on the windowed stats.
  std::uint32_t moves = 0;
  for (std::uint64_t id = 0; id < states_.size(); ++id) {
    ObjectState& state = states_[id];
    if (!state.tracked) continue;
    if (state.observed_epochs < config_.window_epochs) continue;
    const ObjectInstance& instance = registry_.instance(id);
    if (!instance.live) continue;  // freed: nothing left to place
    if (instance.pid >= processes_.size()) continue;
    const ProcessWindow& process = processes_[instance.pid];
    if (process.observed_epochs < config_.window_epochs) continue;

    std::uint64_t misses = 0;
    std::uint64_t load_misses = 0;
    std::uint64_t stalls = 0;
    for (const EpochSample& sample : state.window) {
      misses += sample.llc_misses;
      load_misses += sample.load_misses;
      stalls += sample.stall_cycles;
    }
    std::uint64_t instructions = 0;
    for (const std::uint64_t delta : process.window) {
      instructions += delta;
    }
    if (instructions == 0) continue;  // no denominator, no decision

    const double mpki = static_cast<double>(misses) * 1000.0 /
                        static_cast<double>(instructions);
    const double stall_per_miss =
        load_misses == 0 ? 0.0
                         : static_cast<double>(stalls) /
                               static_cast<double>(load_misses);
    const os::MemClass desired =
        classify_windowed(mpki, stall_per_miss, state.current,
                          config_.thresholds, config_.reclass_margin);
    if (desired == state.current) {
      // Did the margin alone hold it in place?
      const os::MemClass raw = classify_windowed(
          mpki, stall_per_miss, state.current, config_.thresholds, 0.0);
      if (raw != state.current) ++stats_.hysteresis_margin;
      continue;
    }
    const bool promotion = class_rank(desired) > class_rank(state.current);
    if (promotion && misses < config_.min_window_misses) {
      continue;  // promotions need positive evidence in the window
    }
    if (state.ever_moved &&
        epoch - state.last_move_epoch < config_.min_residency_epochs) {
      ++stats_.hysteresis_residency;
      continue;
    }
    if (moves >= config_.max_object_moves_per_epoch) break;

    ++stats_.reclassifications;
    ++moves;
    if (state.ever_moved && desired == state.previous &&
        epoch - state.last_move_epoch <=
            config_.min_residency_epochs + config_.window_epochs) {
      ++stats_.ping_pong_moves;  // the thrash hysteresis must prevent
    }
    if (promotion) {
      ++stats_.object_promotions;
    } else {
      ++stats_.object_demotions;
    }
    state.previous = state.current;
    state.current = desired;
    state.ever_moved = true;
    state.last_move_epoch = epoch;
    state.resume_vpn = instance.base >> kPageShift;
    state.placing = instance.bytes > 0;
  }

  // Placement pass: walk every object still being placed (this epoch's
  // reclassifications plus unfinished earlier ones) in id order under one
  // shared page budget.
  std::uint32_t budget = config_.max_pages_per_epoch;
  for (std::uint64_t id = 0; id < states_.size() && budget > 0; ++id) {
    ObjectState& state = states_[id];
    if (!state.tracked || !state.placing) continue;
    const ObjectInstance& instance = registry_.instance(id);
    if (!instance.live) {
      state.placing = false;  // freed mid-placement: nothing left to move
      continue;
    }
    place_pages(state, instance, &budget);
  }
  return budget < config_.max_pages_per_epoch;  // a page moved
}

os::MemClass AdaptiveEngine::current_class(std::uint64_t object_id) const {
  if (object_id < states_.size() && states_[object_id].tracked) {
    return states_[object_id].current;
  }
  return registry_.instance(object_id).placed_class;
}

void AdaptiveEngine::register_stats(StatRegistry& registry,
                                    const std::string& prefix) const {
  registry.counter(prefix + "/epochs", &stats_.epochs);
  registry.counter(prefix + "/reclassifications", &stats_.reclassifications);
  registry.counter(prefix + "/object_promotions",
                   &stats_.object_promotions);
  registry.counter(prefix + "/object_demotions", &stats_.object_demotions);
  registry.counter(prefix + "/moved_pages", &stats_.moved_pages);
  registry.counter(prefix + "/copied_lines", &stats_.copied_lines);
  registry.counter(prefix + "/denied_no_space", &stats_.denied_no_space);
  registry.counter(prefix + "/hysteresis_residency",
                   &stats_.hysteresis_residency);
  registry.counter(prefix + "/hysteresis_margin",
                   &stats_.hysteresis_margin);
  registry.counter(prefix + "/ping_pong_moves", &stats_.ping_pong_moves);
  registry.gauge(prefix + "/tracked_objects",
                 [this] { return static_cast<double>(tracked_); });
}

std::optional<AdaptiveConfig> parse_adaptive_spec(const std::string& spec) {
  MOCA_CHECK_MSG(!spec.empty(),
                 "adaptive spec must not be empty (use on|off|key=value,..)");
  if (spec == "off" || spec == "0") return std::nullopt;
  AdaptiveConfig config;
  if (spec == "on" || spec == "1" || spec == "default") return config;

  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t eq = item.find('=');
    MOCA_CHECK_MSG(eq != std::string::npos && eq > 0,
                   "adaptive spec item '" << item << "' is not key=value");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "epoch") {
      const std::uint64_t v = spec_u64(value, key);
      MOCA_CHECK_MSG(v > 0, "adaptive epoch must be positive");
      MOCA_CHECK_MSG(v <= static_cast<std::uint64_t>(kMaxCyclesInPs),
                     "adaptive spec epoch must be at most "
                         << kMaxCyclesInPs
                         << " cycles (its length in ps overflows), got '"
                         << value << "'");
      config.epoch_cycles = static_cast<Cycle>(v);
    } else if (key == "window") {
      const std::uint32_t v = spec_u32(value, key);
      MOCA_CHECK_MSG(v > 0, "adaptive window must be positive");
      config.window_epochs = v;
    } else if (key == "residency") {
      config.min_residency_epochs = spec_u32(value, key);
    } else if (key == "margin") {
      const double v = spec_double(value, key);
      MOCA_CHECK_MSG(v >= 0.0 && v < 1.0,
                     "adaptive margin must be in [0, 1), got " << value);
      config.reclass_margin = v;
    } else if (key == "max-moves") {
      const std::uint32_t v = spec_u32(value, key);
      MOCA_CHECK_MSG(v > 0, "adaptive max-moves must be positive");
      config.max_object_moves_per_epoch = v;
    } else if (key == "max-pages") {
      const std::uint32_t v = spec_u32(value, key);
      MOCA_CHECK_MSG(v > 0, "adaptive max-pages must be positive");
      config.max_pages_per_epoch = v;
    } else if (key == "min-misses") {
      config.min_window_misses = spec_u64(value, key);
    } else if (key == "thr-lat") {
      const double v = spec_double(value, key);
      MOCA_CHECK_MSG(v > 0.0, "adaptive thr-lat must be positive");
      config.thresholds.thr_lat = v;
    } else if (key == "thr-bw") {
      const double v = spec_double(value, key);
      MOCA_CHECK_MSG(v > 0.0, "adaptive thr-bw must be positive");
      config.thresholds.thr_bw = v;
    } else {
      MOCA_CHECK_MSG(false, "unknown adaptive spec key '" << key << "'");
    }
  }
  // Shortest epoch that keeps max-pages within the rate (rounded up; the
  // product stays far below 2^64 because max-pages is 32-bit).
  const std::uint64_t min_epoch =
      (std::uint64_t{config.max_pages_per_epoch} * kRateCycles +
       kRatePages - 1) /
      kRatePages;
  MOCA_CHECK_MSG(static_cast<std::uint64_t>(config.epoch_cycles) >= min_epoch,
                 "adaptive max-pages=" << config.max_pages_per_epoch
                     << " per epoch=" << config.epoch_cycles
                     << " copies faster than " << kRatePages
                     << " pages per " << kRateCycles
                     << " cycles; lower max-pages or raise epoch to at least "
                     << min_epoch);
  return config;
}

}  // namespace moca::core
