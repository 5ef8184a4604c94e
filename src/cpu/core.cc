#include "cpu/core.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.h"
#include "common/units.h"

namespace moca::cpu {

Core::Core(std::uint32_t core_id, const CoreParams& params, OpStream& stream,
           cache::MemHierarchy& hierarchy, os::Os& os, os::ProcessId pid,
           EventQueue& events)
    : core_id_(core_id),
      params_(params),
      stream_(stream),
      hierarchy_(hierarchy),
      os_(os),
      pid_(pid),
      events_(events),
      tlb_(params.tlb_entries) {
  MOCA_CHECK(params_.rob_entries > 0 && params_.width > 0);
  MOCA_CHECK(params_.page_walk_cycles <
             static_cast<Cycle>(kWheelSize));
  rob_.resize(std::bit_ceil<std::uint64_t>(params_.rob_entries));
  rob_mask_ = rob_.size() - 1;
  ready_buf_.resize(rob_.size() * 2);  // occupancy is bounded by the ROB
  ready_mask_ = ready_buf_.size() - 1;
  wheel_.resize(kWheelSize);
}

void Core::step() {
  if (done()) return;
  // Progress marks for idle(): every stage that moves an instruction or
  // the fetch buffer changes one of them. Issue pops deferred loads and
  // pushes them back, so an issue stage that issued nothing leaves the
  // ready head where it found it.
  const std::uint64_t committed = committed_;
  const std::uint64_t dispatched = dispatched_;
  const std::uint64_t ready_head = ready_head_;
  const bool fetched = fetched_valid_;
  const Cycle stalls = stats_.rob_head_stall_cycles;
  const std::uint64_t rejects = stats_.mshr_reject_cycles;
  const bool woke = run_wheel();
  do_commit();
  do_issue();
  do_dispatch();
  ++stats_.cycles;
  idle_ = !params_.in_order && !woke && committed_ == committed &&
          dispatched_ == dispatched && ready_head_ == ready_head &&
          fetched_valid_ == fetched;
  last_stalled_ = stats_.rob_head_stall_cycles != stalls;
  last_rejected_ = stats_.mshr_reject_cycles != rejects;
  if (done()) finish_cycle_ = stats_.cycles;
}

Cycle Core::next_wheel_cycle() const {
  static_assert(kWheelSize == 128, "the scan below covers two words");
  // Ring order from the current slot: the rest of its word, the other
  // word, then the current word's bits below the slot. Every item is due
  // less than kWheelSize cycles ahead, so the distance is unambiguous.
  const std::size_t idx = static_cast<std::size_t>(stats_.cycles % kWheelSize);
  const int bit = static_cast<int>(idx & 63);
  const std::uint64_t here = wheel_occ_[idx >> 6];
  const std::uint64_t other = wheel_occ_[(idx >> 6) ^ 1];
  Cycle distance = 0;
  if ((here >> bit) != 0) {
    distance = std::countr_zero(here >> bit);
  } else if (other != 0) {
    distance = 64 - bit + std::countr_zero(other);
  } else if (here != 0) {
    distance = 128 - bit + std::countr_zero(here);
  } else {
    return std::numeric_limits<Cycle>::max();
  }
  return stats_.cycles + distance;
}

void Core::sleep(Cycle next) {
  MOCA_CHECK(idle_ && !done());
  asleep_ = true;
  sleep_from_ = next;
  // The wheel runs on the core's own step count, which lags the caller's
  // clock by however long the core sat out (finished early in warm-up).
  const Cycle wheel = next_wheel_cycle();
  wake_at_ = wheel == std::numeric_limits<Cycle>::max()
                 ? wheel
                 : next + (wheel - stats_.cycles);
}

void Core::settle(Cycle cycle) {
  if (!asleep_ || cycle <= sleep_from_) return;
  skip(cycle - sleep_from_);
  sleep_from_ = cycle;
}

void Core::skip(Cycle n) {
  MOCA_CHECK(idle_ && n > 0);
  stats_.cycles += n;
  if (last_rejected_) {
    stats_.mshr_reject_cycles += static_cast<std::uint64_t>(n);
  }
  if (last_stalled_) {
    stats_.rob_head_stall_cycles += n;
    if (stall_observer_ != nullptr) {
      stall_observer_(stall_observer_ctx_, stall_observer_arg_,
                      slot(committed_).op.object,
                      static_cast<std::uint64_t>(n));
    }
  }
}

void Core::schedule_wheel(Cycle at, WheelItem item) {
  MOCA_CHECK(at > stats_.cycles &&
             at - stats_.cycles < static_cast<Cycle>(kWheelSize));
  const std::size_t idx = static_cast<std::size_t>(at % kWheelSize);
  wheel_[idx].push_back(item);
  wheel_occ_[idx >> 6] |= 1ULL << (idx & 63);
}

bool Core::run_wheel() {
  // Most cycles have nothing due; the occupancy bitmap makes that case a
  // single cached word test instead of a vector-header load.
  const std::size_t idx = static_cast<std::size_t>(stats_.cycles % kWheelSize);
  if ((wheel_occ_[idx >> 6] & (1ULL << (idx & 63))) == 0) return false;
  wheel_occ_[idx >> 6] &= ~(1ULL << (idx & 63));
  auto& bucket = wheel_[idx];
  for (const WheelItem& item : bucket) {
    Entry& e = slot(item.seq);
    if (!e.valid || e.seq != item.seq) continue;  // flushed/committed
    if (item.is_completion) {
      complete(item.seq);
    } else {
      ready_push_front(item.seq);  // page walk finished; issue soon
    }
  }
  bucket.clear();
  return true;
}

void Core::complete(std::uint64_t seq) {
  // The one way an event changes a sleeping core: it wakes up to step in
  // the cycle whose run_until is dispatching this event.
  if (asleep_) wake(ps_to_cycle_ceil(events_.now()));
  Entry& e = slot(seq);
  MOCA_CHECK(e.valid && e.seq == seq && !e.done);
  e.done = true;
  wake_dependents(e);
}

void Core::wake_dependents(Entry& entry) {
  for (const std::uint64_t dep_seq : entry.dependents) {
    Entry& d = slot(dep_seq);
    if (!d.valid || d.seq != dep_seq) continue;
    MOCA_CHECK(d.deps_remaining > 0);
    if (--d.deps_remaining == 0 && !d.issued) make_ready(d);
  }
  entry.dependents.clear();
}

void Core::make_ready(Entry& entry) {
  // In-order mode issues by walking program order directly; no ready queue.
  if (params_.in_order) return;
  // Loads whose page walk (started at dispatch) is still in flight become
  // issue-eligible when it returns.
  if (entry.op.kind == OpKind::kLoad && entry.walk_done > stats_.cycles) {
    schedule_wheel(entry.walk_done, WheelItem{entry.seq, false});
    return;
  }
  if (entry.op.kind != OpKind::kLoad) ++ready_non_loads_;
  ready_push_back(entry.seq);
}

std::uint64_t Core::translate(std::uint64_t vaddr, bool* walked) {
  const os::Vpn vpn = vaddr >> kPageShift;
  if (const auto pfn = tlb_.lookup(pid_, vpn)) {
    ++stats_.tlb_hits;
    *walked = false;
    return (*pfn << kPageShift) | (vaddr & (kPageBytes - 1));
  }
  ++stats_.tlb_misses;
  const os::Os::TranslateResult tr = os_.translate(pid_, vaddr);
  tlb_.insert(pid_, vpn, tr.paddr >> kPageShift);
  *walked = true;
  return tr.paddr;
}

void Core::do_commit() {
  for (std::uint32_t n = 0; n < params_.width; ++n) {
    if (committed_ >= dispatched_) return;  // ROB empty
    Entry& head = slot(committed_);
    MOCA_CHECK(head.valid && head.seq == committed_);
    if (!head.done) {
      if (head.op.kind == OpKind::kLoad && head.issued && head.llc_miss) {
        ++stats_.rob_head_stall_cycles;
        if (stall_observer_ != nullptr) {
          stall_observer_(stall_observer_ctx_, stall_observer_arg_,
                          head.op.object, 1);
        }
      }
      return;
    }
    if (head.op.kind == OpKind::kStore) retire_store(head);
    if (head.op.kind == OpKind::kLoad) {
      MOCA_CHECK(lq_used_ > 0);
      --lq_used_;
    }
    head.valid = false;
    ++committed_;
    ++stats_.committed;
    if (done()) return;
  }
}

void Core::retire_store(Entry& entry) {
  // Address translation at retirement; the walk penalty for stores is not
  // modelled (stores are off the critical path in this model).
  bool walked = false;
  const std::uint64_t paddr = translate(entry.op.vaddr, &walked);
  cache::AccessContext ctx;
  ctx.core = core_id_;
  ctx.process = pid_;
  ctx.object = entry.op.object;
  ctx.vaddr = entry.op.vaddr;
  ctx.segment = entry.segment;
  ctx.is_load = false;
  hierarchy_.issue_store(paddr, ctx);
}

void Core::do_issue() {
  if (params_.in_order) {
    do_issue_in_order();
    return;
  }
  std::uint32_t issued = 0;
  std::uint32_t load_ports = 0;
  bool mshr_full = false;
  issue_deferred_.clear();

  while (issued < params_.width && !ready_empty()) {
    // Once no load can issue this cycle and only loads are left, popping
    // them would push each one back where it was.
    if ((mshr_full || load_ports >= params_.l1_load_ports) &&
        ready_non_loads_ == 0) {
      break;
    }
    const std::uint64_t seq = ready_pop_front();
    Entry& e = slot(seq);
    if (!e.valid || e.seq != seq || e.issued) continue;
    MOCA_CHECK(e.deps_remaining == 0);
    if (e.op.kind != OpKind::kLoad) --ready_non_loads_;

    switch (e.op.kind) {
      case OpKind::kAlu: {
        e.issued = true;
        ++issued;
        schedule_wheel(stats_.cycles + std::max<Cycle>(1, e.op.latency),
                       WheelItem{seq, /*is_completion=*/true});
        break;
      }
      case OpKind::kStore: {
        // Store "execution" is address generation; data goes out at commit.
        e.issued = true;
        ++issued;
        schedule_wheel(stats_.cycles + 1, WheelItem{seq, true});
        break;
      }
      case OpKind::kLoad: {
        if (load_ports >= params_.l1_load_ports || mshr_full) {
          issue_deferred_.push_back(seq);
          continue;
        }
        ++load_ports;
        ++issued;
        if (!issue_load(e)) {
          // L1 MSHRs exhausted: stop trying loads this cycle.
          mshr_full = true;
          ++stats_.mshr_reject_cycles;
          issue_deferred_.push_back(seq);
        }
        break;
      }
    }
  }
  // Preserve age order for next cycle: deferred loads go to the front.
  for (auto it = issue_deferred_.rbegin(); it != issue_deferred_.rend(); ++it) {
    ready_push_front(*it);
  }
}

void Core::do_issue_in_order() {
  // Strict program-order issue (stall-on-use): walk forward from the
  // oldest unissued instruction; stop at the first one that cannot go.
  std::uint32_t issued = 0;
  std::uint32_t load_ports = 0;
  while (issued < params_.width && next_issue_ < dispatched_) {
    Entry& e = slot(next_issue_);
    MOCA_CHECK(e.valid && e.seq == next_issue_);
    if (e.issued) {
      ++next_issue_;
      continue;
    }
    if (e.deps_remaining > 0) return;
    switch (e.op.kind) {
      case OpKind::kAlu:
        e.issued = true;
        ++issued;
        schedule_wheel(stats_.cycles + std::max<Cycle>(1, e.op.latency),
                       WheelItem{e.seq, true});
        break;
      case OpKind::kStore:
        e.issued = true;
        ++issued;
        schedule_wheel(stats_.cycles + 1, WheelItem{e.seq, true});
        break;
      case OpKind::kLoad: {
        if (e.walk_done > stats_.cycles) return;  // page walk in flight
        if (load_ports >= params_.l1_load_ports) return;
        ++load_ports;
        if (!issue_load(e)) {
          ++stats_.mshr_reject_cycles;
          return;
        }
        ++issued;
        break;
      }
    }
    ++next_issue_;
  }
}

bool Core::issue_load(Entry& entry) {
  MOCA_CHECK(entry.translated);  // done at dispatch
  cache::AccessContext ctx;
  ctx.core = core_id_;
  ctx.process = pid_;
  ctx.object = entry.op.object;
  ctx.vaddr = entry.op.vaddr;
  ctx.segment = entry.segment;
  ctx.is_load = true;
  const std::uint64_t seq = entry.seq;
  const cache::IssueResult result = hierarchy_.issue_load(
      entry.paddr, ctx,
      cache::CompletionFn(
          [](void* core, std::uint64_t s, TimePs) {
            static_cast<Core*>(core)->complete(s);
          },
          this, seq));
  if (result == cache::IssueResult::kNoMshr) return false;

  entry.issued = true;
  if (result == cache::IssueResult::kLlcMiss) {
    entry.llc_miss = true;
    ++stats_.load_llc_misses;
  }
  return true;
}

void Core::do_dispatch() {
  for (std::uint32_t n = 0; n < params_.width; ++n) {
    if (dispatched_ - committed_ >= params_.rob_entries) return;  // ROB full
    // Peek-free model: we must know the op before checking LQ space, so
    // buffer one fetched op across cycles when the LQ blocks dispatch.
    if (!fetched_valid_) {
      fetched_ = stream_.next();
      fetched_valid_ = true;
    }
    if (fetched_.kind == OpKind::kLoad && lq_used_ >= params_.lq_entries) {
      return;  // LQ full; retry next cycle
    }

    const std::uint64_t seq = dispatched_++;
    Entry& e = slot(seq);
    // Reset fields in place: commit left the slot invalid and completion
    // already cleared dependents, so a whole-struct `e = Entry{}` would
    // construct and move ~sizeof(Entry) bytes per dispatch for nothing.
    MOCA_CHECK(!e.valid && e.dependents.empty());
    e.op = fetched_;
    e.seq = seq;
    e.paddr = 0;
    e.walk_done = 0;
    e.valid = true;
    e.done = false;
    e.issued = false;
    e.translated = false;
    e.llc_miss = false;
    e.deps_remaining = 0;
    fetched_valid_ = false;

    if (e.op.kind != OpKind::kAlu) {
      e.segment = static_cast<std::uint8_t>(os::segment_of(e.op.vaddr));
    }
    if (e.op.kind == OpKind::kLoad) {
      ++lq_used_;
      ++stats_.loads;
      // Address translation starts at dispatch (address generation); a
      // page walk overlaps the dispatch-to-issue slack of the window and
      // only delays issue when it outlasts it.
      bool walked = false;
      e.paddr = translate(e.op.vaddr, &walked);
      e.translated = true;
      e.walk_done =
          walked ? stats_.cycles + params_.page_walk_cycles : 0;
    } else if (e.op.kind == OpKind::kStore) {
      ++stats_.stores;
    } else {
      ++stats_.alu_ops;
    }

    for (const std::uint32_t dist : {e.op.dep1, e.op.dep2}) {
      if (dist == 0 || dist > seq) continue;
      const std::uint64_t producer_seq = seq - dist;
      if (producer_seq < committed_) continue;  // already committed
      Entry& p = slot(producer_seq);
      if (!p.valid || p.seq != producer_seq || p.done) continue;
      ++e.deps_remaining;
      p.dependents.push_back(seq);
    }
    if (e.deps_remaining == 0) make_ready(e);
  }
}

void Core::register_stats(StatRegistry& registry,
                          const std::string& prefix) const {
  registry.counter(prefix + "/instructions", &stats_.committed);
  registry.counter(prefix + "/cycles",
                   [this] { return static_cast<double>(stats_.cycles); });
  registry.counter(prefix + "/loads", &stats_.loads);
  registry.counter(prefix + "/stores", &stats_.stores);
  registry.counter(prefix + "/load_llc_misses", &stats_.load_llc_misses);
  registry.counter(prefix + "/rob/head_stall_cycles", [this] {
    return static_cast<double>(stats_.rob_head_stall_cycles);
  });
  registry.counter(prefix + "/tlb_misses", &stats_.tlb_misses);
  registry.counter(prefix + "/mshr_reject_cycles",
                   &stats_.mshr_reject_cycles);
}

Cycle run_cores(std::vector<Core*> cores, EventQueue& events, Cycle cycle,
                Cycle limit, const std::function<void()>& poll,
                const std::function<void(const Core&, Cycle)>& on_done) {
  Cycle next_poll = cycle;
  while (!cores.empty()) {
    // A jump can pass a block's first cycle, so poll on entering a block.
    if (cycle >= next_poll) {
      next_poll = (cycle | 4095) + 1;
      if (poll) poll();
    }
    events.run_until(cycle_to_ps(cycle));
    bool all_asleep = true;
    Cycle next = limit;  // earliest wake cycle, while every core sleeps
    for (std::size_t r = 0; r < cores.size();) {
      Core& core = *cores[r];
      if (core.asleep()) {
        if (core.wake_cycle() > cycle) {
          next = std::min(next, core.wake_cycle());
          ++r;
          continue;
        }
        core.wake(cycle);
      }
      core.step();
      if (core.done()) {
        if (on_done) on_done(core, cycle + 1);
        cores.erase(cores.begin() + static_cast<std::ptrdiff_t>(r));
        continue;
      }
      if (core.idle()) {
        core.sleep(cycle + 1);
        next = std::min(next, core.wake_cycle());
      } else {
        all_asleep = false;
      }
      ++r;
    }
    if (!all_asleep || cores.empty()) {
      next = cycle + 1;
    } else if (!events.empty() && events.next_time() < cycle_to_ps(next)) {
      // An event at time t first runs in the cycle whose run_until covers it.
      next = ps_to_cycle_ceil(events.next_time());
    }
    cycle = next;
    if (cycle >= limit) {
      // Counters as per-cycle stepping leaves them at the limit.
      for (Core* core : cores) core->settle(limit);
    }
    MOCA_CHECK_MSG(cycle < limit,
                   "simulation exceeded cycle limit (deadlock?)");
  }
  return cycle;
}

}  // namespace moca::cpu
