#include "probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>

#include "moca/allocator.h"
#include "moca/object_registry.h"
#include "os/address_space.h"
#include "workload/app_stream.h"

namespace {

// Constant-initialized, so operator new may touch it from any thread at
// any time, including before main().
thread_local std::uint64_t t_heap_allocs = 0;

void* counted_alloc(std::size_t size) noexcept {
  ++t_heap_allocs;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc(std::size_t size, std::align_val_t align) noexcept {
  ++t_heap_allocs;
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a whole number of alignment units.
  const std::size_t rounded =
      (std::max<std::size_t>(size, 1) + alignment - 1) / alignment *
      alignment;
  return std::aligned_alloc(alignment, rounded);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Counting replacements of every global new, with every delete releasing
// through free() to match (a partial set would pair this malloc with a
// sanitizer's own delete).
void* operator new(std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new[](std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return or_throw(counted_alloc(n, a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return or_throw(counted_alloc(n, a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

std::uint64_t thread_heap_allocs() { return t_heap_allocs; }

double peak_rss_mib() {
  // getrusage(RUSAGE_SELF) would do for this process too, but Linux keeps
  // its high-water mark across execve, so it would report the launching
  // process's peak whenever that was larger. VmHWM restarts at exec.
  long self_kib = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.starts_with("VmHWM:")) self_kib = std::stol(line.substr(6));
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  // Both are in KiB.
  return static_cast<double>(std::max(self_kib, children.ru_maxrss)) / 1024.0;
}

void CountingPolicy::preference(const moca::os::PageContext& context,
                                moca::os::PreferenceChain& out) const {
  const Clock::time_point start = Clock::now();
  inner_->preference(context, out);
  counters_.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - start)
                      .count();
  ++counters_.calls;
}

StreamDrive drive_streams(const std::vector<moca::sim::AppInstance>& apps,
                          std::uint64_t ops) {
  StreamDrive drive;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const moca::sim::AppInstance& app = apps[i];
    moca::os::AddressSpace space(static_cast<moca::os::ProcessId>(i));
    moca::core::ObjectRegistry registry;
    moca::core::MocaAllocator allocator(
        space, registry, app.classes.has_value() ? &*app.classes : nullptr);
    moca::workload::AppStream app_stream(app.spec, app.scale, app.seed,
                                         allocator, space);
    // Called through the interface, as cpu::Core calls it.
    moca::cpu::OpStream& stream = app_stream;
    const Clock::time_point start = Clock::now();
    for (std::uint64_t n = 0; n < ops; ++n) {
      const moca::cpu::MicroOp op = stream.next();
      drive.checksum += op.vaddr ^ op.object;
    }
    drive.seconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
    drive.calls += ops;
  }
  return drive;
}

}  // namespace perfbench
