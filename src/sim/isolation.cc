#include "sim/isolation.h"

#include <poll.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include "common/check.h"

namespace moca::sim {
namespace {

using Clock = std::chrono::steady_clock;

// The shared page holds one byte: the child's phase.
constexpr std::size_t kPageBytes = 4096;

std::atomic<std::uint8_t>* phase_slot(void* page) {
  return static_cast<std::atomic<std::uint8_t>*>(page);
}

// Frame wire format, little-endian, written in one buffer so the child
// does a single write() for typical frame sizes:
//   u32 magic  u32 version  u8 kind  u64 total_instructions
//   u32 error_len  error bytes  u32 json_len  json bytes
constexpr std::uint32_t kFrameMagic = 0x4d4f4341;  // "MOCA"
constexpr std::uint32_t kFrameVersion = 1;

template <typename T>
void put(std::string& buf, T value) {
  char raw[sizeof(T)];
  std::memcpy(raw, &value, sizeof(T));
  buf.append(raw, sizeof(T));
}

template <typename T>
bool get(const std::string& buf, std::size_t& pos, T& value) {
  if (pos + sizeof(T) > buf.size()) return false;
  std::memcpy(&value, buf.data() + pos, sizeof(T));
  pos += sizeof(T);
  return true;
}

std::string encode_frame(const ChildFrame& frame) {
  std::string buf;
  buf.reserve(32 + frame.error.size() + frame.outcome_json.size());
  put(buf, kFrameMagic);
  put(buf, kFrameVersion);
  put(buf, static_cast<std::uint8_t>(frame.kind));
  put(buf, frame.total_instructions);
  put(buf, static_cast<std::uint32_t>(frame.error.size()));
  buf += frame.error;
  put(buf, static_cast<std::uint32_t>(frame.outcome_json.size()));
  buf += frame.outcome_json;
  return buf;
}

enum class ParseState { kNeedMore, kComplete, kMalformed };

/// Incremental decode of the pipe buffer. kComplete fills `frame`;
/// kMalformed means the bytes can never become a frame (bad magic or
/// version — e.g. stray child output), so the parent stops trying.
ParseState try_parse_frame(const std::string& buf, ChildFrame& frame) {
  std::size_t pos = 0;
  std::uint32_t magic = 0, version = 0;
  if (!get(buf, pos, magic)) return ParseState::kNeedMore;
  if (magic != kFrameMagic) return ParseState::kMalformed;
  if (!get(buf, pos, version)) return ParseState::kNeedMore;
  if (version != kFrameVersion) return ParseState::kMalformed;
  std::uint8_t kind = 0;
  if (!get(buf, pos, kind)) return ParseState::kNeedMore;
  if (kind > static_cast<std::uint8_t>(ChildFrame::Kind::kOom)) {
    return ParseState::kMalformed;
  }
  std::uint64_t instructions = 0;
  if (!get(buf, pos, instructions)) return ParseState::kNeedMore;
  std::uint32_t error_len = 0;
  if (!get(buf, pos, error_len)) return ParseState::kNeedMore;
  if (pos + error_len > buf.size()) return ParseState::kNeedMore;
  const std::size_t error_pos = pos;
  pos += error_len;
  std::uint32_t json_len = 0;
  if (!get(buf, pos, json_len)) return ParseState::kNeedMore;
  if (pos + json_len > buf.size()) return ParseState::kNeedMore;
  frame.kind = static_cast<ChildFrame::Kind>(kind);
  frame.total_instructions = instructions;
  frame.error = buf.substr(error_pos, error_len);
  frame.outcome_json = buf.substr(pos, json_len);
  return ParseState::kComplete;
}

bool write_all(int fd, const std::string& buf) {
  std::size_t done = 0;
  while (done < buf.size()) {
    const ssize_t n = ::write(fd, buf.data() + done, buf.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

void apply_rlimit(int resource, std::uint64_t value) {
  if (value == 0) return;
  rlimit lim{};
  lim.rlim_cur = static_cast<rlim_t>(value);
  lim.rlim_max = static_cast<rlim_t>(value);
  // Failure to tighten a limit is not fatal for the cell (the parent's
  // deadline still bounds it), and the child has no safe reporting channel
  // besides the frame — so best-effort.
  (void)::setrlimit(resource, &lim);
}

/// Child-side mainline between fork and _exit: caps, callback, frame.
[[noreturn]] void child_main(int write_fd, void* page,
                             const IsolationLimits& limits,
                             const std::function<ChildFrame(Heartbeat&)>& fn) {
  apply_rlimit(RLIMIT_AS, limits.rlimit_as_bytes);
  apply_rlimit(RLIMIT_CPU, limits.rlimit_cpu_seconds);
  Heartbeat heartbeat(page);
  ChildFrame frame;
  try {
    frame = fn(heartbeat);
  } catch (const std::bad_alloc&) {
    frame.kind = ChildFrame::Kind::kOom;
    frame.error = "isolated child ran out of memory (bad_alloc)";
  } catch (const std::exception& e) {
    frame.kind = ChildFrame::Kind::kFailed;
    frame.error = e.what();
  } catch (...) {
    frame.kind = ChildFrame::Kind::kFailed;
    frame.error = "isolated child failed with an unknown exception";
  }
  const bool sent = write_all(write_fd, encode_frame(frame));
  heartbeat.set_phase(ChildPhase::kDone);
  // _exit, never exit: the child shares the parent's atexit handlers and
  // global destructors, which must run exactly once — in the parent.
  ::_exit(sent ? 0 : 3);
}

}  // namespace

std::string to_string(ChildPhase phase) {
  switch (phase) {
    case ChildPhase::kSpawned:
      return "spawned";
    case ChildPhase::kRunning:
      return "running";
    case ChildPhase::kReporting:
      return "reporting";
    case ChildPhase::kDone:
      return "done";
  }
  return "unknown";
}

Heartbeat::Heartbeat(void* page) : page_(page) {}

void Heartbeat::set_phase(ChildPhase phase) {
  phase_slot(page_)->store(static_cast<std::uint8_t>(phase),
                           std::memory_order_release);
}

ChildOutcome run_isolated(const IsolationLimits& limits,
                          const std::atomic<bool>* interrupt,
                          const std::function<ChildFrame(Heartbeat&)>& fn) {
  // The heartbeat page is MAP_SHARED so the parent still sees the child's
  // final phase after the child is gone.
  void* page = ::mmap(nullptr, kPageBytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  MOCA_CHECK_MSG(page != MAP_FAILED,
                 "isolation: mmap of the heartbeat page failed (errno "
                     << errno << ")");
  phase_slot(page)->store(static_cast<std::uint8_t>(ChildPhase::kSpawned),
                          std::memory_order_relaxed);

  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) {
    const int err = errno;
    ::munmap(page, kPageBytes);
    MOCA_CHECK_MSG(false, "isolation: pipe failed (errno " << err << ")");
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(fds[0]);
    ::close(fds[1]);
    ::munmap(page, kPageBytes);
    MOCA_CHECK_MSG(false, "isolation: fork failed (errno " << err << ")");
  }
  if (pid == 0) {
    ::close(fds[0]);
    child_main(fds[1], page, limits, fn);  // never returns
  }
  ::close(fds[1]);
  const int read_fd = fds[0];

  const bool has_deadline = limits.deadline_ms > 0.0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             has_deadline ? limits.deadline_ms : 0.0));

  ChildOutcome outcome;
  std::string buf;
  bool frame_complete = false;
  bool frame_malformed = false;
  bool killed_deadline = false;
  bool killed_interrupt = false;

  // Read until EOF, enforcing the deadline and the interrupt flag while
  // the frame is still incomplete. Once the frame is in, the child is one
  // set_phase + _exit away, so enforcement stops (no kill can tear the
  // result any more).
  for (;;) {
    int wait_ms = 100;  // interrupt poll granularity
    if (has_deadline && !frame_complete && !killed_deadline &&
        !killed_interrupt) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      const int left_ms = static_cast<int>(left.count());
      if (left_ms <= 0) {
        ::kill(pid, SIGKILL);
        killed_deadline = true;
      } else if (left_ms < wait_ms) {
        wait_ms = left_ms;
      }
    }
    if (interrupt != nullptr && !frame_complete && !killed_deadline &&
        !killed_interrupt &&
        interrupt->load(std::memory_order_relaxed)) {
      ::kill(pid, SIGKILL);
      killed_interrupt = true;
    }

    pollfd pfd{read_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // poll failure: fall through to waitpid with what we have
    }
    if (ready == 0) continue;  // timeout slice: re-check deadline/interrupt

    char chunk[4096];
    const ssize_t n = ::read(read_fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // EOF: the write end is gone, the child is done
    if (!frame_malformed && !frame_complete) {
      buf.append(chunk, static_cast<std::size_t>(n));
      switch (try_parse_frame(buf, outcome.frame)) {
        case ParseState::kComplete:
          frame_complete = true;
          break;
        case ParseState::kMalformed:
          frame_malformed = true;
          break;
        case ParseState::kNeedMore:
          break;
      }
    }
  }
  ::close(read_fd);

  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  outcome.last_phase = static_cast<ChildPhase>(
      phase_slot(page)->load(std::memory_order_acquire));
  ::munmap(page, kPageBytes);

  if (killed_deadline) {
    outcome.status = ChildOutcome::Status::kDeadline;
    outcome.signal = SIGKILL;
  } else if (killed_interrupt) {
    outcome.status = ChildOutcome::Status::kInterrupted;
    outcome.signal = SIGKILL;
  } else if (WIFSIGNALED(status)) {
    outcome.status = ChildOutcome::Status::kCrashed;
    outcome.signal = WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    outcome.exit_code = WEXITSTATUS(status);
    outcome.status = (outcome.exit_code == 0 && frame_complete)
                         ? ChildOutcome::Status::kDelivered
                         : ChildOutcome::Status::kExited;
  } else {
    outcome.status = ChildOutcome::Status::kExited;
  }
  return outcome;
}

}  // namespace moca::sim
