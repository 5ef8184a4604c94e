#include "trace/trace.h"

#include <array>
#include <cstring>

#include "common/check.h"
#include "common/fault_injection.h"

namespace moca::trace {

namespace {

void put_u32(char* dst, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) dst[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}
void put_u64(char* dst, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) dst[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}
std::uint32_t get_u32(const char* src) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(src[i]))
         << (8 * i);
  }
  return v;
}
std::uint64_t get_u64(const char* src) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(src[i]))
         << (8 * i);
  }
  return v;
}

constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 8;  // magic + count

}  // namespace

TraceWriter::TraceWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc) {
  MOCA_CHECK_MSG(out_.good(), "cannot open trace file for writing: " << path);
  out_.write(kMagic, sizeof(kMagic));
  char zeros[8] = {};
  out_.write(zeros, sizeof(zeros));  // count placeholder
}

TraceWriter::~TraceWriter() {
  if (!closed_) close();
}

void TraceWriter::append(const cpu::MicroOp& op) {
  MOCA_CHECK(!closed_);
  std::array<char, kRecordBytes> buffer{};
  buffer[0] = static_cast<char>(op.kind);
  buffer[1] = static_cast<char>(op.latency);
  put_u32(&buffer[2], op.dep1);
  put_u64(&buffer[6], op.vaddr);
  put_u64(&buffer[14], op.object);
  out_.write(buffer.data(), buffer.size());
  ++count_;
}

void TraceWriter::close() {
  if (closed_) return;
  closed_ = true;
  out_.seekp(sizeof(kMagic));
  char counted[8];
  put_u64(counted, count_);
  out_.write(counted, sizeof(counted));
  out_.close();
  MOCA_CHECK_MSG(out_.good(), "trace write failed");
}

TraceReader::TraceReader(const std::string& path)
    : file_(path, std::ios::binary), in_(&file_) {
  MOCA_CHECK_MSG(file_.good(), "cannot open trace file: " << path);
  read_header(path);
}

TraceReader::TraceReader(std::istream& in) : in_(&in) {
  read_header("<stream>");
}

void TraceReader::read_header(const std::string& source) {
  char magic[sizeof(kMagic)];
  in_->read(magic, sizeof(magic));
  MOCA_CHECK_MSG(
      in_->good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
      "not a MOCA trace file: " << source);
  char counted[8];
  in_->read(counted, sizeof(counted));
  MOCA_CHECK(in_->good());
  count_ = get_u64(counted);
}

bool TraceReader::next(cpu::MicroOp& op) {
  if (read_ >= count_) return false;
  std::array<char, kRecordBytes> buffer{};
  in_->read(buffer.data(), buffer.size());
  MOCA_CHECK_MSG(in_->good(), "truncated trace file");
  const auto kind = static_cast<unsigned char>(buffer[0]);
  MOCA_CHECK_MSG(kind <= static_cast<unsigned char>(cpu::OpKind::kStore),
                 "trace record " << read_ << ": invalid op kind "
                                 << static_cast<unsigned>(kind));
  op = cpu::MicroOp{};
  op.kind = static_cast<cpu::OpKind>(kind);
  op.latency = static_cast<std::uint8_t>(buffer[1]);
  op.dep1 = get_u32(&buffer[2]);
  op.vaddr = get_u64(&buffer[6]);
  op.object = get_u64(&buffer[14]);
  ++read_;
  return true;
}

void TraceReader::rewind() {
  in_->clear();
  in_->seekg(kHeaderBytes);
  read_ = 0;
}

void ReplayStream::wrap() {
  reader_.rewind();
  index_ = 0;
  ++wraps_;
}

cpu::MicroOp ReplayStream::next() {
  if (injector_ != nullptr) {
    switch (injector_->trace_fault(index_)) {
      case FaultInjector::TraceFault::kCorrupt:
        throw RetryableError("fault injection: trace record " +
                             std::to_string(index_) + " corrupted");
      case FaultInjector::TraceFault::kTruncate:
        wrap();
        break;
      case FaultInjector::TraceFault::kNone:
        break;
    }
  }
  cpu::MicroOp op;
  if (!reader_.next(op)) {
    wrap();
    MOCA_CHECK_MSG(reader_.next(op), "replaying an empty trace");
  }
  ++index_;
  return op;
}

}  // namespace moca::trace
