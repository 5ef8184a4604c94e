// Minimal JSON emitter (no external dependencies) for machine-readable
// reports from the CLI and benches.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"

namespace moca {

/// Streaming JSON writer with automatic comma/nesting management.
/// Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("name").value("mcf");
///   w.key("stats").begin_array(); w.value(1); w.value(2); w.end_array();
///   w.end_object();
///   std::string out = w.str();
class JsonWriter {
 public:
  JsonWriter& begin_object() {
    prefix();
    out_ << '{';
    stack_.push_back(State::kFirstInObject);
    return *this;
  }
  JsonWriter& end_object() {
    MOCA_CHECK(!stack_.empty() && in_object());
    out_ << '}';
    stack_.pop_back();
    return *this;
  }
  JsonWriter& begin_array() {
    prefix();
    out_ << '[';
    stack_.push_back(State::kFirstInArray);
    return *this;
  }
  JsonWriter& end_array() {
    MOCA_CHECK(!stack_.empty() && !in_object());
    out_ << ']';
    stack_.pop_back();
    return *this;
  }

  JsonWriter& key(const std::string& name) {
    MOCA_CHECK_MSG(in_object(), "key() outside object");
    comma();
    write_string(name);
    out_ << ':';
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(const std::string& v) {
    prefix();
    write_string(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(double v) {
    prefix();
    out_ << v;
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    prefix();
    out_ << v;
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    prefix();
    out_ << v;
    return *this;
  }
  JsonWriter& value(bool v) {
    prefix();
    out_ << (v ? "true" : "false");
    return *this;
  }
  /// Emits `literal` unquoted; the caller guarantees it is a JSON number.
  JsonWriter& number(const std::string& literal) {
    prefix();
    out_ << literal;
    return *this;
  }

  /// Final document; all scopes must be closed.
  [[nodiscard]] std::string str() const {
    MOCA_CHECK_MSG(stack_.empty(), "unclosed JSON scope");
    return out_.str();
  }

 private:
  enum class State { kFirstInObject, kInObject, kFirstInArray, kInArray };

  [[nodiscard]] bool in_object() const {
    return !stack_.empty() && (stack_.back() == State::kFirstInObject ||
                               stack_.back() == State::kInObject);
  }

  void comma() {
    if (stack_.empty()) return;
    State& s = stack_.back();
    if (s == State::kInObject || s == State::kInArray) {
      out_ << ',';
    } else {
      s = s == State::kFirstInObject ? State::kInObject : State::kInArray;
    }
  }

  /// Emits separators before a value: nothing after key(), comma handling
  /// inside arrays, error for bare values inside objects.
  void prefix() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    MOCA_CHECK_MSG(stack_.empty() || !in_object(),
                   "value without key inside object");
    comma();
  }

  void write_string(const std::string& s) {
    out_ << '"';
    for (const char c : s) {
      switch (c) {
        case '"':
          out_ << "\\\"";
          break;
        case '\\':
          out_ << "\\\\";
          break;
        case '\n':
          out_ << "\\n";
          break;
        case '\t':
          out_ << "\\t";
          break;
        case '\r':
          out_ << "\\r";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ << buf;
          } else {
            out_ << c;
          }
      }
    }
    out_ << '"';
  }

  std::ostringstream out_;
  std::vector<State> stack_;
  bool pending_value_ = false;
};

}  // namespace moca
