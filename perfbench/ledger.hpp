// Bench-side spans and the self-time ledger built from them.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions (feed, rotate_live, wait_epoch, query_live, the
// single-layer replays); the library's own tracer stays unstarted. Each
// recording thread owns a SpanLog, so recording takes no lock; the logs
// are merged when the run ends and written as Chrome trace JSON plus a
// ledger of self times.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< id of the enclosing span; 0 = root
  /// id of a span on another thread that caused this one (a link for the
  /// trace viewer; it never counts against the cause's self time).
  std::uint64_t cause = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;
  std::uint64_t arg = 0;  ///< packets, epoch seq or query index
};

/// One thread's spans. A disabled log records nothing and hands out id 0,
/// so the timed runs pay one branch per call site.
class SpanLog {
 public:
  SpanLog(bool enabled, std::uint32_t thread)
      : enabled_(enabled), thread_(thread) {}

  /// Record a finished span; returns its id (0 when disabled).
  std::uint64_t add(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t parent = 0,
                    std::uint64_t arg = 0) {
    if (!enabled_) return 0;
    const std::uint64_t id = (std::uint64_t{thread_} << 40) | ++next_;
    spans_.push_back(
        Span{name, id, parent, 0, start_ns, end_ns, thread_, arg});
    return id;
  }
  /// Reserve an id for a span whose end is not known yet (a parent).
  std::uint64_t open() {
    return enabled_ ? (std::uint64_t{thread_} << 40) | ++next_ : 0;
  }
  void close(std::uint64_t id, const char* name, std::uint64_t start_ns,
             std::uint64_t end_ns, std::uint64_t parent = 0,
             std::uint64_t arg = 0) {
    if (enabled_)
      spans_.push_back(
          Span{name, id, parent, 0, start_ns, end_ns, thread_, arg});
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  bool enabled_;
  std::uint32_t thread_;
  std::uint64_t next_ = 0;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children clipped to the parent).
/// Only children on the parent's own thread count: a span on another
/// thread runs beside its parent, not inside it. Indexed like `spans`.
[[nodiscard]] std::vector<std::uint64_t> self_times(
    const std::vector<Span>& spans);

struct LedgerRow {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Per span name: count, summed duration and summed self time.
[[nodiscard]] std::map<std::string, LedgerRow> ledger(
    const std::vector<Span>& spans);

/// Chrome trace-event JSON ("ph": "X" complete events, microseconds).
[[nodiscard]] std::string chrome_trace_json(const std::vector<Span>& spans);

/// The ledger as a JSON object keyed by span name.
[[nodiscard]] std::string ledger_json(
    const std::map<std::string, LedgerRow>& rows);

/// Checks of the self-time arithmetic on hand-built spans; returns the
/// number of failed checks and prints each failure to stderr.
int self_check_ledger();

}  // namespace perfbench
