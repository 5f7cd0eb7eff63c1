#include "ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const auto& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    if (s.thread != p.thread) continue;
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[it->second].emplace_back(lo, hi);
  }

  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t dur =
        spans[i].end_ns > spans[i].start_ns
            ? spans[i].end_ns - spans[i].start_ns
            : 0;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = dur - std::min(dur, covered);
  }
  return self;
}

std::map<std::string, LedgerRow> ledger(const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, LedgerRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& r = rows[spans[i].name];
    ++r.count;
    r.total_ns += spans[i].end_ns - spans[i].start_ns;
    r.self_ns += self[i];
  }
  return rows;
}

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const auto& s : spans) t0 = std::min(t0, s.start_ns);
  std::string out = "{\"traceEvents\":[";
  char buf[320];
  bool first = true;
  for (const auto& s : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, s.name);
    std::snprintf(buf, sizeof buf,
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                  "\"cause\":%llu,\"arg\":%llu}}",
                  s.thread, static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.cause),
                  static_cast<unsigned long long>(s.arg));
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

std::string ledger_json(const std::map<std::string, LedgerRow>& rows) {
  std::string out = "{";
  char buf[160];
  bool first = true;
  for (const auto& [name, r] : rows) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    std::snprintf(buf, sizeof buf,
                  ":{\"count\":%llu,\"total_ms\":%.6f,\"self_ms\":%.6f}",
                  static_cast<unsigned long long>(r.count),
                  static_cast<double>(r.total_ns) / 1e6,
                  static_cast<double>(r.self_ns) / 1e6);
    out += buf;
  }
  out += "}\n";
  return out;
}

int self_check_ledger() {
  int failures = 0;
  const auto expect = [&](const char* what, std::uint64_t got,
                          std::uint64_t want) {
    if (got == want) return;
    std::fprintf(stderr, "ledger self-check: %s: got %llu, want %llu\n",
                 what, static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    ++failures;
  };

  // Parent [0,100) with overlapping children [10,30) and [20,50), and a
  // child [90,120) that runs past the parent's end: the union inside the
  // parent is [10,50) + [90,100) = 50, so the parent's self time is 50.
  // The grandchild [12,18) counts against its own parent only.
  SpanLog log(true, 1);
  const std::uint64_t root = log.open();
  const std::uint64_t a = log.add("child", 10, 30, root);
  log.add("child", 20, 50, root);
  log.add("child", 90, 120, root);
  log.add("grandchild", 12, 18, a);
  log.close(root, "parent", 0, 100);
  // A span whose parent id is unknown is a root; one fully covered by a
  // single child has zero self time.
  log.add("orphan", 5, 25, 999);
  const std::uint64_t full = log.open();
  log.add("cover", 200, 260, full);
  log.close(full, "covered", 210, 250);
  // Cross-thread spans: a wait on thread 2 that encloses the call on
  // thread 1 it waits for, once as a child and once as a caused span.
  // Neither is nested in the call, so the call keeps its whole duration.
  SpanLog other(true, 2);
  const std::uint64_t call = log.open();
  other.add("waiter", 290, 350, call);
  log.close(call, "call", 300, 340);
  const std::uint64_t caused = other.add("waiter", 280, 360);

  std::vector<Span> spans = log.spans();
  for (Span s : other.spans()) {
    if (s.id == caused) s.cause = call;
    spans.push_back(std::move(s));
  }
  const auto self = self_times(spans);
  const auto self_of = [&](const char* name, std::uint64_t start) {
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].name == name && spans[i].start_ns == start) return self[i];
    return ~std::uint64_t{0};
  };
  expect("parent self", self_of("parent", 0), 50);
  expect("child [10,30) self", self_of("child", 10), 14);
  expect("child [20,50) self", self_of("child", 20), 30);
  expect("child past parent end self", self_of("child", 90), 30);
  expect("grandchild self", self_of("grandchild", 12), 6);
  expect("orphan self", self_of("orphan", 5), 20);
  expect("fully covered self", self_of("covered", 210), 0);
  expect("call with cross-thread child self", self_of("call", 300), 40);
  expect("cross-thread child self", self_of("waiter", 290), 60);
  expect("caused span self", self_of("waiter", 280), 80);

  const auto rows = ledger(spans);
  expect("child count", rows.at("child").count, 3);
  expect("child total", rows.at("child").total_ns, 20 + 30 + 30);
  expect("child self", rows.at("child").self_ns, 14 + 30 + 30);

  // A disabled log records nothing and hands out id 0.
  SpanLog off(false, 2);
  expect("disabled id", off.add("x", 0, 1), 0);
  expect("disabled size", off.spans().size(), 0);
  return failures;
}

}  // namespace perfbench
