// In-memory spans recorded around the benchmark's calls into each layer.
#include <cstdio>
#include <map>
#include <stdexcept>

#include "bench.hpp"
#include "src/obs/obs.hpp"

namespace perfbench {

std::int64_t SpanLog::open(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, nsc::obs::now_ns(), 0, parent, request});
  stack_.push_back(static_cast<std::int64_t>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(std::int64_t idx) {
  if (idx < 0) return;
  spans_[static_cast<std::size_t>(idx)].t1 = nsc::obs::now_ns();
  stack_.pop_back();
}

std::vector<std::pair<std::string, double>> self_times_ns(const SpanLog& log) {
  std::map<std::string, double> self;
  const auto& spans = log.spans();
  for (const SpanLog::Span& s : spans) self[s.name] += static_cast<double>(s.t1 - s.t0);
  // Children nest inside their parent, so subtracting each child's duration
  // from its parent leaves the uncovered part.
  for (const SpanLog::Span& s : spans) {
    if (s.parent >= 0) {
      self[spans[static_cast<std::size_t>(s.parent)].name] -= static_cast<double>(s.t1 - s.t0);
    }
  }
  return {self.begin(), self.end()};
}

void write_chrome_trace(const std::string& path, const SpanLog& log) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (const SpanLog::Span& s : log.spans()) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"request\":%llu,\"parent\":%lld}}",
                 first ? "" : ",\n", s.name, 1e-3 * static_cast<double>(s.t0),
                 1e-3 * static_cast<double>(s.t1 - s.t0),
                 static_cast<unsigned long long>(s.request), static_cast<long long>(s.parent));
    first = false;
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("short write to " + path);
}

}  // namespace perfbench
