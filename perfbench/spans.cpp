// Span log, clocks and seed derivation.
#include <ctime>

#include <algorithm>
#include <cstdio>
#include <map>

#include "perfbench.hpp"

namespace perfbench {

namespace {

double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double wall_now() { return clock_seconds(CLOCK_MONOTONIC); }
double thread_cpu() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

SpanLog& SpanLog::get() {
  static SpanLog log;
  return log;
}

int SpanLog::begin(const char* name) {
  const double now = wall_now();
  records_.push_back(Record{name, now, now, current_});
  current_ = static_cast<int>(records_.size() - 1);
  return current_;
}

void SpanLog::end(int index) {
  Record& r = records_[static_cast<std::size_t>(index)];
  r.end = wall_now();
  current_ = r.parent;
}

void SpanLog::write_chrome_json(std::ostream& out) const {
  const double origin = records_.empty() ? 0.0 : records_.front().start;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", r.name, (r.start - origin) * 1e6,
                  (r.end - r.start) * 1e6, i, r.parent);
    out << buf;
  }
  out << "\n]}\n";
}

std::vector<SpanLog::SelfTime> SpanLog::self_times() const {
  std::vector<double> child(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child[static_cast<std::size_t>(r.parent)] += r.end - r.start;
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    SelfTime& s = by_name[r.name];
    s.name = r.name;
    ++s.count;
    s.total_ms += (r.end - r.start) * 1e3;
    s.self_ms += (r.end - r.start - child[i]) * 1e3;
  }
  std::vector<SelfTime> out;
  for (auto& [name, s] : by_name) out.push_back(s);
  std::sort(out.begin(), out.end(),
            [](const SelfTime& a, const SelfTime& b) { return a.self_ms > b.self_ms; });
  return out;
}

double SpanLog::mean_ms(const std::string& name) const {
  for (const SelfTime& s : self_times()) {
    if (s.name == name) return s.total_ms / static_cast<double>(s.count);
  }
  return 0.0;
}

}  // namespace perfbench
