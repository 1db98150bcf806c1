// Statistics and the benchmark's own span log.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * double(v.size() - 1);
  const size_t lo = size_t(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

int SpanLog::begin(std::string name, long req, int parent) {
  if (parent == kInnermost) parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), now_ns(), 0, parent, req});
  open_.push_back(int(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::end(int id) {
  spans_[size_t(id)].end_ns = now_ns();
  auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

std::vector<SpanLog::Totals> SpanLog::totals() const {
  // Children's intervals per parent, merged so that overlapping children
  // are not subtracted twice.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0) kids[size_t(s.parent)].push_back({s.start_ns, s.end_ns});

  std::map<std::string, Totals> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    Totals& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_s += seconds_between(s.start_ns, s.end_ns);
    t.self_s += seconds_between(s.start_ns, s.end_ns) - double(covered) * 1e-9;
  }
  std::vector<Totals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write span file " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  f << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
      << ",\"ts\":" << double(s.start_ns - t0) / 1e3
      << ",\"dur\":" << double(s.end_ns - s.start_ns) / 1e3 << ",\"args\":{\"id\":" << i
      << ",\"parent\":" << s.parent << ",\"req\":" << s.req << "}}";
  }
  f << "\n]}\n";
  if (!f) throw std::runtime_error("failed writing span file " + path);
}

}  // namespace perfbench
