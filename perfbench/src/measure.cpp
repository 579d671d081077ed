#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <map>

namespace perfbench {

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double QError(double estimated, double actual) {
  const double e = std::max(estimated, 1.0);
  const double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rng::Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

double Rng::Unit() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

Rng Rng::Fork(uint64_t purpose) const {
  Rng mixer(state_ ^ (purpose * 0xd1b54a32d192ed03ULL));
  return Rng(mixer.Next());
}

std::vector<int> Permutation(int n, Rng* rng) {
  std::vector<int> p(n);
  for (int i = 0; i < n; ++i) p[i] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(p[i], p[rng->Below(static_cast<uint64_t>(i) + 1)]);
  }
  return p;
}

Zipf::Zipf(int n, double s) : cdf_(n) {
  double sum = 0;
  for (int k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(k + 1, s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

int Zipf::Draw(Rng* rng) const {
  const double u = rng->Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(
      std::min<ptrdiff_t>(it - cdf_.begin(), cdf_.size() - 1));
}

uint64_t Digest(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

ProcUsage ReadProcUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.cpu_ms = (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
             (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

double HostReferenceMs() {
  const auto start = Clock::now();
  volatile uint64_t sink = 0;
  Rng rng(12345);
  uint64_t acc = 0;
  for (int i = 0; i < 4'000'000; ++i) acc += rng.Next() >> 60;
  sink = acc;
  (void)sink;
  return Seconds(start, Clock::now()) * 1e3;
}

int64_t SpanLog::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int SpanLog::Begin(const char* name, const char* layer, int64_t request) {
  SpanRecord s;
  s.name = name;
  s.layer = layer;
  s.request = request;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = Now();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::End(int index) {
  spans_[index].end_ns = Now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::Add(const char* name, const char* layer, int64_t request,
                  int64_t start_ns, int64_t end_ns, int parent) {
  SpanRecord s;
  s.name = name;
  s.layer = layer;
  s.request = request;
  s.parent = parent;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
}

std::vector<int64_t> SpanLog::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = Duration(i);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  for (int64_t& t : self) t = std::max<int64_t>(t, 0);
  return self;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::map<std::string, int> names;
  std::map<std::string, int> layers;
  auto intern = [](std::map<std::string, int>* table, const char* text) {
    return table->emplace(text, static_cast<int>(table->size())).first->second;
  };
  auto list = [&out](const std::map<std::string, int>& table) {
    std::vector<const std::string*> by_index(table.size());
    for (const auto& [text, index] : table) by_index[index] = &text;
    for (size_t i = 0; i < by_index.size(); ++i) {
      out << (i ? ", " : "") << '"' << *by_index[i] << '"';
    }
  };
  const std::vector<int64_t> self = SelfTimes();
  std::string rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    rows += (i ? ",\n  [" : "\n  [") + std::to_string(intern(&names, s.name)) +
            "," + std::to_string(intern(&layers, s.layer)) + "," +
            std::to_string(s.request) + "," + std::to_string(s.parent) + "," +
            std::to_string(s.start_ns) + "," + std::to_string(s.end_ns) + "," +
            std::to_string(self[i]) + "]";
  }
  out << "{\"columns\": [\"name\", \"layer\", \"request\", \"parent\", "
         "\"start_ns\", \"end_ns\", \"self_ns\"],\n\"names\": [";
  list(names);
  out << "],\n\"layers\": [";
  list(layers);
  out << "],\n\"spans\": [" << rows << "\n]}\n";
  return static_cast<bool>(out);
}

std::string NumberText(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

}  // namespace perfbench
