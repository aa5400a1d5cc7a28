#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "perf.hpp"

namespace srm_perf {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

void Outcome::violate(const std::string& what) {
  constexpr std::size_t kKept = 20;
  if (violations.size() < kKept) {
    violations.push_back(what);
  } else if (violations.size() == kKept) {
    violations.push_back("(further violations omitted)");
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double weight = position - static_cast<double>(lower);
  return values[lower] + weight * (values[upper] - values[lower]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double geometric_mean(std::span<const double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double log_sum = 0.0;
  for (const double value : values) log_sum += std::log(value);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so a child of a large parent would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --- tracing --------------------------------------------------------------

namespace {

std::unique_ptr<Tracer>& tracer_slot() {
  static std::unique_ptr<Tracer> instance;
  return instance;
}

/// Innermost open span on this thread (the parent of the next one).
thread_local std::int64_t open_span = -1;

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

Tracer* tracer() { return tracer_slot().get(); }

void enable_tracing() {
  if (!tracer_slot()) tracer_slot() = std::make_unique<Tracer>();
}

std::int64_t Tracer::begin(std::string name, std::uint64_t id) {
  const std::int64_t start = now_ns();
  std::lock_guard lock(mutex_);
  spans_.push_back(Span{std::move(name), start, start, open_span, id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t index) {
  const std::int64_t end = now_ns();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::int64_t Tracer::add(std::string name, std::int64_t start_ns,
                         std::int64_t end_ns, std::int64_t parent,
                         std::uint64_t id) {
  std::lock_guard lock(mutex_);
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard lock(mutex_);
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const auto& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_layer[layer_of(spans_[i].name)] +=
        static_cast<double>(std::max<std::int64_t>(self[i], 0)) * 1e-9;
  }
  return by_layer;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

void Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (const auto& span : spans_) {
    Json line = Json::Object{};
    line.set("name", span.name);
    line.set("start_us", static_cast<double>(span.start_ns) * 1e-3);
    line.set("end_us", static_cast<double>(span.end_ns) * 1e-3);
    line.set("parent", span.parent);
    line.set("id", Json::from_unsigned(span.id));
    out << line.dump() << '\n';
  }
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t id)
    : parent_(open_span) {
  if (Tracer* t = tracer(); t != nullptr) {
    index_ = t->begin(name, id);
    open_span = index_;
  }
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  tracer()->end(index_);
  open_span = parent_;
}

}  // namespace srm_perf
