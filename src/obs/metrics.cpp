#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/json_writer.hpp"

namespace defender::obs {

namespace {

/// Empty or non-increasing bounds would silently misbucket every
/// observation; fall back to a single-bound histogram instead.
std::vector<double> sanitized_bounds(std::vector<double> bounds) {
  for (std::size_t i = 1; i < bounds.size(); ++i)
    if (!(bounds[i - 1] < bounds[i])) bounds.clear();
  if (bounds.empty()) bounds = {1.0};
  return bounds;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(sanitized_bounds(std::move(bounds))),
      buckets_(bounds_.size() + 1) {}

const std::vector<double>& Histogram::default_latency_ms_bounds() {
  static const std::vector<double> kBounds = {
      0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
      100.0, 300.0, 1000.0, 3000.0, 10000.0};
  return kBounds;
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // CAS accumulation: portable where atomic<double>::fetch_add is not.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

std::uint64_t Histogram::cumulative_count(std::size_t i) const {
  std::uint64_t total = 0;
  const std::size_t last = std::min(i, bounds_.size());
  for (std::size_t b = 0; b <= last; ++b)
    total += buckets_[b].load(std::memory_order_relaxed);
  return total;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(bounds);
  return *slot;
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kCounter;
    s.name = name;
    s.count = c->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kGauge;
    s.name = name;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSnapshot s;
    s.kind = MetricSnapshot::Kind::kHistogram;
    s.name = name;
    s.count = h->count();
    s.value = h->sum();
    s.bucket_bounds = h->bounds();
    s.bucket_counts.reserve(s.bucket_bounds.size() + 1);
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i <= s.bucket_bounds.size(); ++i) {
      const std::uint64_t cum = h->cumulative_count(i);
      s.bucket_counts.push_back(cum - prev);
      prev = cum;
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::string MetricsRegistry::to_json() const {
  const std::vector<MetricSnapshot> snap = snapshot();
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& s : snap) {
    if (s.kind != MetricSnapshot::Kind::kCounter) continue;
    if (!first) out << ',';
    first = false;
    out << '"' << util::json_escape(s.name) << "\":" << s.count;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& s : snap) {
    if (s.kind != MetricSnapshot::Kind::kGauge) continue;
    if (!first) out << ',';
    first = false;
    out << '"' << util::json_escape(s.name)
        << "\":" << util::json_number(s.value);
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& s : snap) {
    if (s.kind != MetricSnapshot::Kind::kHistogram) continue;
    if (!first) out << ',';
    first = false;
    out << '"' << util::json_escape(s.name) << "\":{\"count\":" << s.count
        << ",\"sum\":" << util::json_number(s.value) << ",\"buckets\":[";
    for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
      if (i) out << ',';
      out << "{\"le\":";
      if (i < s.bucket_bounds.size())
        out << util::json_number(s.bucket_bounds[i]);
      else
        out << "\"+Inf\"";
      out << ",\"count\":" << s.bucket_counts[i] << '}';
    }
    out << "]}";
  }
  out << "}}";
  return out.str();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace defender::obs
