#include "fault/fault.hpp"

#include <limits>
#include <sstream>

#include "obs/clock.hpp"
#include "util/record.hpp"

namespace defender::fault {

namespace {

/// SplitMix64 finalizer — the same mixer util::Rng seeds through. Full
/// 64-bit avalanche, so consecutive counters decorrelate completely.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic draw for (seed, stream, counter). `stream` separates the
/// fire decision stream from the aux stream per site.
std::uint64_t draw(std::uint64_t seed, std::uint64_t stream,
                   std::uint64_t counter) {
  return mix64(seed ^ mix64((stream << 32) ^ counter));
}

/// Uniform [0, 1) from the top 53 bits of a draw.
double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

bool FaultContext::scheduled(const FaultPlan& plan, FaultSite site,
                             std::uint64_t evaluation) {
  const auto i = static_cast<std::size_t>(site);
  const double r = plan.rate[i];
  if (r <= 0) return false;
  return to_unit(draw(plan.seed, i, evaluation)) < r;
}

std::uint64_t FaultContext::scheduled_aux(const FaultPlan& plan,
                                          FaultSite site,
                                          std::uint64_t evaluation) {
  const auto i = static_cast<std::size_t>(site);
  return draw(plan.seed, kFaultSiteCount + i, evaluation);
}

bool FaultContext::fires(FaultSite site) {
  const auto i = static_cast<std::size_t>(site);
  const std::uint64_t n = evals_[i]++;
  if (!scheduled(plan_, site, n)) return false;
  ++fires_[i];
  return true;
}

std::uint64_t FaultContext::aux(FaultSite site) {
  const auto i = static_cast<std::size_t>(site);
  const std::uint64_t n = aux_[i]++;
  return scheduled_aux(plan_, site, n);
}

std::string FaultContext::summary() const {
  std::ostringstream os;
  os << "fault-context seed=" << plan_.seed
     << " injected=" << total_injected();
  for (FaultSite s : kAllFaultSites) {
    const auto i = static_cast<std::size_t>(s);
    if (evals_[i] == 0) continue;
    os << ' ' << to_string(s) << '=' << fires_[i] << '/' << evals_[i];
  }
  return os.str();
}

std::string FaultPlan::to_text() const {
  util::RecordWriter w;
  w.header("fault-plan", 1).line("seed", seed);
  for (FaultSite s : kAllFaultSites) w.line("rate", to_string(s), rate_of(s));
  w.line("end");
  return w.take();
}

Solved<FaultPlan> FaultPlan::try_parse(const std::string& text) {
  // Directives come in any order, and omitted sites default to rate 0 —
  // a valid sparse plan; blank lines keep hand-edited plans parseable.
  return util::read_record<FaultPlan>(
      text, "fault plan", [](util::RecordReader& r, FaultPlan& plan) {
        if (!r.header("fault-plan", 1)) return false;
        bool saw_seed = false;
        while (r.next()) {
          if (r.at("end"))
            return r.done() && (saw_seed || r.fail("missing 'seed' line"));
          if (r.at("seed <n>")) {
            if (!r.count(&plan.seed,
                         std::numeric_limits<std::uint64_t>::max()) ||
                !r.done())
              return false;
            saw_seed = true;
            continue;
          }
          FaultSite site{};
          double rate = 0;
          if (r.at("rate <site> <probability in [0, 1]>")) {
            if (!r.name(&site, try_parse_fault_site) || !r.number(&rate) ||
                !r.check(rate >= 0.0 && rate <= 1.0) || !r.done())
              return false;
            plan.rate_of(site) = rate;
            continue;
          }
          std::string_view key;
          r.token(&key);
          return r.fail("unknown directive: " + std::string(key));
        }
        return r.fail_at(r.line_no() + 1, "missing 'end' trailer");
      });
}

void perturb_clock(FaultContext* fault) {
  if (fault == nullptr) return;
  if (fault->fires(FaultSite::kClockSkew)) {
    // Backward skew of 1–50 ms: large enough that an unguarded clock would
    // hand out decreasing ticks and negative durations.
    const std::int64_t us =
        1000 + static_cast<std::int64_t>(
                   fault->aux(FaultSite::kClockSkew) % 49001);
    obs::Clock::inject_skew_micros(-us);
  }
  if (fault->fires(FaultSite::kDeadlineStarve)) {
    // Forward jump of 1–5 s: past any deadline the harness sets, forcing
    // the kDeadlineExceeded degradation path.
    const std::int64_t us =
        1'000'000 *
        (1 + static_cast<std::int64_t>(
                 fault->aux(FaultSite::kDeadlineStarve) % 5));
    obs::Clock::inject_skew_micros(us);
  }
}

}  // namespace defender::fault
