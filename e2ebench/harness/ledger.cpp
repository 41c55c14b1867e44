#include "ledger.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace e2e {
namespace {

constexpr std::array<std::string_view, kLayerCount> kLayerNames = {
    "testbed.synthesize", "testbed.user_study",    "flow.ingest",
    "analysis.destinations", "analysis.encryption", "analysis.pii_scan",
    "analysis.features",  "analysis.idle_detect",  "analysis.uncontrolled",
    "ml.train",           "core.tables",           "report.write",
    "cache.load",         "cache.store",           "serve.http_parse",
    "serve.session",      "serve.detect",          "serve.report",
    "core.pair",          "core.phase",            "serve.request",
};

// One per recording thread; owned by the registry so totals survive
// the thread. Only its own thread writes it, and totals are read after
// the recording threads joined.
struct ThreadAccumulator {
  LedgerTotals totals;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadAccumulator>> threads;
};

Registry& registry() {
  static Registry r;
  return r;
}

std::atomic<bool> g_tracing{false};

ThreadAccumulator& local() {
  thread_local ThreadAccumulator* acc = nullptr;
  if (acc == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.threads.push_back(std::make_unique<ThreadAccumulator>());
    acc = r.threads.back().get();
  }
  return *acc;
}

thread_local Span* t_open = nullptr;

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

std::string_view layer_name(Layer layer) {
  return kLayerNames[static_cast<std::size_t>(layer)];
}

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

bool is_frame(Layer layer) { return layer >= Layer::kFramePair; }

double LedgerTotals::busy_s() const {
  double sum = 0.0;
  for (double s : self_s) sum += s;
  return sum;
}

double LedgerTotals::frame_s() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    if (is_frame(static_cast<Layer>(i))) sum += self_s[i];
  }
  return sum;
}

double LedgerTotals::coverage() const {
  const double busy = busy_s();
  return busy > 0.0 ? (busy - frame_s()) / busy : 0.0;
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

void reset_ledger() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& t : r.threads) t->totals = LedgerTotals{};
}

LedgerTotals ledger_totals() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  LedgerTotals sum;
  for (const auto& t : r.threads) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      sum.self_s[i] += t->totals.self_s[i];
      sum.max_span_s[i] = std::max(sum.max_span_s[i], t->totals.max_span_s[i]);
    }
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      sum.counts[i] += t->totals.counts[i];
    }
  }
  return sum;
}

void count(Counter counter, std::uint64_t n) {
  if (!tracing()) return;
  local().totals.counts[static_cast<std::size_t>(counter)] += n;
}

Span::Span(Layer layer) : active_(tracing()), layer_(layer) {
  if (!active_) return;
  parent_ = t_open;
  t_open = this;
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!active_) return;
  const double dur =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  t_open = parent_;
  if (parent_ != nullptr) parent_->children_s_ += dur;
  LedgerTotals& t = local().totals;
  const auto i = static_cast<std::size_t>(layer_);
  t.self_s[i] += std::max(0.0, dur - children_s_);
  t.max_span_s[i] = std::max(t.max_span_s[i], dur);
}

}  // namespace e2e
