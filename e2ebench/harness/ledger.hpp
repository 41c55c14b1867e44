// Self-time ledger for the traced runs: spans the benchmark opens around
// its own calls into each layer's public functions, plus per-layer work
// counts recorded at the same boundaries.
//
// A span's self time is its duration minus the part covered by the spans
// opened inside it on the same thread. Self times and counts are summed
// across threads. "Frame" spans (core.pair, serve.request, ...) are the
// roots each thread opens around one unit of work; their self time is the
// benchmark's own glue between layer calls, so
//   busy      = sum of all self times (= sum of root durations)
//   coverage  = (busy - frame self time) / busy
// says how much of the traced busy time the named layers account for.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace e2e {

/// Every span the benchmark opens. Names follow the module directories
/// under src/iotx/ ("<module>.<stage>").
enum class Layer : std::uint8_t {
  kTestbedSynthesize,
  kTestbedUserStudy,
  kFlowIngest,
  kAnalysisDestinations,
  kAnalysisEncryption,
  kAnalysisPiiScan,
  kAnalysisFeatures,
  kAnalysisIdleDetect,
  kAnalysisUncontrolled,
  kMlTrain,
  kCoreTables,
  kReportWrite,
  kCacheLoad,
  kCacheStore,
  kServeHttpParse,
  kServeSession,
  kServeDetect,
  kServeReport,
  // Frames: roots whose self time is unattributed glue.
  kFramePair,
  kFramePhase,
  kFrameRequest,
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

std::string_view layer_name(Layer layer);
bool is_frame(Layer layer);

/// Work counters recorded next to the spans.
enum class Counter : std::uint8_t {
  kSynthCaptures,
  kSynthPackets,
  kIngestPackets,
  kIngestBytes,
  kDestinationFlows,
  kEncryptionFlows,
  kPiiPayloadBytes,
  kPiiFindings,
  kFeatureUnits,
  kTrainTrees,
  kIdleUnits,
  kReportBytes,
  kCacheLoadBytes,
  kCacheStoreBytes,
  kHttpBytes,
  kSessionPackets,
  kDetectUnits,
  kCount,
};

inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);

/// Totals over every thread that recorded into the ledger.
struct LedgerTotals {
  std::array<double, kLayerCount> self_s{};
  std::array<double, kLayerCount> max_span_s{};
  std::array<std::uint64_t, kCounterCount> counts{};

  double busy_s() const;
  double frame_s() const;
  /// Share of busy time inside named layers; 0 when nothing was traced.
  double coverage() const;
  double self_of(Layer layer) const { return self_s[static_cast<std::size_t>(layer)]; }
  std::uint64_t count_of(Counter c) const { return counts[static_cast<std::size_t>(c)]; }
};

/// Global switch and accumulator. Spans are no-ops while tracing is off,
/// so the same benchmark code gives the untraced reference wall time.
void set_tracing(bool on);
bool tracing();
/// Drops everything recorded so far (threads that recorded before may
/// keep running; their next span starts from zero).
void reset_ledger();
LedgerTotals ledger_totals();
void count(Counter counter, std::uint64_t n);

/// CPU time used so far by the whole process (every thread, running or
/// ended) and by the calling thread. Neither counts time spent waiting:
/// for a lock, for I/O, or for a processor the host gave to another guest.
double process_cpu_s();
double thread_cpu_s();

class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
  Layer layer_;
  std::chrono::steady_clock::time_point start_;
  double children_s_ = 0.0;
  Span* parent_ = nullptr;
};

}  // namespace e2e
