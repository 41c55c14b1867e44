// The serve side of the benchmark: tenants with trained detection
// models, a seeded upload pool, an open-loop load generator against an
// in-process serve::Daemon, the fixed rate ladder, and the traced
// in-process replay of the same requests through the serve layers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "iotx/serve/daemon.hpp"

namespace e2e {

struct ServeUpload {
  std::size_t tenant = 0;
  bool long_window = false;  ///< the idle experiment (vs power/interaction)
  std::vector<std::uint8_t> pcap;
  std::vector<std::uint8_t> request;  ///< the chunked HTTP request bytes
};

struct ServeSetup {
  std::vector<std::string> tenants;                // device ids
  std::vector<std::vector<std::uint8_t>> models;   // DetectorModel bytes
  std::vector<ServeUpload> pool;
};

/// Trains one detector per tenant (the `iotx train-detector` recipe) and
/// synthesizes the fixed upload pool: each tenant's campaign schedule.
/// `smoke` shrinks the schedule.
ServeSetup make_serve_setup(bool smoke);

struct Request {
  bool report = false;      ///< GET /report/<tenant> instead of an upload
  std::size_t tenant = 0;
  std::size_t upload = 0;   ///< index into ServeSetup::pool
};

/// Whole seeded passes over the pool, at least `uploads` uploads: each
/// tenant's uploads in schedule order, then its report read; the seed
/// interleaves the tenants.
std::vector<Request> make_schedule(const ServeSetup& setup, std::uint64_t seed,
                                   std::size_t uploads);

/// Latency limit on upload p99 for the ladder.
inline constexpr double kUploadLimitMs = 50.0;

/// A daemon with every tenant's model installed; null on failure.
std::unique_ptr<iotx::serve::Daemon> start_daemon(const ServeSetup& setup,
                                                  std::size_t max_sessions);

struct LoadResult {
  std::vector<double> upload_ms;  ///< due -> 200 response; failures = inf
  std::vector<double> report_ms;
  std::vector<double> late_ms;    ///< due -> send start, every request
  std::uint64_t upload_failures = 0;
  std::uint64_t report_failures = 0;
  /// Mean generator lateness (due -> send start) of the uploads in the
  /// first and last tenth of the schedule; a growing backlog shows here.
  double first_tenth_ms = 0.0;
  double last_tenth_ms = 0.0;
  bool backlog_grew() const;
};

/// Sends `schedule` open loop at `upload_rate` uploads/s (requests spaced
/// evenly) over `connections` client connections.
LoadResult run_open_loop(std::uint16_t port, const ServeSetup& setup,
                         const std::vector<Request>& schedule,
                         double upload_rate, std::size_t connections);

/// The ladder rungs, uploads/s, 5% apart.
std::vector<double> ladder_rates();

struct ReplayResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;             ///< process CPU time, every thread
  std::vector<double> upload_ms;  ///< per upload, in schedule order
};

/// Replays `schedule` through HttpHeadParser, ChunkedDecoder,
/// IngestSession, run_detector and TenantState on `jobs` threads,
/// closed loop. Spans land in the ledger when tracing is on.
ReplayResult replay(const ServeSetup& setup, const std::vector<Request>& schedule,
                    std::size_t jobs);

/// Quantile by the nearest-rank rule over a copy of `values`.
double quantile(std::vector<double> values, double q);
/// The highest percentile that leaves at least ten samples beyond it,
/// clamped to [0.5, 0.99].
double tail_quantile(std::size_t samples);

}  // namespace e2e
