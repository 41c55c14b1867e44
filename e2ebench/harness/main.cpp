// iotx_e2e: the repository's end-to-end benchmark.
//
//   iotx_e2e --workload <study_cold|study_warm|serve_stream> --seed <n>
//            --seconds <s> --trace <0|1> --work-dir <dir>
//            --reference-dir <dir> [--commit <id>] [--smoke] [--setup-sample]
//
// --trace 0 measures the end-to-end metrics with every ledger span off;
// --trace 1 runs the workload's traced counterpart and reports the
// per-layer self-time ledger. Every report the program writes is checked
// against the reference digests in --reference-dir. The last stdout line
// is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// See e2ebench/README.md for the workloads and metric definitions.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "iotx/cache/hash.hpp"
#include "iotx/core/tables.hpp"
#include "iotx/obs/registry.hpp"
#include "iotx/report/report.hpp"
#include "iotx/serve/chaos.hpp"
#include "iotx/serve/daemon.hpp"
#include "iotx/util/simd.hpp"
#include "ledger.hpp"
#include "serve_load.hpp"
#include "study_layers.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace iotx;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// Serve workload sizing: the fewest uploads at the fixed rate and per
// ladder probe, rounded up to whole passes over the pool. Both leave at
// least ten uploads above p99.
constexpr std::size_t kFixedUploads = 1440;
constexpr std::size_t kProbeUploads = 1080;
constexpr std::size_t kSmokeUploads = 60;
/// The fixed open-loop rate of serve_stream, uploads/s.
constexpr double kFixedRate = 800.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool setup_sample = false;  ///< print one set-up sample and exit
  std::string work_dir;
  std::string reference_dir;
  std::string commit = "unknown";
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return e2e::quantile(std::move(v), 0.5); }

/// Result of one run: the contract's four keys.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// One correctness check; a failure counts in `failed`.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      std::printf("check failed: %s\n", what.c_str());
    }
  }
  void ops(std::uint64_t attempted_ops, std::uint64_t failed_ops) {
    attempted += attempted_ops;
    failed += failed_ops;
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, r.attempted));
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + json_number(vu.first) +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Peak resident memory of the process so far.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void print_fingerprint(const Options& opt, std::size_t jobs) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf(
      "fingerprint {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"cores\": %u, \"jobs\": %zu, \"simd\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"commit\": \"%s\", \"optimized\": %s, "
      "\"sanitizer\": %s, \"comparable\": %s}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, std::thread::hardware_concurrency(), jobs,
      simd::active_level(), E2E_BUILD_TYPE, __VERSION__, opt.commit.c_str(),
      optimized ? "true" : "false", sanitized ? "true" : "false",
      optimized && !sanitized ? "true" : "false");
}

std::vector<std::string> smoke_devices() { return {"ring_doorbell", "echo_dot"}; }

// --- reference digests ----------------------------------------------------

std::string sha256_hex(const std::string& bytes) {
  cache::Sha256 h;
  h.update(bytes);
  return cache::Sha256::hex(h.finish());
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A reference file in `sha256sum` format ("<hex>  <name>" per line),
/// e2ebench/reference/<name>.sha256, or <name>.smoke.sha256 in smoke mode.
std::map<std::string, std::string> load_reference(const Options& opt,
                                                  const std::string& name) {
  const std::string file = name + (opt.smoke ? ".smoke" : "") + ".sha256";
  std::istringstream in(read_file(fs::path(opt.reference_dir) / file));
  std::map<std::string, std::string> digests;
  std::string hex, entry;
  while (in >> hex >> entry) digests[entry] = hex;
  return digests;
}

/// Checks that a report directory holds exactly the reference's files,
/// each with its reference digest; prints the digest of every file that
/// differs.
void check_reference(Result& r, const Options& opt, const std::string& dir,
                     const std::string& what) {
  const std::map<std::string, std::string> want = load_reference(opt, "study_report");
  std::map<std::string, std::string> got;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    got[entry.path().filename().string()] = sha256_hex(read_file(entry.path()));
  }
  for (const auto& [name, hex] : got) {
    const auto it = want.find(name);
    if (it == want.end() || it->second != hex) {
      std::printf("report digest %s  %s\n", hex.c_str(), name.c_str());
    }
  }
  r.check(!want.empty() && got == want, what + " matches the reference digests");
}

// --- ledger output ------------------------------------------------------

/// The share of traced busy time the named layers must account for.
constexpr double kCoverageBound = 0.95;

/// Per-layer metrics from the ledger, divided by `passes` so self times
/// and counts are per campaign pass (or per replayed schedule), and the
/// coverage check.
void ledger_metrics(Result& r, const e2e::LedgerTotals& t, double passes) {
  r.check(t.coverage() >= kCoverageBound,
          "trace.coverage " + std::to_string(t.coverage()) + " >= " +
              std::to_string(kCoverageBound));
  using e2e::Counter;
  using e2e::Layer;
  const double busy = t.busy_s();
  const auto self = [&](const char* name, Layer layer) {
    r.metric(std::string(name) + ".self_s", t.self_of(layer) / passes, "s");
  };
  const auto cnt = [&](const char* name, Counter c, const char* unit) {
    r.metric(name, static_cast<double>(t.count_of(c)) / passes, unit);
  };
  self("testbed.synthesize", Layer::kTestbedSynthesize);
  cnt("testbed.synthesize.captures", Counter::kSynthCaptures, "count");
  cnt("testbed.synthesize.packets", Counter::kSynthPackets, "count");
  self("flow.ingest", Layer::kFlowIngest);
  cnt("flow.ingest.packets", Counter::kIngestPackets, "count");
  cnt("flow.ingest.bytes", Counter::kIngestBytes, "bytes");
  self("analysis.destinations", Layer::kAnalysisDestinations);
  cnt("analysis.destinations.flows", Counter::kDestinationFlows, "count");
  self("analysis.encryption", Layer::kAnalysisEncryption);
  cnt("analysis.encryption.flows", Counter::kEncryptionFlows, "count");
  self("analysis.pii_scan", Layer::kAnalysisPiiScan);
  r.metric("analysis.pii_scan.share",
           busy > 0.0 ? t.self_of(Layer::kAnalysisPiiScan) / busy : 0.0, "ratio");
  cnt("analysis.pii_scan.payload_bytes", Counter::kPiiPayloadBytes, "bytes");
  cnt("analysis.pii_scan.findings", Counter::kPiiFindings, "count");
  self("analysis.features", Layer::kAnalysisFeatures);
  cnt("analysis.features.units", Counter::kFeatureUnits, "count");
  self("ml.train", Layer::kMlTrain);
  cnt("ml.train.trees", Counter::kTrainTrees, "count");
  self("analysis.idle_detect", Layer::kAnalysisIdleDetect);
  cnt("analysis.idle_detect.units", Counter::kIdleUnits, "count");
  self("testbed.user_study", Layer::kTestbedUserStudy);
  self("analysis.uncontrolled", Layer::kAnalysisUncontrolled);
  self("core.tables", Layer::kCoreTables);
  self("report.write", Layer::kReportWrite);
  cnt("report.write.bytes", Counter::kReportBytes, "bytes");
  self("cache.load", Layer::kCacheLoad);
  cnt("cache.load.bytes", Counter::kCacheLoadBytes, "bytes");
  self("serve.http_parse", Layer::kServeHttpParse);
  cnt("serve.http_parse.bytes", Counter::kHttpBytes, "bytes");
  self("serve.session", Layer::kServeSession);
  cnt("serve.session.packets", Counter::kSessionPackets, "count");
  self("serve.detect", Layer::kServeDetect);
  cnt("serve.detect.units", Counter::kDetectUnits, "count");
  self("serve.report", Layer::kServeReport);
  r.metric("trace.coverage", t.coverage(), "ratio");
  r.metric("trace.unattributed_s", t.frame_s() / passes, "s");
}

/// The traced metrics that do not come from the ledger's spans; the ones
/// a workload has no use for stay 0.
struct TraceExtras {
  double cache_store_s = 0.0;
  double cache_store_bytes = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double pair_max_s = 0.0;
  double parallel_efficiency = 0.0;
  double admission_p99_us = 0.0;
  double shed = 0.0;
  double ladder_transitions = 0.0;
  double late_p99_ms = 0.0;
  double upload_p50_ms = 0.0;
  double upload_p99_ms = 0.0;
  double report_p99_ms = 0.0;
  double sustained_uploads_per_s = 0.0;
  double uploads = 0.0;
  double overhead_s = 0.0;
  double op_wall_p50_ms = 0.0;  ///< untraced wall time of op_cpu_ms's operation
};

void extra_metrics(Result& r, const TraceExtras& x) {
  r.metric("cache.store.self_s", x.cache_store_s, "s");
  r.metric("cache.store.bytes", x.cache_store_bytes, "bytes");
  r.metric("cache.hits", x.cache_hits, "count");
  r.metric("cache.misses", x.cache_misses, "count");
  r.metric("core.pair.max_s", x.pair_max_s, "s");
  r.metric("core.parallel_efficiency", x.parallel_efficiency, "ratio");
  r.metric("serve.admission_p99_us", x.admission_p99_us, "us");
  r.metric("serve.shed", x.shed, "count");
  r.metric("serve.ladder_transitions", x.ladder_transitions, "count");
  r.metric("loadgen.late_p99_ms", x.late_p99_ms, "ms");
  r.metric("loadgen.upload_p50_ms", x.upload_p50_ms, "ms");
  r.metric("loadgen.upload_p99_ms", x.upload_p99_ms, "ms");
  r.metric("loadgen.report_p99_ms", x.report_p99_ms, "ms");
  r.metric("loadgen.sustained_uploads_per_s", x.sustained_uploads_per_s, "1/s");
  r.metric("loadgen.uploads", x.uploads, "count");
  r.metric("trace.overhead_s", x.overhead_s, "s");
  r.metric("op_wall_p50_ms", x.op_wall_p50_ms, "ms");
}

void print_top_layers(const std::string& workload, const e2e::LedgerTotals& t) {
  std::vector<std::pair<double, std::string>> rows;
  for (std::size_t i = 0; i < e2e::kLayerCount; ++i) {
    const auto layer = static_cast<e2e::Layer>(i);
    if (t.self_s[i] > 0.0) {
      rows.push_back({t.self_s[i], std::string(e2e::layer_name(layer)) +
                                       (e2e::is_frame(layer) ? " (glue)" : "")});
    }
  }
  std::sort(rows.rbegin(), rows.rend());
  const double busy = t.busy_s();
  std::printf("top self-time layers (%s, busy %.3f thread-s, coverage %.4f):\n",
              workload.c_str(), busy, t.coverage());
  for (std::size_t i = 0; i < rows.size() && i < 8; ++i) {
    std::printf("  %-24s %9.3f s  %5.1f%%\n", rows[i].second.c_str(), rows[i].first,
                busy > 0.0 ? 100.0 * rows[i].first / busy : 0.0);
  }
}

/// The table builders and the report write, traced, over a finished
/// study: the tail of every traced study pass.
void traced_tables_and_report(const core::Study& study, const std::string& dir) {
  e2e::Span frame(e2e::Layer::kFramePhase);
  {
    e2e::Span s(e2e::Layer::kCoreTables);
    (void)core::build_table2(study);
    (void)core::build_table3(study);
    (void)core::build_table4(study);
    (void)core::build_figure2(study);
    (void)core::build_table5(study);
    (void)core::build_table6(study);
    (void)core::build_table7(study);
    (void)core::build_table8(study);
    (void)core::build_table9(study);
    (void)core::build_table10(study);
    (void)core::build_table11(study);
    (void)core::build_pii_report(study);
  }
  {
    e2e::Span s(e2e::Layer::kReportWrite);
    report::write_report_directory(study, dir);
  }
  e2e::count(e2e::Counter::kReportBytes, e2e::directory_bytes(dir));
}

// --- study workloads ----------------------------------------------------

struct StudyContext {
  const Options& opt;
  std::size_t jobs;
  core::StudyParams params() const {
    return e2e::campaign_params(jobs, opt.smoke ? smoke_devices()
                                                : std::vector<std::string>{});
  }
  core::StudyParams cached_params() const {
    core::StudyParams p = params();
    p.cache_dir = opt.work_dir + "/cache";
    return p;
  }
  std::string dir(const std::string& name) const { return opt.work_dir + "/" + name; }
};

/// What every pass of a campaign must run.
struct Expected {
  std::size_t pairs = 0;
  std::size_t experiments = 0;
};

Expected expected_for(const core::StudyParams& params) {
  return {e2e::campaign_pairs(params).size(), e2e::expected_experiments(params)};
}

/// Checks one finished untraced pass; counts its (config, device) runs
/// as the pass's operations.
void check_pass(Result& r, const core::Study& study, bool pass_ok,
                const Expected& expected) {
  std::size_t runs = 0, bad = 0;
  for (const std::string& key : study.config_keys()) {
    for (const core::DeviceRunResult& run : study.results(key)) {
      ++runs;
      bad += run.status == core::RunStatus::kQuarantined ||
             run.status == core::RunStatus::kSkipped;
    }
  }
  r.ops(expected.pairs, bad + (runs < expected.pairs ? expected.pairs - runs : 0));
  r.check(pass_ok, "pass completed and wrote its report");
  r.check(runs == expected.pairs && study.experiments_run() == expected.experiments,
          "runs " + std::to_string(runs) + " == " + std::to_string(expected.pairs) +
              ", experiments " + std::to_string(study.experiments_run()) + " == " +
              std::to_string(expected.experiments));
}

/// The end-to-end metrics of a study workload from its passes' CPU
/// times. op_cpu_ms is the mean, not the median: study_warm's pass times
/// are bimodal, and a median jumps between the modes from run to run.
void emit_study_metrics(Result& r, const std::vector<double>& pass_cpu_s, double setup_s) {
  double total = 0.0;
  for (double s : pass_cpu_s) total += s;
  r.metric("op_cpu_ms", 1000.0 * total / static_cast<double>(pass_cpu_s.size()), "ms");
  r.metric("setup_s", setup_s, "s");
}

void print_pass(std::size_t n, const e2e::PassTiming& timing) {
  std::printf("pass %zu: run %.3f s, report write %.4f s, cpu %.3f s\n", n, timing.run_s,
              timing.report_s, timing.cpu_s);
}

/// study_cold's set-up: what comes before the first pair starts, that is
/// constructing the Study (catalog, endpoint registry, org/geo databases)
/// and enumerating the campaign's pairs and schedules. One set-up takes
/// under a millisecond, so set-ups are timed in batches of at least
/// 50 ms; returns the median over four batches of the CPU time per
/// set-up.
double setup_batches(const core::StudyParams& params) {
  std::size_t batch = 1;
  std::vector<double> samples;
  while (samples.size() < 4) {
    const double t0 = e2e::thread_cpu_s();
    for (std::size_t i = 0; i < batch; ++i) {
      const core::Study study(params);
      (void)expected_for(study.params());
    }
    const double took = e2e::thread_cpu_s() - t0;
    if (took < 0.05) {
      batch = static_cast<std::size_t>(
          static_cast<double>(batch) * 0.06 / std::max(took, 1e-6)) + 1;
      continue;
    }
    samples.push_back(took / static_cast<double>(batch));
  }
  return median(samples);
}

/// Appends `n` set-up samples, each taken in a fresh process: this binary
/// re-executed with --setup-sample, which prints one figure. A fresh
/// process starts from an unused heap however long the caller has run, so
/// samples can be taken both before and after the measured phase; on a
/// shared virtual machine the speed of small, allocation-heavy work
/// drifts by a third over seconds, so the samples should span the run.
/// False when any sample is missing.
bool sample_setups(const Options& opt, int n, std::vector<double>& samples) {
  const std::string self = fs::read_symlink("/proc/self/exe").string();
  std::vector<std::string> args = {self,       "--setup-sample", "--workload",
                                   opt.workload, "--work-dir",   opt.work_dir,
                                   "--reference-dir", opt.reference_dir};
  if (opt.smoke) args.push_back("--smoke");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  bool all = true;
  for (int i = 0; i < n; ++i) {
    int fds[2];
    if (pipe(fds) != 0) return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    pid_t child = -1;
    const bool spawned = posix_spawn(&child, self.c_str(), &actions, nullptr,
                                     argv.data(), environ) == 0;
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string out;
    char buf[64];
    for (ssize_t got; (got = read(fds[0], buf, sizeof buf)) > 0;) out.append(buf, got);
    close(fds[0]);
    int status = 0;
    const bool ok = spawned && waitpid(child, &status, 0) == child && WIFEXITED(status) &&
                    WEXITSTATUS(status) == 0 && !out.empty();
    if (ok) samples.push_back(std::stod(out));
    all = all && ok;
  }
  return all;
}

/// study_cold, untraced: repeated cold campaign passes.
void study_cold(const StudyContext& ctx, Result& r) {
  const core::StudyParams params = ctx.params();
  // setup_s: the median of fifteen samples, eight before the passes and
  // seven after.
  std::vector<double> setups;
  bool sampled = sample_setups(ctx.opt, 8, setups);
  const Expected expected = expected_for(params);
  std::vector<double> pass_wall_s, pass_cpu_s;
  const auto start = Clock::now();
  do {
    core::Study study(params);
    e2e::PassTiming timing;
    const std::string dir = ctx.dir("cold");
    const bool ok = e2e::run_study_pass(study, dir, timing);
    pass_wall_s.push_back(timing.wall_s());
    pass_cpu_s.push_back(timing.cpu_s);
    print_pass(pass_cpu_s.size(), timing);
    check_pass(r, study, ok, expected);
    check_reference(r, ctx.opt, dir, "cold report");
    fs::remove_all(dir);
  } while (seconds_since(start) + median(pass_wall_s) <= ctx.opt.seconds);
  sampled = sample_setups(ctx.opt, 7, setups) && sampled;
  r.check(sampled, "every set-up process reported");
  std::printf("set-up: median %.4f ms CPU over %zu processes\n", 1000.0 * median(setups),
              setups.size());
  emit_study_metrics(r, pass_cpu_s, median(setups));
}

/// study_warm, untraced: set-up is one cold pass that populates the
/// cache and writes the reference report; the measured passes rerun the
/// campaign against that cache.
void study_warm(const StudyContext& ctx, Result& r) {
  const core::StudyParams params = ctx.cached_params();
  const Expected expected = expected_for(params);
  // Set-up runs the cold pass in a child process: the warm passes then
  // start from a fresh heap instead of one shaped by the cold pass's
  // thread interleaving. setup_s is the child's CPU time.
  std::fflush(stdout);
  const pid_t child = fork();
  if (child == 0) {
    core::Study study(params);
    e2e::PassTiming timing;
    const bool ok = e2e::run_study_pass(study, ctx.dir("cold"), timing) &&
                    study.experiments_run() == expected.experiments;
    _exit(ok ? 0 : 1);
  }
  int status = 0;
  rusage usage{};
  const bool set_up = child > 0 && wait4(child, &status, 0, &usage) == child &&
                      WIFEXITED(status) && WEXITSTATUS(status) == 0;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  const double setup_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  r.check(set_up, "cold set-up pass completed and filled the cache");
  check_reference(r, ctx.opt, ctx.dir("cold"), "set-up cold report");
  // The first pass warms the process up: it is checked, not timed.
  std::vector<double> pass_wall_s, pass_cpu_s;
  const auto start = Clock::now();
  do {
    core::Study study(params);
    e2e::PassTiming timing;
    const std::string dir = ctx.dir("warm");
    fs::remove_all(dir);
    const bool ok = e2e::run_study_pass(study, dir, timing);
    if (!pass_wall_s.empty()) pass_cpu_s.push_back(timing.cpu_s);
    pass_wall_s.push_back(timing.wall_s());
    print_pass(pass_wall_s.size(), timing);
    check_pass(r, study, ok, expected);
    const cache::ArtifactStoreStats stats = study.cache_stats();
    r.check(stats.misses == 0 && stats.hits == 2 * expected.pairs,
            "warm pass served every stage from the cache");
    check_reference(r, ctx.opt, dir, "warm report");
  } while (pass_cpu_s.empty() ||
           seconds_since(start) + median(pass_wall_s) <= ctx.opt.seconds);
  emit_study_metrics(r, pass_cpu_s, setup_s);
}

/// study_cold, traced: one untraced cold pass, then the same campaign
/// through the LayerCampaign, handed to the program through the cache.
void study_cold_traced(const StudyContext& ctx, Result& r) {
  const core::StudyParams params = ctx.params();
  const Expected expected = expected_for(params);
  core::Study untraced(params);
  e2e::PassTiming timing;
  check_pass(r, untraced, e2e::run_study_pass(untraced, ctx.dir("untraced"), timing),
             expected);
  check_reference(r, ctx.opt, ctx.dir("untraced"), "untraced cold report");

  e2e::reset_ledger();
  e2e::set_tracing(true);
  const auto t0 = Clock::now();
  e2e::LayerCampaign layers(params);
  cache::ArtifactStore handoff(ctx.dir("handoff"));
  layers.run_pairs_cold(handoff);
  const e2e::LedgerTotals pairs = e2e::ledger_totals();
  layers.run_uncontrolled();
  double traced_s = seconds_since(t0);
  e2e::set_tracing(false);

  // The program over the campaign's artifacts (not part of the ledger).
  core::StudyParams replay_params = params;
  replay_params.cache_dir = ctx.dir("handoff");
  core::Study replay(replay_params);
  replay.run();
  const cache::ArtifactStoreStats stats = replay.cache_stats();
  r.check(stats.misses == 0 && stats.hits == 2 * layers.pair_count(),
          "program loaded every stage the layer campaign stored");

  e2e::set_tracing(true);
  const auto t1 = Clock::now();
  traced_tables_and_report(replay, ctx.dir("traced"));
  traced_s += seconds_since(t1);
  e2e::set_tracing(false);

  check_reference(r, ctx.opt, ctx.dir("traced"), "traced report");
  std::string first;
  const std::size_t bad = layers.mismatches(untraced, first);
  r.check(bad == 0, std::to_string(bad) +
                        " pairs differ from Study::result_for, first " + first);

  const e2e::LedgerTotals t = e2e::ledger_totals();
  ledger_metrics(r, t, 1.0);
  TraceExtras x;
  x.cache_store_s = t.self_of(e2e::Layer::kCacheStore);
  x.cache_store_bytes = static_cast<double>(t.count_of(e2e::Counter::kCacheStoreBytes));
  x.pair_max_s = layers.max_pair_s();
  x.parallel_efficiency =
      pairs.busy_s() / (static_cast<double>(ctx.jobs) * layers.pairs_wall_s());
  x.overhead_s = traced_s - timing.wall_s();
  x.op_wall_p50_ms = 1000.0 * timing.wall_s();
  extra_metrics(r, x);
  print_top_layers(ctx.opt.workload, t);
}

/// study_warm, traced: the cache is populated by the LayerCampaign (its
/// stores are the set-up ledger); each measured pass is an untraced
/// program pass followed by the traced layer campaign over the same cache.
void study_warm_traced(const StudyContext& ctx, Result& r) {
  const core::StudyParams params = ctx.cached_params();
  const Expected expected = expected_for(params);
  e2e::reset_ledger();
  e2e::set_tracing(true);
  {
    e2e::LayerCampaign setup(params);
    cache::ArtifactStore store(params.cache_dir);
    setup.run_pairs_cold(store);
  }
  e2e::set_tracing(false);
  const e2e::LedgerTotals setup_totals = e2e::ledger_totals();
  {
    core::Study cold(params);
    e2e::PassTiming timing;
    check_pass(r, cold, e2e::run_study_pass(cold, ctx.dir("cold"), timing), expected);
  }
  check_reference(r, ctx.opt, ctx.dir("cold"), "cold report");

  e2e::reset_ledger();
  std::vector<double> overhead, pass_wall_s;
  double hits = 0.0, misses = 0.0, pair_busy = 0.0, pair_wall = 0.0;
  const auto start = Clock::now();
  do {
    core::Study study(params);
    e2e::PassTiming timing;
    fs::remove_all(ctx.dir("warm"));
    check_pass(r, study, e2e::run_study_pass(study, ctx.dir("warm"), timing), expected);
    check_reference(r, ctx.opt, ctx.dir("warm"), "warm report");

    e2e::set_tracing(true);
    const auto t0 = Clock::now();
    e2e::LayerCampaign layers(params);
    cache::ArtifactStore store(params.cache_dir);
    const double busy_before = e2e::ledger_totals().busy_s();
    r.check(layers.run_pairs_warm(store) == 0, "layer campaign loaded every pair");
    pair_busy += e2e::ledger_totals().busy_s() - busy_before;
    pair_wall += layers.pairs_wall_s();
    layers.run_uncontrolled();
    fs::remove_all(ctx.dir("traced"));
    traced_tables_and_report(study, ctx.dir("traced"));
    const double traced_s = seconds_since(t0);
    e2e::set_tracing(false);
    check_reference(r, ctx.opt, ctx.dir("traced"), "traced report");
    std::string first;
    const std::size_t bad = layers.mismatches(study, first);
    r.check(bad == 0, std::to_string(bad) +
                          " pairs differ from Study::result_for, first " + first);
    hits += static_cast<double>(store.stats().hits);
    misses += static_cast<double>(store.stats().misses);
    overhead.push_back(traced_s - timing.wall_s());
    pass_wall_s.push_back(timing.wall_s());
  } while (seconds_since(start) <= ctx.opt.seconds || overhead.size() < 3);

  const double passes = static_cast<double>(overhead.size());
  const e2e::LedgerTotals t = e2e::ledger_totals();
  ledger_metrics(r, t, passes);
  TraceExtras x;
  x.cache_store_s = setup_totals.self_of(e2e::Layer::kCacheStore);
  x.cache_store_bytes =
      static_cast<double>(setup_totals.count_of(e2e::Counter::kCacheStoreBytes));
  x.cache_hits = hits / passes;
  x.cache_misses = misses / passes;
  x.pair_max_s = t.max_span_s[static_cast<std::size_t>(e2e::Layer::kFramePair)];
  x.parallel_efficiency = pair_busy / (static_cast<double>(ctx.jobs) * pair_wall);
  x.overhead_s = median(overhead);
  x.op_wall_p50_ms = 1000.0 * median(pass_wall_s);
  extra_metrics(r, x);
  print_top_layers(ctx.opt.workload, t);
}

// --- serve workload -----------------------------------------------------

struct ServeRun {
  e2e::LoadResult load;
  serve::ServeStats stats;
  std::uint64_t attempted_uploads = 0;
};

/// The fixed-rate phase on a fresh daemon, plus the identity-tenant and
/// session-accounting checks.
ServeRun fixed_rate_phase(const e2e::ServeSetup& setup, const Options& opt,
                          std::size_t uploads, std::size_t jobs, Result& r,
                          std::unique_ptr<serve::Daemon> daemon) {
  ServeRun run;
  const std::vector<e2e::Request> schedule = e2e::make_schedule(setup, opt.seed, uploads);
  run.load = e2e::run_open_loop(daemon->port(), setup, schedule, kFixedRate, jobs);
  run.attempted_uploads = run.load.upload_ms.size();
  r.ops(run.load.upload_ms.size() + run.load.report_ms.size(),
        run.load.upload_failures + run.load.report_failures);

  // A dedicated tenant: one idle-window upload, streamed == batch, and
  // batch == the reference digest.
  const e2e::ServeUpload* sample = &setup.pool.front();
  for (const e2e::ServeUpload& u : setup.pool) {
    if (u.long_window) {
      sample = &u;
      break;
    }
  }
  serve::ChaosClient client("127.0.0.1", daemon->port());
  const bool installed =
      client.post("/model/identity", setup.models[sample->tenant]).status_code == 200;
  const bool uploaded = client.upload_chunked("identity", sample->pcap).status_code == 200;
  ++run.attempted_uploads;
  const serve::ChaosResult streamed = client.get("/report/identity");
  const std::string batch =
      serve::batch_report_json("identity", sample->pcap, {}, setup.models[sample->tenant]);
  r.check(installed && uploaded && streamed.status_code == 200 && streamed.body == batch,
          "streamed identity report equals batch_report_json");
  const std::string digest = sha256_hex(batch);
  const bool reference = load_reference(opt, "serve_identity")["identity.json"] == digest;
  if (!reference) std::printf("identity digest %s  identity.json\n", digest.c_str());
  r.check(reference, "identity report matches the reference digest");
  run.stats = daemon->stats();
  r.check(run.stats.sessions_completed + run.stats.sessions_shed +
                  run.stats.sessions_quarantined ==
              run.attempted_uploads,
          "daemon sessions account for every upload attempted");
  daemon->stop();
  return run;
}

/// The rate ladder: each probe sends a seeded schedule open loop to a
/// fresh daemon and passes when no request failed, upload p99 stayed
/// under the limit and the backlog did not grow.
class Ladder {
 public:
  Ladder(const e2e::ServeSetup& setup, std::uint64_t seed, std::size_t uploads,
         std::size_t jobs)
      : setup_(setup), seed_(seed), uploads_(uploads), jobs_(jobs),
        rates_(e2e::ladder_rates()) {}

  std::ptrdiff_t rungs() const { return static_cast<std::ptrdiff_t>(rates_.size()); }
  double rate(std::ptrdiff_t rung) const { return rung < 0 ? 0.0 : rates_[rung]; }
  std::ptrdiff_t rung_at(double rate) const {
    return std::lower_bound(rates_.begin(), rates_.end(), rate) - rates_.begin();
  }

  bool pass(std::ptrdiff_t rung) {
    if (rung < 0) return true;
    if (rung >= rungs()) return false;
    auto daemon = e2e::start_daemon(setup_, jobs_);
    if (daemon == nullptr) return false;
    const auto schedule = e2e::make_schedule(setup_, seed_ * 1000 + ++probes_, uploads_);
    const e2e::LoadResult load =
        e2e::run_open_loop(daemon->port(), setup_, schedule, rates_[rung], jobs_);
    daemon->stop();
    const double p99 = e2e::quantile(load.upload_ms, 0.99);
    const bool ok = load.upload_failures == 0 && load.report_failures == 0 &&
                    p99 <= e2e::kUploadLimitMs && !load.backlog_grew();
    std::printf("ladder probe %.0f uploads/s: p99 %.2f ms, late %.2f -> %.2f ms, %s\n",
                rates_[rung], p99, load.first_tenth_ms, load.last_tenth_ms,
                ok ? "pass" : "fail");
    return ok;
  }

  /// Gallops from `start` in steps of `step` rungs to bracket the last
  /// passing rung, then bisects the bracket.
  std::ptrdiff_t search(std::ptrdiff_t start, std::ptrdiff_t step) {
    std::ptrdiff_t lo = start, hi = start;
    if (pass(start)) {
      for (hi = start + step; pass(hi); hi += step) lo = hi;
    } else {
      for (lo = start - step; !pass(lo); lo -= step) hi = lo;
    }
    while (hi - lo > 1) {
      const std::ptrdiff_t mid = (lo + hi) / 2;
      (pass(mid) ? lo : hi) = mid;
    }
    return lo;
  }

 private:
  const e2e::ServeSetup& setup_;
  std::uint64_t seed_;
  std::size_t uploads_;
  std::size_t jobs_;
  std::vector<double> rates_;
  std::uint64_t probes_ = 0;
};

/// loadgen.sustained_uploads_per_s: the median of five ladder searches.
/// The first gallops from twice the fixed rate; each later one starts
/// from the previous answer.
double sustained_rate(Ladder& ladder) {
  std::vector<double> found;
  std::ptrdiff_t rung = ladder.search(ladder.rung_at(2.0 * kFixedRate), 8);
  found.push_back(ladder.rate(rung));
  for (int i = 0; i < 4; ++i) {
    rung = ladder.search(std::max<std::ptrdiff_t>(rung, 0), 2);
    found.push_back(ladder.rate(rung));
  }
  return median(found);
}

void print_pool(const e2e::ServeSetup& setup) {
  std::size_t idle = 0, bytes = 0;
  for (const e2e::ServeUpload& u : setup.pool) {
    idle += u.long_window;
    bytes += u.pcap.size();
  }
  std::printf("upload pool: %zu tenants, %zu uploads (%zu idle windows), %.1f MB\n",
              setup.tenants.size(), setup.pool.size(), idle, bytes / 1e6);
}

void serve_stream(const Options& opt, std::size_t jobs, Result& r) {
  // Set-up: upload pool + detector training + a daemon with every model
  // installed. setup_s is the median of seven samples, four before the
  // measured phase and three after.
  std::vector<double> setups;
  bool sampled = sample_setups(opt, 4, setups);
  const e2e::ServeSetup setup = e2e::make_serve_setup(opt.smoke);
  auto daemon = e2e::start_daemon(setup, jobs);
  r.check(daemon != nullptr, "daemon started with every model installed");
  if (daemon == nullptr) return;
  print_pool(setup);

  // One fixed-rate round against the daemon: the correctness checks and
  // the uploads they count. Its latencies are printed; the traced run
  // reports them.
  const std::size_t uploads = opt.smoke ? kSmokeUploads : kFixedUploads;
  const auto start = Clock::now();
  const ServeRun run = fixed_rate_phase(setup, opt, uploads, jobs, r, std::move(daemon));
  std::printf("fixed-rate round: upload p50 %.3f ms, p99 %.3f ms, report p99 %.3f ms\n",
              e2e::quantile(run.load.upload_ms, 0.5), e2e::quantile(run.load.upload_ms, 0.99),
              e2e::quantile(run.load.report_ms, 0.99));

  // The measured phase: the serve path in process, closed loop on nproc
  // threads, one seeded schedule after another on fresh tenants.
  double cpu_s = 0.0;
  std::size_t replayed = 0;
  for (std::uint64_t k = 0; k < 3 || seconds_since(start) < opt.seconds; ++k) {
    const std::vector<e2e::Request> schedule =
        e2e::make_schedule(setup, opt.seed * 1000 + k, uploads);
    const e2e::ReplayResult res = e2e::replay(setup, schedule, jobs);
    cpu_s += res.cpu_s;
    replayed += res.upload_ms.size();
  }
  sampled = sample_setups(opt, 3, setups) && sampled;
  r.check(sampled, "every set-up process reported");
  std::printf("replays: %zu uploads, %.3f s CPU\n", replayed, cpu_s);
  std::printf("set-up: median %.3f s CPU over %zu set-ups\n", median(setups),
              setups.size());
  r.metric("op_cpu_ms", 1000.0 * cpu_s / static_cast<double>(replayed), "ms");
  r.metric("setup_s", median(setups), "s");
}

void serve_stream_traced(const Options& opt, std::size_t jobs, Result& r) {
  const e2e::ServeSetup setup = e2e::make_serve_setup(opt.smoke);
  const std::size_t uploads = opt.smoke ? kSmokeUploads : kFixedUploads;

  // The daemon at the fixed rate, with its metrics registry on so
  // /metrics carries the admission-latency histogram.
  obs::Registry::global().reset();
  obs::set_metrics_enabled(true);
  auto daemon = e2e::start_daemon(setup, jobs);
  r.check(daemon != nullptr, "daemon started with every model installed");
  if (daemon == nullptr) return;
  const bool metrics_ok =
      serve::ChaosClient("127.0.0.1", daemon->port()).get("/metrics").status_code == 200;
  const ServeRun run = fixed_rate_phase(setup, opt, uploads, jobs, r, std::move(daemon));
  const obs::Registry::Snapshot snap = obs::Registry::global().snapshot();
  obs::set_metrics_enabled(false);
  const auto* admission = snap.find("serve/admission_latency_ns");
  r.check(metrics_ok && admission != nullptr, "/metrics serves the admission histogram");

  // The rate ladder against fresh daemons.
  Ladder ladder(setup, opt.seed, opt.smoke ? kSmokeUploads : kProbeUploads, jobs);
  const double sustained = sustained_rate(ladder);
  r.check(sustained > 0.0, "some ladder rung sustained");

  // The same requests through the serve layers: untraced, then traced.
  const std::vector<e2e::Request> schedule = e2e::make_schedule(setup, opt.seed, uploads);
  const e2e::ReplayResult untraced = e2e::replay(setup, schedule, jobs);
  e2e::reset_ledger();
  e2e::set_tracing(true);
  const double traced_s = e2e::replay(setup, schedule, jobs).wall_s;
  e2e::set_tracing(false);

  const e2e::LedgerTotals t = e2e::ledger_totals();
  ledger_metrics(r, t, 1.0);
  const auto& up = run.load.upload_ms;
  const auto& rep = run.load.report_ms;
  TraceExtras x;
  x.parallel_efficiency = t.busy_s() / (static_cast<double>(jobs) * traced_s);
  x.admission_p99_us =
      admission != nullptr ? static_cast<double>(admission->p99()) / 1000.0 : 0.0;
  x.shed = static_cast<double>(run.stats.sessions_shed);
  x.ladder_transitions = static_cast<double>(run.stats.ladder_transitions);
  x.late_p99_ms =
      e2e::quantile(run.load.late_ms, e2e::tail_quantile(run.load.late_ms.size()));
  x.upload_p50_ms = e2e::quantile(up, 0.5);
  x.upload_p99_ms = e2e::quantile(up, e2e::tail_quantile(up.size()));
  x.report_p99_ms = e2e::quantile(rep, e2e::tail_quantile(rep.size()));
  x.sustained_uploads_per_s = sustained;
  x.uploads = static_cast<double>(up.size());
  x.overhead_s = traced_s - untraced.wall_s;
  x.op_wall_p50_ms = e2e::quantile(untraced.upload_ms, 0.5);
  extra_metrics(r, x);
  print_top_layers(opt.workload, t);
}

/// One set-up of study_cold or serve_stream, timed, as --setup-sample
/// prints it; not positive when the set-up failed.
double timed_setup(const Options& opt, std::size_t jobs) {
  if (opt.workload == "serve_stream") {
    const double t0 = e2e::process_cpu_s();
    const e2e::ServeSetup setup = e2e::make_serve_setup(opt.smoke);
    const auto daemon = e2e::start_daemon(setup, jobs);
    const double took = e2e::process_cpu_s() - t0;
    if (daemon == nullptr) return 0.0;
    daemon->stop();
    return took;
  }
  return setup_batches(StudyContext{opt, jobs}.params());
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") opt.workload = value();
    else if (arg == "--seed") opt.seed = std::stoull(value());
    else if (arg == "--seconds") opt.seconds = std::stod(value());
    else if (arg == "--trace") opt.trace = value() == "1";
    else if (arg == "--work-dir") opt.work_dir = value();
    else if (arg == "--reference-dir") opt.reference_dir = value();
    else if (arg == "--commit") opt.commit = value();
    else if (arg == "--smoke") opt.smoke = true;
    else if (arg == "--setup-sample") opt.setup_sample = true;
    else throw std::invalid_argument("unknown argument " + arg);
  }
  return !opt.workload.empty() && !opt.work_dir.empty() && !opt.reference_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) throw std::invalid_argument("missing arguments");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iotx_e2e: %s\n", e.what());
    return 2;
  }
  const std::size_t jobs = std::max(1u, std::thread::hardware_concurrency());
  if (opt.setup_sample) {
    const double s = timed_setup(opt, jobs);
    if (!(s > 0.0)) return 1;
    std::printf("%.9g\n", s);
    return 0;
  }

  // The work directory is the run's scratch space: start it empty so a
  // leftover cache can never turn a cold set-up warm.
  fs::remove_all(opt.work_dir);
  fs::create_directories(opt.work_dir);
  print_fingerprint(opt, jobs);

  Result r;
  const StudyContext ctx{opt, jobs};
  if (opt.workload == "study_cold") {
    opt.trace ? study_cold_traced(ctx, r) : study_cold(ctx, r);
  } else if (opt.workload == "study_warm") {
    opt.trace ? study_warm_traced(ctx, r) : study_warm(ctx, r);
  } else if (opt.workload == "serve_stream") {
    opt.trace ? serve_stream_traced(opt, jobs, r) : serve_stream(opt, jobs, r);
  } else {
    std::fprintf(stderr, "iotx_e2e: unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  if (opt.trace) {
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("ops_failed_ratio",
             static_cast<double>(r.failed) /
                 static_cast<double>(std::max<std::uint64_t>(1, r.attempted)),
             "ratio");
  }
  print_result(r);
  return 0;
}
