// The study side of the benchmark.
//
// run_study_pass() is the program as a user runs it: core::Study::run()
// then report::write_report_directory(), with nothing of the benchmark in
// between. The LayerCampaign is the traced counterpart: it does the same
// per-(config, device) work as Study::run() through each layer's public
// entry point (synthesis, ingest, destinations, encryption, PII scan,
// features, training, idle detection, cache load/store), opening a ledger
// span around every call. It hands its results to the program through
// the artifact cache, so a Study over that cache must write the same
// report as the untraced run.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "iotx/analysis/inference.hpp"
#include "iotx/cache/artifact_store.hpp"
#include "iotx/core/study.hpp"

namespace e2e {

/// The campaign every study workload runs: the default 81-device paper
/// campaign, or its device-filtered subset in smoke mode.
iotx::core::StudyParams campaign_params(std::size_t jobs,
                                        const std::vector<std::string>& devices);

/// One (config, device) pair of a campaign.
struct CampaignPair {
  const iotx::testbed::DeviceSpec* device = nullptr;
  iotx::testbed::NetworkConfig config;
};

/// The campaign's (config, device) pairs in Study::run()'s order: every
/// config the params enable, every catalog device present in its lab and
/// passing the device filter.
std::vector<CampaignPair> campaign_pairs(const iotx::core::StudyParams& params);

struct PassTiming {
  double run_s = 0.0;     ///< Study::run()
  double report_s = 0.0;  ///< write_report_directory()
  double cpu_s = 0.0;     ///< process CPU time over both, every thread
  double wall_s() const { return run_s + report_s; }
};

/// One untraced campaign pass. Returns false when the report could not be
/// written or any (config, device) run was quarantined or skipped.
bool run_study_pass(iotx::core::Study& study, const std::string& out_dir,
                    PassTiming& timing);

std::uint64_t directory_bytes(const std::string& dir);

/// Campaign-level facts the checks compare against.
std::size_t expected_experiments(const iotx::core::StudyParams& params);

class LayerCampaign {
 public:
  explicit LayerCampaign(iotx::core::StudyParams params);

  /// Cold: computes every (config, device) pair through the layer entry
  /// points on params.jobs threads and stores both stage artifacts of
  /// each pair into `store` under the program's own stage keys.
  void run_pairs_cold(iotx::cache::ArtifactStore& store);
  /// Warm: loads and decodes both stage artifacts of every pair.
  /// Returns the number of pairs whose artifacts were missing or corrupt.
  std::size_t run_pairs_warm(iotx::cache::ArtifactStore& store);
  /// The uncontrolled (user-study) phase over the "us" models.
  void run_uncontrolled();

  /// Compares this campaign's per-pair destinations, encryption and PII
  /// findings with the program's results; returns the mismatching pairs.
  std::size_t mismatches(const iotx::core::Study& study,
                         std::string& first) const;
  /// Wall time of the slowest pair, and thread-seconds over all pairs.
  double max_pair_s() const { return max_pair_s_; }
  double pairs_wall_s() const { return pairs_wall_s_; }
  std::size_t pair_count() const { return pairs_.size(); }

 private:
  struct Pair : CampaignPair {
    // Ingest-stage outputs kept for the checks and the uncontrolled phase.
    std::vector<iotx::analysis::DestinationRecord> destinations;
    std::map<std::string, iotx::analysis::EncryptionBytes> enc_by_group;
    iotx::analysis::EncryptionBytes enc_total;
    std::vector<iotx::analysis::PiiFinding> pii_findings;
    iotx::analysis::ActivityModel model;
    bool ok = false;
  };

  void compute_pair(Pair& pair, iotx::cache::ArtifactStore& store);
  bool load_pair(Pair& pair, iotx::cache::ArtifactStore& store);
  template <typename Fn>
  void for_each_pair(Fn&& fn);

  iotx::core::StudyParams params_;
  /// Never run; provides the program's attribution context per config.
  iotx::core::Study reference_;
  iotx::testbed::ExperimentRunner runner_;
  std::vector<Pair> pairs_;
  double max_pair_s_ = 0.0;
  double pairs_wall_s_ = 0.0;
};

}  // namespace e2e
