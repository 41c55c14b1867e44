#include "study_layers.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <thread>
#include <tuple>

#include "iotx/analysis/serialize.hpp"
#include "iotx/cache/binio.hpp"
#include "iotx/core/study_cache.hpp"
#include "iotx/flow/dns_cache.hpp"
#include "iotx/flow/flow_table.hpp"
#include "iotx/flow/traffic_unit.hpp"
#include "iotx/ml/validation.hpp"
#include "iotx/report/report.hpp"
#include "iotx/testbed/synth.hpp"
#include "iotx/testbed/user_study.hpp"
#include "ledger.hpp"

namespace e2e {

using namespace iotx;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void note_ingest(const flow::IngestPipeline& pipeline, core::IngestArtifact& art) {
  art.packets_ingested += pipeline.packets_seen();
  art.peak_capture_bytes = std::max(art.peak_capture_bytes, pipeline.bytes_seen());
  count(Counter::kIngestPackets, pipeline.packets_seen());
  count(Counter::kIngestBytes, pipeline.bytes_seen());
}

// Serialized form of the per-pair outputs the correctness check compares
// (destinations, encryption by group and total, PII findings).
std::vector<std::uint8_t> pair_digest_bytes(
    const std::vector<analysis::DestinationRecord>& destinations,
    const std::map<std::string, analysis::EncryptionBytes>& enc_by_group,
    const analysis::EncryptionBytes& enc_total,
    const std::vector<analysis::PiiFinding>& pii) {
  cache::BinWriter w;
  analysis::write_destinations(w, destinations);
  analysis::write_enc_by_group(w, enc_by_group);
  analysis::write_encryption(w, enc_total);
  analysis::write_pii_findings(w, pii);
  return w.take();
}

}  // namespace

core::StudyParams campaign_params(std::size_t jobs,
                                  const std::vector<std::string>& devices) {
  core::StudyParams params;
  params.jobs = jobs;
  params.device_filter = devices;
  return params;
}

std::vector<CampaignPair> campaign_pairs(const core::StudyParams& params) {
  std::vector<CampaignPair> pairs;
  const auto& filter = params.device_filter;
  for (const testbed::NetworkConfig& config : testbed::all_network_configs()) {
    if (config.vpn && !params.run_vpn) continue;
    for (const testbed::DeviceSpec& device : testbed::device_catalog()) {
      const bool present = config.lab == testbed::LabSite::kUs ? device.in_us()
                                                               : device.in_uk();
      if (!present || (!filter.empty() && std::find(filter.begin(), filter.end(),
                                                     device.id) == filter.end())) {
        continue;
      }
      pairs.push_back(CampaignPair{&device, config});
    }
  }
  return pairs;
}

bool run_study_pass(core::Study& study, const std::string& out_dir,
                    PassTiming& timing) {
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  study.run();
  timing.run_s = seconds_since(t0);
  const auto t1 = Clock::now();
  const bool written = report::write_report_directory(study, out_dir);
  timing.report_s = seconds_since(t1);
  timing.cpu_s = process_cpu_s() - cpu0;
  if (!written || !study.quarantined().empty()) return false;
  for (const std::string& key : study.config_keys()) {
    for (const core::DeviceRunResult& r : study.results(key)) {
      if (r.status == core::RunStatus::kSkipped) return false;
    }
  }
  return true;
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::size_t expected_experiments(const core::StudyParams& params) {
  const testbed::ExperimentRunner runner(params.plan);
  std::size_t total = 0;
  for (const CampaignPair& pair : campaign_pairs(params)) {
    total += runner.schedule(*pair.device, pair.config).size();
  }
  return total;
}

namespace {

core::StudyParams without_cache(core::StudyParams params) {
  params.cache_dir.clear();
  return params;
}

}  // namespace

LayerCampaign::LayerCampaign(core::StudyParams params)
    : params_(std::move(params)),
      reference_(without_cache(params_)),
      runner_(params_.plan) {
  for (const CampaignPair& p : campaign_pairs(params_)) {
    Pair pair;
    pair.device = p.device;
    pair.config = p.config;
    pairs_.push_back(std::move(pair));
  }
}

template <typename Fn>
void LayerCampaign::for_each_pair(Fn&& fn) {
  const std::size_t jobs = std::max<std::size_t>(1, params_.jobs);
  std::atomic<std::size_t> next{0};
  std::vector<double> slowest(jobs, 0.0);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < jobs; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = next++; i < pairs_.size(); i = next++) {
        const auto start = Clock::now();
        try {
          pairs_[i].ok = fn(pairs_[i]);
        } catch (const std::exception&) {
          pairs_[i].ok = false;
        }
        slowest[t] = std::max(slowest[t], seconds_since(start));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  pairs_wall_s_ = seconds_since(t0);
  max_pair_s_ = *std::max_element(slowest.begin(), slowest.end());
}

void LayerCampaign::run_pairs_cold(cache::ArtifactStore& store) {
  for_each_pair([&](Pair& pair) {
    compute_pair(pair, store);
    return true;
  });
}

std::size_t LayerCampaign::run_pairs_warm(cache::ArtifactStore& store) {
  for_each_pair([&](Pair& pair) { return load_pair(pair, store); });
  return static_cast<std::size_t>(std::count_if(
      pairs_.begin(), pairs_.end(), [](const Pair& p) { return !p.ok; }));
}

// Mirrors Study::run_device on a cache miss: experiment schedule, then
// background training windows, ingest-stage store, training, idle
// detection, model-stage store.
void LayerCampaign::compute_pair(Pair& pair, cache::ArtifactStore& store) {
  Span frame(Layer::kFramePair);
  const testbed::DeviceSpec& device = *pair.device;
  const testbed::NetworkConfig& config = pair.config;
  const testbed::PiiTokens tokens = testbed::pii_tokens(device, config.lab);
  const analysis::AttributionContext ctx = reference_.attribution_context(config);
  const analysis::PiiScanner scanner({
      {"mac", tokens.mac},
      {"uuid", tokens.uuid},
      {"device_id", tokens.device_id},
      {"owner_name", tokens.owner_name},
      {"email", tokens.email},
      {"geo_city", tokens.geo_city},
  });
  const net::MacAddress mac =
      testbed::device_mac(device, config.lab == testbed::LabSite::kUs);

  core::IngestArtifact art;
  analysis::DestinationAccumulator merged;
  std::set<std::pair<std::string, std::uint32_t>> seen_pii;
  std::set<std::tuple<std::string, std::string, std::uint32_t>> seen_phase_pii;

  std::vector<testbed::ExperimentSpec> schedule;
  {
    Span s(Layer::kTestbedSynthesize);
    schedule = runner_.schedule(device, config);
  }
  for (const testbed::ExperimentSpec& spec : schedule) {
    testbed::LabeledCapture capture;
    {
      Span s(Layer::kTestbedSynthesize);
      capture = runner_.run(spec, device);
    }
    count(Counter::kSynthCaptures, 1);
    count(Counter::kSynthPackets, capture.packets.size());
    ++art.experiments;

    flow::DnsCache dns;
    flow::FlowTable table;
    flow::MetaCollector collector(mac);
    flow::IngestPipeline pipeline;
    pipeline.add_sink(dns);
    pipeline.add_sink(table);
    pipeline.add_sink(collector);
    std::vector<flow::Flow> flows;
    {
      Span s(Layer::kFlowIngest);
      pipeline.ingest_all(capture.packets);
      pipeline.finish();
      flows = table.flows();
    }
    note_ingest(pipeline, art);
    art.health.merge(pipeline.health());
    art.health.merge(dns.health());
    art.health.merge(table.health());
    art.health.merge(collector.health());

    std::vector<analysis::DestinationRecord> records;
    analysis::PartyCounts parties;
    {
      Span s(Layer::kAnalysisDestinations);
      records = analysis::attribute_destinations(flows, dns, ctx,
                                                 device.first_party_orgs);
      parties = analysis::count_non_first_parties(records);
    }
    count(Counter::kDestinationFlows, flows.size());
    analysis::EncryptionBytes enc;
    {
      Span s(Layer::kAnalysisEncryption);
      enc = analysis::account_flows(flows);
    }
    count(Counter::kEncryptionFlows, flows.size());
    std::vector<analysis::PiiFinding> found;
    {
      Span s(Layer::kAnalysisPiiScan);
      found = scanner.scan(flows);
    }
    std::uint64_t offered = 0;
    for (const flow::Flow& f : flows) {
      offered += f.payload_sample_up.size() + f.payload_sample_down.size();
    }
    count(Counter::kPiiPayloadBytes, offered);
    count(Counter::kPiiFindings, found.size());

    const bool lifecycle = spec.type == testbed::ExperimentType::kLifecycle;
    const std::string phase(testbed::lifecycle_phase_name(spec.phase));
    art.parties_by_phase[phase].merge(parties);
    art.enc_by_phase[phase] += enc;
    for (const analysis::PiiFinding& f : found) {
      if (seen_phase_pii.emplace(phase, f.kind, f.destination.value()).second) {
        art.pii_by_phase[phase].push_back(f);
      }
    }
    if (!lifecycle) {
      const std::string group = core::experiment_group(spec);
      art.parties_by_group[group].merge(parties);
      if (spec.type != testbed::ExperimentType::kIdle) {
        art.parties_by_group["Control"].merge(parties);
      }
      {
        Span s(Layer::kAnalysisDestinations);
        merged.add_all(records);
      }
      art.enc_by_group[group] += enc;
      if (spec.type != testbed::ExperimentType::kIdle) {
        art.enc_by_group["Control"] += enc;
      }
      art.enc_total += enc;
      for (analysis::PiiFinding& f : found) {
        if (seen_pii.emplace(f.kind, f.destination.value()).second) {
          art.pii_findings.push_back(std::move(f));
        }
      }
    }
    std::vector<flow::PacketMeta> meta = collector.take();
    if (spec.type == testbed::ExperimentType::kIdle) {
      art.idle_meta = std::move(meta);
    } else {
      art.training.push_back(analysis::LabeledMeta{
          spec.activity, std::move(meta), phase});
    }
  }
  {
    Span s(Layer::kAnalysisDestinations);
    art.destinations = merged.merged();
  }

  // Background windows, as Study::add_background_training.
  const int n_background = std::max(4, params_.plan.automated_reps / 2);
  for (int i = 0; i < n_background; ++i) {
    testbed::ExperimentSpec spec;
    spec.device_id = device.id;
    spec.config = config;
    spec.type = testbed::ExperimentType::kInteraction;
    spec.activity = std::string(analysis::kBackgroundLabel);
    spec.repetition = i;
    spec.start_time = testbed::kSimulationEpoch + 50000.0 + i * 100.0;
    std::vector<net::Packet> packets;
    {
      Span s(Layer::kTestbedSynthesize);
      util::Prng prng("bg/" + spec.key());
      packets = runner_.synthesizer().background(
          device, config, spec.start_time, spec.start_time + 60.0, prng);
    }
    count(Counter::kSynthCaptures, 1);
    count(Counter::kSynthPackets, packets.size());
    flow::MetaCollector collector(mac);
    flow::IngestPipeline pipeline;
    pipeline.add_sink(collector);
    {
      Span s(Layer::kFlowIngest);
      pipeline.ingest_all(packets);
      pipeline.finish();
    }
    note_ingest(pipeline, art);
    art.training.push_back(analysis::LabeledMeta{spec.activity, collector.take()});
  }

  std::string ingest_digest;
  {
    Span s(Layer::kCacheStore);
    const std::vector<std::uint8_t> payload = art.encode();
    count(Counter::kCacheStoreBytes, payload.size());
    ingest_digest =
        store.store(core::ingest_stage_key(params_, device, config), payload);
  }

  // The model, as analysis::train_activity_model: features, then
  // cross-validation and the final fit.
  analysis::ActivityModel model;
  model.device_id = device.id;
  model.config = config;
  {
    Span s(Layer::kAnalysisFeatures);
    model.dataset = analysis::build_dataset(art.training);
  }
  count(Counter::kFeatureUnits, model.dataset.size());
  if (!model.dataset.empty()) {
    Span s(Layer::kMlTrain);
    const ml::ValidationParams& v = params_.inference.validation;
    model.validation = ml::cross_validate(model.dataset, v,
                                          "cv/" + config.key() + "/" + device.id);
    util::Prng prng("fit/" + config.key() + "/" + device.id);
    model.forest.fit(model.dataset, v.forest, prng);
    count(Counter::kTrainTrees, v.forest.n_trees * (v.repetitions + 1));
  }
  core::ModelArtifact mart;
  {
    Span s(Layer::kAnalysisIdleDetect);
    mart.idle = analysis::detect_activity(device, art.idle_meta, model,
                                          params_.detector);
  }
  count(Counter::kIdleUnits, mart.idle.units_total);
  mart.model = model;
  {
    Span s(Layer::kCacheStore);
    const std::vector<std::uint8_t> payload = mart.encode();
    count(Counter::kCacheStoreBytes, payload.size());
    store.store(core::model_stage_key(params_, device, config, ingest_digest),
                payload);
  }

  pair.destinations = std::move(art.destinations);
  pair.enc_by_group = std::move(art.enc_by_group);
  pair.enc_total = art.enc_total;
  pair.pii_findings = std::move(art.pii_findings);
  pair.model = std::move(model);
}

// Mirrors Study::run_device on a cache hit: load + verify + decode both
// stages.
bool LayerCampaign::load_pair(Pair& pair, cache::ArtifactStore& store) {
  Span frame(Layer::kFramePair);
  const testbed::DeviceSpec& device = *pair.device;
  const testbed::NetworkConfig& config = pair.config;
  faults::CaptureHealth health;
  core::IngestArtifact art;
  std::string ingest_digest;
  {
    Span s(Layer::kCacheLoad);
    auto loaded =
        store.load(core::ingest_stage_key(params_, device, config), &health);
    if (!loaded) return false;
    count(Counter::kCacheLoadBytes, loaded->payload.size());
    art = core::IngestArtifact::decode(loaded->payload);
    ingest_digest = loaded->content_hex;
  }
  core::ModelArtifact mart;
  {
    Span s(Layer::kCacheLoad);
    auto loaded = store.load(
        core::model_stage_key(params_, device, config, ingest_digest), &health);
    if (!loaded) return false;
    count(Counter::kCacheLoadBytes, loaded->payload.size());
    mart = core::ModelArtifact::decode(loaded->payload);
  }
  pair.destinations = std::move(art.destinations);
  pair.enc_by_group = std::move(art.enc_by_group);
  pair.enc_total = art.enc_total;
  pair.pii_findings = std::move(art.pii_findings);
  pair.model = std::move(mart.model);
  return true;
}

// Mirrors Study::run_uncontrolled.
void LayerCampaign::run_uncontrolled() {
  if (!params_.run_uncontrolled) return;
  Span frame(Layer::kFramePhase);
  testbed::UserStudyResult study;
  {
    Span s(Layer::kTestbedUserStudy);
    study = testbed::UserStudySimulator().simulate(params_.user_study);
  }
  analysis::EncryptionBytes enc;
  for (const auto& [device_id, capture] : study.captures) {
    const testbed::DeviceSpec* device = testbed::find_device(device_id);
    if (device == nullptr) continue;
    flow::FlowTable table;
    flow::MetaCollector collector(testbed::device_mac(*device, true));
    flow::IngestPipeline pipeline;
    pipeline.add_sink(table);
    pipeline.add_sink(collector);
    std::vector<flow::Flow> flows;
    {
      Span s(Layer::kFlowIngest);
      pipeline.ingest_all(capture);
      pipeline.finish();
      flows = table.flows();
    }
    count(Counter::kIngestPackets, pipeline.packets_seen());
    count(Counter::kIngestBytes, pipeline.bytes_seen());
    {
      Span s(Layer::kAnalysisEncryption);
      enc += analysis::account_flows(flows);
    }
    count(Counter::kEncryptionFlows, flows.size());
    for (const Pair& p : pairs_) {
      if (p.config.key() != "us" || p.device->id != device_id) continue;
      if (!p.ok) break;
      Span s(Layer::kAnalysisUncontrolled);
      analysis::audit_uncontrolled(*device, collector.take(), p.model,
                                   study.events, params_.detector);
      break;
    }
  }
}

std::size_t LayerCampaign::mismatches(const core::Study& study,
                                    std::string& first) const {
  std::size_t bad = 0;
  for (const Pair& p : pairs_) {
    const core::DeviceRunResult* r = study.result_for(p.config.key(), p.device->id);
    const bool same =
        p.ok && r != nullptr &&
        pair_digest_bytes(p.destinations, p.enc_by_group, p.enc_total,
                          p.pii_findings) ==
            pair_digest_bytes(r->destinations, r->enc_by_group, r->enc_total,
                              r->pii_findings);
    if (!same) {
      if (bad == 0) first = p.config.key() + "/" + p.device->id;
      ++bad;
    }
  }
  return bad;
}

}  // namespace e2e
