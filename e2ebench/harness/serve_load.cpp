#include "serve_load.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "iotx/analysis/inference.hpp"
#include "iotx/net/pcap.hpp"
#include "iotx/serve/chaos.hpp"
#include "iotx/serve/detector.hpp"
#include "iotx/serve/http.hpp"
#include "iotx/serve/session.hpp"
#include "iotx/serve/tenant.hpp"
#include "iotx/testbed/catalog.hpp"
#include "iotx/testbed/experiment.hpp"
#include "iotx/testbed/synth.hpp"
#include "iotx/util/prng.hpp"
#include "ledger.hpp"

namespace e2e {

using namespace iotx;
using Clock = std::chrono::steady_clock;

namespace {

// One tenant per catalog category, all in the US lab.
constexpr const char* kTenantDevices[] = {
    "ring_doorbell", "philips_hue", "nest_tstat",
    "samsung_tv",    "echo_dot",    "samsung_fridge",
};

const testbed::NetworkConfig kConfig{testbed::LabSite::kUs, false};

// The `iotx train-detector` recipe: scheduled labeled experiments plus
// six background windows, 30 trees, 6 validation repetitions.
std::vector<std::uint8_t> train_detector(const testbed::DeviceSpec& device) {
  const testbed::ExperimentRunner runner(testbed::SchedulePlan{10, 10, 10, 0.0});
  std::vector<testbed::LabeledCapture> captures;
  for (const testbed::ExperimentSpec& spec : runner.schedule(device, kConfig)) {
    if (spec.type == testbed::ExperimentType::kIdle) continue;
    captures.push_back(runner.run(spec));
  }
  const testbed::TrafficSynthesizer synth;
  for (int i = 0; i < 6; ++i) {
    testbed::LabeledCapture bg;
    bg.spec.device_id = device.id;
    bg.spec.config = kConfig;
    bg.spec.type = testbed::ExperimentType::kInteraction;
    bg.spec.activity = std::string(analysis::kBackgroundLabel);
    bg.spec.repetition = i;
    util::Prng prng("detector-bg/" + device.id + "/" + std::to_string(i));
    bg.packets = synth.background(device, kConfig, 0.0, 60.0, prng);
    captures.push_back(std::move(bg));
  }
  analysis::InferenceParams params;
  params.validation.forest.n_trees = 30;
  params.validation.repetitions = 6;
  const analysis::ActivityModel model =
      analysis::train_activity_model(device, kConfig, captures, params);
  return serve::DetectorModel::from_activity_model(device, model).serialize();
}

std::vector<std::uint8_t> chunked_request(const std::string& tenant,
                                          const std::vector<std::uint8_t>& pcap) {
  std::string out = "POST /ingest/" + tenant +
                    " HTTP/1.1\r\nHost: chaos\r\nTransfer-Encoding: chunked\r\n\r\n";
  constexpr std::size_t kChunk = 4096;
  for (std::size_t off = 0; off < pcap.size(); off += kChunk) {
    const std::size_t take = std::min(kChunk, pcap.size() - off);
    char size[32];
    std::snprintf(size, sizeof size, "%zx\r\n", take);
    out += size;
    out.append(reinterpret_cast<const char*>(pcap.data() + off), take);
    out += "\r\n";
  }
  out += "0\r\n\r\n";
  return {out.begin(), out.end()};
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// One upload through the layers the daemon's connection worker calls, in
// 16 KiB reads like its recv loop.
void replay_upload(const ServeUpload& upload, serve::TenantState& tenant) {
  constexpr std::size_t kRead = 16384;
  const std::span<const std::uint8_t> bytes(upload.request);
  serve::HttpHeadParser head;
  serve::ChunkedDecoder decoder;
  serve::IngestSession session(serve::AdmissionMode::kAccept, {},
                               tenant.detector().current());
  std::vector<std::uint8_t> decoded;
  bool in_body = false;
  const auto body = [&](std::span<const std::uint8_t> part) {
    {
      Span s(Layer::kServeHttpParse);
      decoded.clear();
      decoder.feed(part, decoded);
    }
    Span s(Layer::kServeSession);
    session.feed(decoded);
  };
  for (std::size_t off = 0; off < bytes.size(); off += kRead) {
    const auto part = bytes.subspan(off, std::min(kRead, bytes.size() - off));
    if (in_body) {
      body(part);
      continue;
    }
    serve::HttpHeadParser::Status status;
    {
      Span s(Layer::kServeHttpParse);
      status = head.feed(part);
    }
    if (status == serve::HttpHeadParser::Status::kComplete) {
      in_body = true;
      body(head.leftover());
    }
  }
  count(Counter::kHttpBytes, bytes.size());
  {
    Span s(Layer::kServeSession);
    session.finish();
  }
  count(Counter::kSessionPackets, session.packets());
  if (session.state() != serve::IngestSession::State::kComplete) {
    Span s(Layer::kServeSession);
    session.fold_into(tenant);
    return;
  }
  serve::DetectionOutcome outcome;
  {
    Span s(Layer::kServeDetect);
    outcome = session.detections();
  }
  count(Counter::kDetectUnits, outcome.units_total);
  Span s(Layer::kServeSession);
  tenant.fold_session(session.flow_summaries(), session.encryption(),
                      session.health(), session.packets(), session.bytes_fed(),
                      session.degraded());
  if (const auto model = tenant.detector().current()) {
    tenant.fold_detections(outcome, model->digest());
  }
}

}  // namespace

ServeSetup make_serve_setup(bool smoke) {
  // Each tenant uploads its device's campaign as the study schedules it
  // in the US lab: every power and interaction experiment and the idle
  // window, one capture per upload, synthesized by the same runner.
  const testbed::ExperimentRunner runner(smoke ? testbed::SchedulePlan{1, 1, 1, 0.25}
                                               : testbed::SchedulePlan{});
  ServeSetup setup;
  for (const char* id : kTenantDevices) {
    const testbed::DeviceSpec& device = *testbed::find_device(id);
    const std::size_t tenant = setup.tenants.size();
    setup.tenants.push_back(device.id);
    setup.models.push_back(train_detector(device));
    for (const testbed::ExperimentSpec& spec : runner.schedule(device, kConfig)) {
      ServeUpload upload;
      upload.tenant = tenant;
      upload.long_window = spec.type == testbed::ExperimentType::kIdle;
      upload.pcap = net::pcap_serialize(runner.run(spec, device).packets);
      upload.request = chunked_request(device.id, upload.pcap);
      setup.pool.push_back(std::move(upload));
    }
  }
  return setup;
}

std::vector<Request> make_schedule(const ServeSetup& setup, std::uint64_t seed,
                                   std::size_t uploads) {
  // Whole passes over the pool, so every seed moves the same bytes. In a
  // pass each tenant sends its uploads in schedule order and reads its
  // report after the last one; the seed interleaves the tenants.
  std::vector<std::vector<std::size_t>> streams(setup.tenants.size());
  for (std::size_t i = 0; i < setup.pool.size(); ++i) {
    streams[setup.pool[i].tenant].push_back(i);
  }
  util::Prng prng("e2e/serve/schedule/" + std::to_string(seed));
  std::vector<Request> schedule;
  for (std::size_t sent = 0; sent < uploads;) {
    std::vector<std::size_t> turns;
    for (std::size_t t = 0; t < streams.size(); ++t) {
      turns.insert(turns.end(), streams[t].size(), t);
    }
    prng.shuffle(turns);
    std::vector<std::size_t> cursor(streams.size(), 0);
    for (const std::size_t t : turns) {
      Request r;
      r.tenant = t;
      r.upload = streams[t][cursor[t]++];
      schedule.push_back(r);
      if (cursor[t] == streams[t].size()) {
        r.report = true;
        schedule.push_back(r);
      }
    }
    sent += setup.pool.size();
  }
  return schedule;
}

std::unique_ptr<serve::Daemon> start_daemon(const ServeSetup& setup,
                                            std::size_t max_sessions) {
  serve::ServeConfig config;
  config.port = 0;
  config.max_sessions = max_sessions;
  config.jobs = 1;
  auto daemon = std::make_unique<serve::Daemon>(config);
  if (!daemon->start()) return nullptr;
  serve::ChaosClient client("127.0.0.1", daemon->port());
  for (std::size_t t = 0; t < setup.tenants.size(); ++t) {
    if (client.post("/model/" + setup.tenants[t], setup.models[t]).status_code != 200) {
      return nullptr;
    }
  }
  return daemon;
}

bool LoadResult::backlog_grew() const {
  return last_tenth_ms > first_tenth_ms + 0.25 * kUploadLimitMs;
}

LoadResult run_open_loop(std::uint16_t port, const ServeSetup& setup,
                         const std::vector<Request>& schedule,
                         double upload_rate, std::size_t connections) {
  const std::size_t n = schedule.size();
  const std::size_t uploads = static_cast<std::size_t>(std::count_if(
      schedule.begin(), schedule.end(), [](const Request& r) { return !r.report; }));
  const double interval_s =
      static_cast<double>(uploads) / (upload_rate * static_cast<double>(n));
  std::vector<double> latency(n, 0.0), late(n, 0.0);
  std::vector<char> ok(n, 0);
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < std::max<std::size_t>(1, connections); ++c) {
    threads.emplace_back([&] {
      serve::ChaosClient client("127.0.0.1", port);
      for (std::size_t i = next++; i < n; i = next++) {
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(interval_s * i));
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        const Request& r = schedule[i];
        const serve::ChaosResult res =
            r.report ? client.get("/report/" + setup.tenants[r.tenant])
                     : client.upload_chunked(setup.tenants[r.tenant],
                                             setup.pool[r.upload].pcap);
        const auto done = Clock::now();
        latency[i] = ms_between(due, done);
        late[i] = ms_between(due, sent);
        ok[i] = res.status_code == 200;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoadResult out;
  const double inf = std::numeric_limits<double>::infinity();
  double first = 0.0, last = 0.0;
  std::size_t first_n = 0, last_n = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.late_ms.push_back(late[i]);
    if (schedule[i].report) {
      out.report_ms.push_back(ok[i] ? latency[i] : inf);
      out.report_failures += ok[i] ? 0 : 1;
      continue;
    }
    out.upload_ms.push_back(ok[i] ? latency[i] : inf);
    out.upload_failures += ok[i] ? 0 : 1;
    if (i < n / 10) {
      first += late[i];
      ++first_n;
    } else if (i >= n - n / 10) {
      last += late[i];
      ++last_n;
    }
  }
  out.first_tenth_ms = first_n > 0 ? first / static_cast<double>(first_n) : 0.0;
  out.last_tenth_ms = last_n > 0 ? last / static_cast<double>(last_n) : 0.0;
  return out;
}

std::vector<double> ladder_rates() {
  std::vector<double> rates;
  for (double r = 50.0; r < 40000.0; r *= 1.05) rates.push_back(std::round(r));
  return rates;
}

ReplayResult replay(const ServeSetup& setup, const std::vector<Request>& schedule,
                    std::size_t jobs) {
  std::vector<std::unique_ptr<serve::TenantState>> tenants;
  for (std::size_t t = 0; t < setup.tenants.size(); ++t) {
    tenants.push_back(std::make_unique<serve::TenantState>(setup.tenants[t]));
    tenants.back()->detector().install(setup.models[t]);
  }
  std::vector<double> took(schedule.size(), 0.0);
  std::atomic<std::size_t> next{0};
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t j = 0; j < std::max<std::size_t>(1, jobs); ++j) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < schedule.size(); i = next++) {
        const Request& r = schedule[i];
        const auto start = Clock::now();
        Span frame(Layer::kFrameRequest);
        if (r.report) {
          Span s(Layer::kServeReport);
          (void)tenants[r.tenant]->report_json();
        } else {
          replay_upload(setup.pool[r.upload], *tenants[r.tenant]);
        }
        took[i] = ms_between(start, Clock::now());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ReplayResult out;
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.cpu_s = process_cpu_s() - cpu0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (!schedule[i].report) out.upload_ms.push_back(took[i]);
  }
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double tail_quantile(std::size_t samples) {
  const double q = 1.0 - 10.0 / static_cast<double>(std::max<std::size_t>(1, samples));
  return std::clamp(q, 0.5, 0.99);
}

}  // namespace e2e
