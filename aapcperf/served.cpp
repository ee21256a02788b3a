// The served workloads: serve_hot (open loop, small clusters, all
// hits), serve_large (closed loop, 256/1024-rank clusters, megabyte
// responses) and serve_churn (serve_hot-style open loop against a
// fabric server while a control connection degrades and restores trunk
// links). Every request goes over loopback to an aapc_netd child.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "aapc/core/schedule_io.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/netd/client.hpp"
#include "perf.hpp"

namespace aapc::perf {
namespace {

// One process drives the load with at most nproc (4) threads: open
// loops use the pacing thread plus one receiver per connection (and the
// churn controller on serve_churn); the closed loop uses 4 callers.
constexpr std::size_t kLoaders = 4;
constexpr double kHotRps = 1000;
constexpr double kChurnRps = 1000;
constexpr double kChurnPeriod = 0.5;  // seconds between churn events
/// A run is marked invalid when the generator's p99 lateness exceeds
/// this share of the p99 latency it measures.
constexpr double kMaxLagShare = 0.5;
constexpr double kLargeWindow = 2.0;  // seconds; serve_large's windows
constexpr std::chrono::microseconds kSpinAhead{200};

const double kFailedLatency = std::numeric_limits<double>::infinity();

/// Checks one response against its cell; returns an empty string when
/// it is correct.
std::string check_digest(const Cell& cell, const netd::ResponseFrame& resp) {
  if (artifact_digest(resp.schedule_json, resp.to_canonical) !=
      cell.expected) {
    return "artifact differs from the in-process compile";
  }
  return {};
}

std::string check_contention_free(const Cell& cell,
                                  const netd::ResponseFrame& resp) {
  try {
    const core::Schedule schedule = core::schedule_from_json(
        resp.schedule_json, cell.topo.machine_count());
    core::require_contention_free(cell.topo, schedule);
  } catch (const std::exception& e) {
    return std::string("fabric schedule not contention-free: ") + e.what();
  }
  return {};
}

/// Sends every cell once (the server compiles and caches it) and checks
/// each answer; failures count against the run.
void warm(netd::Client& client, const std::vector<Cell>& cells, bool digest,
          RunResult& result) {
  for (const Cell& cell : cells) {
    ++result.attempted;
    try {
      const netd::ResponseFrame resp =
          client.compile_serialized(cell.text, cell.msize, "warm");
      const std::string bad = digest ? check_digest(cell, resp)
                                     : check_contention_free(cell, resp);
      if (!bad.empty()) result.fail("warm-up: " + bad);
    } catch (const std::exception& e) {
      result.fail(std::string("warm-up: ") + e.what());
    }
  }
}

/// Everything a served workload sets up before timing: expected
/// artifacts, a started server, every cell compiled server-side.
struct ServedSetup {
  std::vector<Cell> cells;        // digest-checked cells
  std::vector<Cell> fabric_cells; // contention-checked (serve_churn)
  std::unique_ptr<NetdProcess> netd;
};

/// Sleeps to shortly before `due`, then spins: a sleeping loader woken
/// by the timer alone runs late by the host's wake-up latency, which
/// would be charged to the server.
void pace_until(Clock::time_point due) {
  std::this_thread::sleep_until(due - kSpinAhead);
  while (Clock::now() < due) {
  }
}

struct FabricSample {
  double at = 0;  // completion, seconds since start
  std::uint64_t epoch = 0;
  bool stale = false;
};

/// What an open loop recorded, per request number.
struct OpenLoopRun {
  std::vector<double> latency;  // from the scheduled send
  std::vector<double> lag;      // actual send minus scheduled send
  std::int64_t hits = 0;
  std::vector<FabricSample> fabric;
};

/// Open loop: request i is due at start + i/rps and is timed from then.
/// The calling thread paces every send, round-robin over `connections`
/// pipelined connections, and one receiver per connection times and
/// checks the answers; so a slow answer never delays a later send.
/// `pick(i)` names the request's cell (index into cells, then
/// fabric_cells past the end of cells).
template <typename Pick>
OpenLoopRun open_loop(const ServedSetup& setup, double rps, double seconds,
                      std::size_t connections, Pick pick, RunResult& result,
                      Clock::time_point start) {
  const std::size_t total = static_cast<std::size_t>(rps * seconds);
  OpenLoopRun run;
  run.latency.assign(total, kFailedLatency);
  run.lag.assign(total, 0);
  std::vector<Clock::time_point> due(total);
  std::vector<std::string> frames(total);
  for (std::size_t i = 0; i < total; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(i) / rps));
    const std::size_t c = pick(i);
    const Cell& cell = c < setup.cells.size()
                           ? setup.cells[c]
                           : setup.fabric_cells[c - setup.cells.size()];
    netd::RequestFrame request;
    request.request_id = i + 1;
    request.message_bytes = cell.msize;
    request.tenant = "bench";
    request.topology_text = cell.text;
    frames[i] = netd::encode_request(request);
  }
  std::vector<std::unique_ptr<netd::Client>> clients;
  for (std::size_t k = 0; k < connections; ++k) {
    clients.push_back(
        std::make_unique<netd::Client>("127.0.0.1", setup.netd->port()));
  }
  std::atomic<std::int64_t> hits{0};
  std::vector<std::vector<FabricSample>> fabric(connections);
  std::mutex fail_mutex;
  const auto fail = [&](const std::string& why) {
    const std::lock_guard<std::mutex> lock(fail_mutex);
    result.fail(why);
  };

  // Connection k carries requests k, k + connections, ...
  std::vector<std::thread> receivers;
  for (std::size_t k = 0; k < connections; ++k) {
    receivers.emplace_back([&, k] {
      const std::size_t expected = (total + connections - 1 - k) / connections;
      for (std::size_t got = 0; got < expected; ++got) {
        netd::Frame frame;
        try {
          frame = clients[k]->read_frame();
        } catch (const std::exception& e) {
          fail(std::string("receive: ") + e.what());
          return;
        }
        const Clock::time_point now = Clock::now();
        netd::ResponseFrame resp;
        try {
          if (frame.header.type == netd::FrameType::kError) {
            fail("refused: " + netd::decode_error(frame).message);
            continue;
          }
          resp = netd::decode_response(frame);
        } catch (const std::exception& e) {
          fail(std::string("bad frame: ") + e.what());
          continue;
        }
        const std::size_t i = resp.request_id - 1;
        if (i >= total || i % connections != k) {
          fail("response for an unknown request");
          continue;
        }
        const std::size_t c = pick(i);
        std::string bad;
        if (c < setup.cells.size()) {
          bad = check_digest(setup.cells[c], resp);
        } else {
          fabric[k].push_back(
              {seconds_between(start, now), resp.epoch, resp.stale});
          bad = check_contention_free(
              setup.fabric_cells[c - setup.cells.size()], resp);
        }
        if (bad.empty()) {
          run.latency[i] = seconds_between(due[i], now);
          if (resp.cache_hit) hits.fetch_add(1);
        } else {
          fail(bad);
        }
      }
    });
  }
  // Wake-ups as close to the deadline as the kernel allows.
  prctl(PR_SET_TIMERSLACK, 1UL);
  // A connection whose send failed takes no more requests (its receiver
  // has stopped on the same error); those requests count as failed.
  std::vector<bool> lost(connections, false);
  for (std::size_t i = 0; i < total; ++i) {
    pace_until(due[i]);
    run.lag[i] = seconds_since(due[i]);
    const std::size_t k = i % connections;
    if (lost[k]) {
      fail("send: connection lost");
      continue;
    }
    try {
      clients[k]->send_raw(frames[i]);
    } catch (const std::exception& e) {
      lost[k] = true;
      fail(std::string("send: ") + e.what());
    }
  }
  for (std::thread& t : receivers) t.join();
  result.attempted += static_cast<std::int64_t>(total);
  run.hits = hits.load();
  for (const auto& f : fabric) {
    run.fabric.insert(run.fabric.end(), f.begin(), f.end());
  }
  return run;
}

/// Latency, lateness and validity of an open-loop run, in one-second
/// windows of scheduled send time; times are multiplied by `factor`
/// (the run's speed_factor).
void report_open_loop(RunResult& result, const OpenLoopRun& run, double rps,
                      double elapsed, double factor) {
  const std::size_t per_window = static_cast<std::size_t>(rps);
  std::vector<std::vector<double>> latency, lag;
  for (std::size_t i = 0; i < run.latency.size(); ++i) {
    if (i % per_window == 0) {
      latency.emplace_back();
      lag.emplace_back();
    }
    latency.back().push_back(run.latency[i] * factor);
    lag.back().push_back(run.lag[i] * factor);
  }
  report_latencies(result, latency);
  const auto answered = std::count_if(
      run.latency.begin(), run.latency.end(),
      [](double l) { return l != kFailedLatency; });
  result.set("throughput_rps", static_cast<double>(answered) / elapsed, "1/s");
  std::vector<double> lag_p99;
  for (const std::vector<double>& window : lag) {
    lag_p99.push_back(quantile(window, 0.99));
  }
  const double lag_p99_ms = median(lag_p99) * 1e3;
  result.note("gen_lag_p99_ms", lag_p99_ms, "ms");
  result.note("hit_ratio",
              static_cast<double>(run.hits) /
                  static_cast<double>(run.latency.size()),
              "ratio");
  const bool valid =
      lag_p99_ms <= kMaxLagShare * result.extra["latency_p99_ms"].value;
  result.note("open_loop_valid", valid ? 1 : 0, "bool");
  result.notes["open_loop_rule"] =
      "valid when gen_lag_p99_ms <= 0.5 x latency_p99_ms";
}

ServedSetup hot_setup(const RunOptions& options, RunResult& result,
                      const std::vector<std::string>& netd_args,
                      bool with_fabric) {
  ServedSetup setup;
  setup.cells = hot_cells(options.seed);
  compute_expected(setup.cells);
  if (with_fabric) setup.fabric_cells = fabric_cells(options.seed);
  setup.netd = std::make_unique<NetdProcess>(options.netd_path, netd_args);
  netd::Client client("127.0.0.1", setup.netd->port());
  warm(client, setup.cells, /*digest=*/true, result);
  warm(client, setup.fabric_cells, /*digest=*/false, result);
  return setup;
}

}  // namespace

RunResult run_serve_hot(const RunOptions& options) {
  RunResult result;
  ServedSetup setup = repeat_setup(
      [&](RunResult& r) { return hot_setup(options, r, {}, false); }, result);
  const std::vector<std::size_t> sequence = hot_sequence(
      options.seed, static_cast<std::size_t>(kHotRps * options.seconds));
  const double before = calibration_seconds();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  const OpenLoopRun run =
      open_loop(setup, kHotRps, options.seconds, kLoaders - 1,
                [&](std::size_t i) { return sequence[i]; }, result, start);
  const double elapsed = seconds_since(start);
  report_open_loop(result, run, kHotRps, elapsed,
                   speed_factor(before, calibration_seconds()));
  result.set("peak_rss_mb", setup.netd->peak_rss_mb(), "MiB");
  result.notes["traffic"] = "loopback TCP to an aapc_netd child process";
  return result;
}

RunResult run_serve_churn(const RunOptions& options) {
  RunResult result;
  ServedSetup setup = repeat_setup(
      [&](RunResult& r) {
        return hot_setup(options, r, fabric_netd_args(), true);
      },
      result);
  const std::vector<std::size_t> sequence = churn_sequence(
      options.seed, static_cast<std::size_t>(kChurnRps * options.seconds),
      setup.cells.size(), setup.fabric_cells.size());
  Rng rng(options.seed * 0x1B873593u + 13);

  // Churn timeline on its own control connection: degrade a trunk, then
  // restore it, one event per period, trunks in seeded order.
  struct Ack {
    double at = 0;
    std::uint64_t epoch = 0;
  };
  std::vector<Ack> acks;
  std::string churn_error;
  const std::int32_t events =
      std::max<std::int32_t>(2, static_cast<std::int32_t>(
                                    (options.seconds - kChurnPeriod) /
                                    kChurnPeriod) & ~1);
  std::vector<std::int32_t> trunks;
  for (std::int32_t e = 0; e < events / 2; ++e) {
    trunks.push_back(static_cast<std::int32_t>(rng.next_below(kFabricSwitches)));
  }
  const double before = calibration_seconds();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  std::thread churner([&] {
    try {
      netd::Client control("127.0.0.1", setup.netd->port());
      for (std::int32_t e = 0; e < events; ++e) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>((e + 0.5) *
                                                      kChurnPeriod)));
        const std::int32_t trunk = trunks[static_cast<std::size_t>(e / 2)];
        const netd::ChurnAckFrame ack =
            e % 2 == 0 ? control.churn(netd::ChurnKind::kLinkDegrade, trunk, 0.5)
                       : control.churn(netd::ChurnKind::kLinkUp, trunk);
        acks.push_back({seconds_since(start), ack.epoch});
      }
    } catch (const std::exception& e) {
      churn_error = e.what();
    }
  });
  const OpenLoopRun run =
      open_loop(setup, kChurnRps, options.seconds, kLoaders - 2,
                [&](std::size_t i) { return sequence[i]; }, result, start);
  churner.join();
  const double elapsed = seconds_since(start);
  report_open_loop(result, run, kChurnRps, elapsed,
                   speed_factor(before, calibration_seconds()));

  ++result.attempted;
  if (!churn_error.empty()) result.fail("churn control: " + churn_error);
  // Epoch bookkeeping: acks count 1..events and a final fabric request
  // reads the last one back.
  ++result.attempted;
  try {
    netd::Client client("127.0.0.1", setup.netd->port());
    const netd::ResponseFrame last = client.compile_serialized(
        setup.fabric_cells[0].text, setup.fabric_cells[0].msize, "bench");
    bool ordered = static_cast<std::int32_t>(acks.size()) == events;
    for (std::size_t e = 0; ordered && e < acks.size(); ++e) {
      ordered = acks[e].epoch == e + 1;
    }
    if (!ordered || last.epoch != static_cast<std::uint64_t>(events)) {
      result.fail("final epoch " + std::to_string(last.epoch) + " after " +
                  std::to_string(acks.size()) + " acked of " +
                  std::to_string(events) + " events");
    }
  } catch (const std::exception& e) {
    result.fail(std::string("final epoch check: ") + e.what());
  }

  // Stale window per event: ack to the first fresh fabric response at or
  // above the acked epoch.
  const std::vector<FabricSample>& samples = run.fabric;
  std::int64_t stale_served = 0;
  for (const FabricSample& s : samples) stale_served += s.stale ? 1 : 0;
  std::vector<double> windows;
  for (const Ack& ack : acks) {
    double first = -1;
    for (const FabricSample& s : samples) {
      if (s.at >= ack.at && !s.stale && s.epoch >= ack.epoch &&
          (first < 0 || s.at < first)) {
        first = s.at;
      }
    }
    ++result.attempted;
    if (first < 0) {
      result.fail("no fresh fabric response after churn epoch " +
                  std::to_string(ack.epoch));
    } else {
      windows.push_back((first - ack.at) * 1e3);
    }
  }
  result.note("stale_window_ms", median(windows), "ms");
  result.note("stale_served", static_cast<double>(stale_served), "count");
  result.note("churn_events", static_cast<double>(acks.size()), "count");
  result.set("peak_rss_mb", setup.netd->peak_rss_mb(), "MiB");
  result.notes["traffic"] = "loopback TCP to an aapc_netd child process";
  return result;
}

RunResult run_serve_large(const RunOptions& options) {
  RunResult result;
  ServedSetup setup = repeat_setup(
      [&](RunResult& r) {
        ServedSetup s;
        s.cells = large_cells(options.seed);
        compute_expected(s.cells);
        s.netd = std::make_unique<NetdProcess>(options.netd_path,
                                               std::vector<std::string>{});
        netd::Client client("127.0.0.1", s.netd->port());
        warm(client, s.cells, true, r);
        return s;
      },
      result);

  // Closed loop: each caller sends its next request when the previous
  // reply arrived. The run is cut into windows of kLargeWindow seconds;
  // between windows the callers finish their last request and the host
  // is calibrated while nothing else runs.
  const std::vector<std::size_t> sequence =
      large_sequence(options.seed, 100000, setup.cells);
  std::size_t next = 0;
  std::vector<std::unique_ptr<netd::Client>> clients;
  for (std::size_t w = 0; w < kLoaders; ++w) {
    clients.push_back(
        std::make_unique<netd::Client>("127.0.0.1", setup.netd->port()));
  }
  std::vector<std::vector<double>> windows;
  std::vector<double> rates;
  std::vector<double> calibrations = {calibration_seconds(kLoaders)};
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point window_start = Clock::now();
    const Clock::time_point window_end =
        window_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kLargeWindow));
    std::vector<std::vector<double>> latency(kLoaders);
    std::vector<std::vector<std::string>> bad(kLoaders);
    std::vector<std::thread> callers;
    for (std::size_t w = 0; w < kLoaders; ++w) {
      callers.emplace_back([&, w] {
        // Caller w takes requests w, w + kLoaders, ... of this window.
        for (std::size_t i = next + w; Clock::now() < window_end;
             i += kLoaders) {
          const Cell& cell = setup.cells[sequence[i % sequence.size()]];
          const Clock::time_point sent = Clock::now();
          try {
            const netd::ResponseFrame resp =
                clients[w]->compile_serialized(cell.text, cell.msize, "bench");
            latency[w].push_back(seconds_since(sent));
            const std::string why = check_digest(cell, resp);
            if (!why.empty()) bad[w].push_back(why);
          } catch (const std::exception& e) {
            latency[w].push_back(kFailedLatency);
            bad[w].push_back(e.what());
          }
        }
      });
    }
    for (std::thread& t : callers) t.join();
    const double elapsed = seconds_since(window_start);
    std::vector<double> window;
    std::size_t rounds = 0;
    for (std::size_t w = 0; w < kLoaders; ++w) {
      window.insert(window.end(), latency[w].begin(), latency[w].end());
      for (const std::string& why : bad[w]) result.fail(why);
      rounds = std::max(rounds, latency[w].size());
    }
    next += rounds * kLoaders;
    result.attempted += static_cast<std::int64_t>(window.size());
    rates.push_back(static_cast<double>(std::count_if(
                        window.begin(), window.end(),
                        [](double l) { return l != kFailedLatency; })) /
                    elapsed);
    windows.push_back(std::move(window));
    calibrations.push_back(calibration_seconds(kLoaders));
  } while (seconds_since(start) + kLargeWindow <= options.seconds);
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const double factor = speed_factor(calibrations[k], calibrations[k + 1],
                                       kReferenceCalibration4);
    for (double& l : windows[k]) l *= factor;
    rates[k] /= factor;
  }
  report_latencies(result, windows);
  report_throughput(result, rates);
  result.note("calibration_ms", median(calibrations) * 1e3, "ms");
  result.set("peak_rss_mb", setup.netd->peak_rss_mb(), "MiB");
  result.notes["traffic"] = "loopback TCP to an aapc_netd child process";
  return result;
}

}  // namespace aapc::perf
