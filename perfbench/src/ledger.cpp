// Per-layer metrics and the ledger that reconciles them with the client's
// end-to-end medians.
//
// Three sources, none of them instrumentation inside src/:
//   - before/after deltas of the site's GET /metrics families;
//   - client-side samples and spans from the load threads;
//   - replays of single layers (ScriptAnalyzer, the native plugin,
//     DatasetReader::read_batch, AidaManager push+poll, Tree::deserialize,
//     GridSession::poll on an idle session) on the workload's own dataset,
//     histogram shape and site.
#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.hpp"
#include "client/grid_client.hpp"
#include "data/dataset.hpp"
#include "data/record_batch.hpp"
#include "engine/analyzer.hpp"
#include "loadgen/promparse.hpp"
#include "physics/event_gen.hpp"
#include "services/aida_manager.hpp"

namespace perfbench {
namespace {

using namespace ipa;
using loadgen::HistogramSeries;

constexpr std::uint64_t kScriptReplayRecords = 1000;
constexpr std::uint64_t kMaxReplayRecords = 100000;

// --- /metrics deltas -----------------------------------------------------------

HistogramSeries hist_delta(const HistogramSeries& after, const HistogramSeries* before) {
  HistogramSeries out = after;
  if (before == nullptr || before->cumulative.size() != after.cumulative.size()) return out;
  for (std::size_t i = 0; i < out.cumulative.size(); ++i) {
    out.cumulative[i] -= std::min(out.cumulative[i], before->cumulative[i]);
  }
  out.sum -= before->sum;
  out.count -= std::min(out.count, before->count);
  return out;
}

// Delta of every series of `family`, keyed by `label`.
std::map<std::string, HistogramSeries> hist_family_delta(const std::string& before,
                                                         const std::string& after,
                                                         std::string_view family,
                                                         std::string_view label) {
  const auto b = loadgen::parse_histogram_family(before, family, label);
  std::map<std::string, HistogramSeries> out;
  for (const auto& [key, series] : loadgen::parse_histogram_family(after, family, label)) {
    const auto it = b.find(key);
    out[key] = hist_delta(series, it == b.end() ? nullptr : &it->second);
  }
  return out;
}

// All series of a family folded into one (same bucket bounds assumed).
HistogramSeries fold(const std::map<std::string, HistogramSeries>& family) {
  HistogramSeries out;
  for (const auto& [key, series] : family) {
    if (out.cumulative.empty()) {
      out = series;
      continue;
    }
    if (series.cumulative.size() != out.cumulative.size()) continue;
    for (std::size_t i = 0; i < out.cumulative.size(); ++i) {
      out.cumulative[i] += series.cumulative[i];
    }
    out.sum += series.sum;
    out.count += series.count;
  }
  return out;
}

double mean_of(const HistogramSeries& series) {
  return series.count == 0 ? 0.0 : series.sum / static_cast<double>(series.count);
}

double quantile_of(const HistogramSeries& series, double q) {
  return series.count == 0 ? 0.0 : series.quantile(q);
}

// Keyed by a label no series carries, every series gets its own entry.
double scalar_sum(const std::string& exposition, std::string_view family) {
  double total = 0;
  for (const auto& [key, value] :
       loadgen::parse_scalar_family(exposition, family, "__perfbench_none")) {
    total += value;
  }
  return total;
}

double scalar_delta(const std::string& before, const std::string& after,
                    std::string_view family) {
  return scalar_sum(after, family) - scalar_sum(before, family);
}

double labeled_delta(const std::string& before, const std::string& after,
                     std::string_view family, std::string_view label, const std::string& value) {
  const auto b = loadgen::parse_scalar_family(before, family, label);
  const auto a = loadgen::parse_scalar_family(after, family, label);
  const auto ia = a.find(value);
  const auto ib = b.find(value);
  return (ia == a.end() ? 0.0 : ia->second) - (ib == b.end() ? 0.0 : ib->second);
}

// --- replays -------------------------------------------------------------------

struct Decoded {
  std::vector<data::RecordBatch> batches;
  std::uint64_t records = 0;
  double decode_s = 0;
};

Result<Decoded> decode_dataset(const std::string& path, std::uint64_t max_records) {
  IPA_ASSIGN_OR_RETURN(data::DatasetReader reader, data::DatasetReader::open(path));
  Decoded out;
  const double t0 = now_s();
  while (out.records < max_records) {
    data::RecordBatch batch = reader.make_batch();
    IPA_ASSIGN_OR_RETURN(const std::uint64_t rows,
                         reader.read_batch(batch, std::min<std::uint64_t>(
                                                      256, max_records - out.records)));
    if (rows == 0) break;
    out.records += rows;
    out.batches.push_back(std::move(batch));
  }
  out.decode_s = now_s() - t0;
  return out;
}

// Microseconds per event of `bundle` over pre-decoded batches.
Result<double> analyzer_us_per_event(const engine::CodeBundle& bundle, const Decoded& data,
                                     std::uint64_t max_records) {
  IPA_ASSIGN_OR_RETURN(std::unique_ptr<engine::Analyzer> analyzer, engine::make_analyzer(bundle));
  aida::Tree tree;
  IPA_RETURN_IF_ERROR(analyzer->begin(tree));
  std::uint64_t records = 0;
  const double t0 = now_s();
  for (const data::RecordBatch& batch : data.batches) {
    if (records >= max_records) break;
    IPA_RETURN_IF_ERROR(analyzer->process_batch(batch, tree));
    records += batch.rows();
  }
  const double elapsed = now_s() - t0;
  return records == 0 ? 0.0 : elapsed / static_cast<double>(records) * 1e6;
}

Result<double> script_compile_s() {
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_s();
    IPA_RETURN_IF_ERROR(engine::ScriptAnalyzer::compile(physics::higgs_script()).status());
    samples.push_back(now_s() - t0);
  }
  return quantile(samples, 0.5);
}

// One merged-tree rebuild at the workload's engines x histogram shape:
// every engine holds the reference tree, one engine pushes, the poll merges.
Result<double> merge_replay_s(int engines, const aida::Tree& reference) {
  services::AidaManager aida;
  const std::string session = "perfbench-replay";
  IPA_RETURN_IF_ERROR(aida.open_session(session));
  services::PushRequest push;
  push.session_id = session;
  push.report.state = engine::EngineState::kRunning;
  push.snapshot = reference.serialize();
  for (int e = 0; e < engines; ++e) {
    push.report.engine_id = "eng" + std::to_string(e);
    IPA_RETURN_IF_ERROR(aida.push(push));
  }
  std::vector<double> samples;
  std::uint64_t version = 0;
  for (int k = 0; k < 40; ++k) {
    push.report.engine_id = "eng" + std::to_string(k % engines);
    push.report.processed = static_cast<std::uint64_t>(k);
    IPA_RETURN_IF_ERROR(aida.push(push));
    const double t0 = now_s();
    IPA_ASSIGN_OR_RETURN(const services::PollResponse response, aida.poll(session, version));
    samples.push_back(now_s() - t0);
    version = response.version;
  }
  return quantile(samples, 0.5);
}

// Client-side decode of one merged tree of the reference's shape.
Result<double> tree_decode_s(const aida::Tree& reference) {
  const ser::Bytes bytes = reference.serialize();
  std::vector<double> samples;
  for (int k = 0; k < 40; ++k) {
    const double t0 = now_s();
    IPA_RETURN_IF_ERROR(aida::Tree::deserialize(bytes).status());
    samples.push_back(now_s() - t0);
  }
  return quantile(samples, 0.5);
}

// The poll RPC alone: GridSession::poll on an idle session of the
// workload's size whose tree never changes, so no merge or decode runs.
Result<double> poll_round_trip_s(const Site& site, int engines) {
  IPA_ASSIGN_OR_RETURN(client::GridClient client,
                       client::GridClient::connect(site.soap(), site.proxy()));
  IPA_ASSIGN_OR_RETURN(client::GridSession session, client.create_session(engines));
  IPA_RETURN_IF_ERROR(session.activate());
  IPA_RETURN_IF_ERROR(session.poll().status());  // connect the polling client
  std::vector<double> samples;
  for (int k = 0; k < 200; ++k) {
    const double t0 = now_s();
    IPA_ASSIGN_OR_RETURN(const client::PollUpdate update, session.poll());
    if (!update.changed) samples.push_back(now_s() - t0);
  }
  IPA_RETURN_IF_ERROR(session.close());
  return quantile(samples, 0.5);
}

// --- reconciliation ------------------------------------------------------------

struct Layer {
  std::string name;
  double seconds = 0;
};

// Print each layer's share of `total`, the share the measured layers
// account for, and the dominant measured layer. The rest of `total` is
// printed as "unaccounted" and never named dominant.
double print_ledger(const std::string& workload, const std::string& metric, double total,
                    const std::vector<Layer>& measured) {
  double sum = 0;
  for (const Layer& layer : measured) sum += layer.seconds;
  const double accounted = total > 0 ? sum / total : 0;
  const auto dominant =
      std::max_element(measured.begin(), measured.end(),
                       [](const Layer& a, const Layer& b) { return a.seconds < b.seconds; });
  const auto share = [&](double seconds) { return total > 0 ? 100 * seconds / total : 0; };
  std::printf("ledger %s %s p50=%.6g s:", workload.c_str(), metric.c_str(), total);
  for (const Layer& layer : measured) std::printf(" %s=%.1f%%", layer.name.c_str(), share(layer.seconds));
  std::printf(" unaccounted=%.1f%% | accounted=%.1f%% | dominant=%s\n",
              share(std::max(0.0, total - sum)), 100 * accounted,
              dominant == measured.end() ? "none" : dominant->name.c_str());
  return accounted;
}

double median(const std::vector<double>& samples) { return quantile(samples, 0.5); }

}  // namespace

double engine_records_delta(const std::string& before, const std::string& after) {
  return scalar_delta(before, after, "ipa_engine_records_processed_total");
}

LedgerOutput ledger(const LedgerInputs& in) {
  const WorkloadSpec& spec = *in.spec;
  const ThreadStats& stats = *in.stats;
  const std::string& before = *in.metrics_before;
  const std::string& after = *in.metrics_after;
  LedgerOutput result;
  std::vector<Metric>& out = result.metrics;
  const auto add = [&](std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
  };

  // Server phases.
  const auto phases = hist_family_delta(before, after, "ipa_session_phase_seconds", "phase");
  const auto phase_mean = [&](const std::string& phase) {
    const auto it = phases.find(phase);
    return it == phases.end() ? 0.0 : mean_of(it->second);
  };
  for (const char* phase : {"locate", "split", "transfer", "code_stage", "run", "merge"}) {
    add(std::string("services.") + phase + "_s", phase_mean(phase), "s");
  }

  // Replays on the workload's own inputs.
  auto decoded = decode_dataset(in.site->dataset_path(), kMaxReplayRecords);
  if (!decoded.is_ok()) {
    result.gap = "replay decode: " + decoded.status().to_string();
    return result;
  }
  const engine::CodeBundle script = [] {
    engine::CodeBundle b;
    b.kind = engine::CodeBundle::Kind::kScript;
    b.name = "higgs-v1";
    b.source = physics::higgs_script();
    return b;
  }();
  engine::CodeBundle plugin;
  plugin.kind = engine::CodeBundle::Kind::kPlugin;
  plugin.name = plugin.source = "higgs-mass";
  const double script_us =
      analyzer_us_per_event(script, *decoded, kScriptReplayRecords).value_or(0);
  const double plugin_us = analyzer_us_per_event(plugin, *decoded, kMaxReplayRecords).value_or(0);
  const double read_us =
      decoded->records == 0 ? 0 : decoded->decode_s / static_cast<double>(decoded->records) * 1e6;
  add("script.us_per_event", script_us, "us");
  add("script.compile_s", script_compile_s().value_or(0), "s");
  add("engine.plugin_us_per_event", plugin_us, "us");
  add("data.read_batch_s_per_mrec", read_us, "s/Mrec");  // us/rec == s/Mrec

  const HistogramSeries pull =
      fold(hist_family_delta(before, after, "ipa_engine_batch_pull_seconds", "__none"));
  add("engine.batch_pull_s", mean_of(pull), "s");
  add("engine.records", engine_records_delta(before, after), "count");
  add("engine.snapshots", scalar_delta(before, after, "ipa_engine_snapshots_total"),
      "count");

  const HistogramSeries merges =
      fold(hist_family_delta(before, after, "ipa_aida_merge_seconds", "__none"));
  const double merge_replay = merge_replay_s(spec.engines, *in.reference).value_or(0);
  add("aida.merges", static_cast<double>(merges.count), "count");
  add("aida.merge_s", mean_of(merges), "s");
  add("aida.merge_replay_s", merge_replay, "s");
  const double changed_ratio =
      stats.polls == 0 ? 0
                       : static_cast<double>(stats.polls_changed) / static_cast<double>(stats.polls);
  add("client.poll_changed_ratio", changed_ratio, "ratio");

  const auto queue = hist_family_delta(before, after, "ipa_server_queue_delay_seconds", "server");
  const auto queue_q = [&](const std::string& server, double q) {
    const auto it = queue.find(server);
    return it == queue.end() ? 0.0 : quantile_of(it->second, q);
  };
  add("net.queue_delay_s.http.p50", queue_q("http", 0.50), "s");
  add("net.queue_delay_s.http.p95", queue_q("http", 0.95), "s");
  add("net.queue_delay_s.rpc.p50", queue_q("rpc", 0.50), "s");
  add("net.queue_delay_s.rpc.p95", queue_q("rpc", 0.95), "s");
  // Dispatch time of busy reactor iterations: how long ready events waited on
  // earlier callbacks (the lag gauge only holds the most recent one).
  add("net.reactor_loop_lag_s.p95",
      quantile_of(fold(hist_family_delta(before, after, "ipa_reactor_loop_seconds", "reactor")),
                  0.95),
      "s");

  for (const char* rank : {"trace", "metrics", "aida"}) {
    add(std::string("obs.lock_wait_s.") + rank,
        labeled_delta(before, after, "ipa_lock_wait_seconds", "rank", rank), "s");
  }
  for (const char* rank : {"trace", "metrics", "aida"}) {
    add(std::string("obs.lock_contended.") + rank,
        labeled_delta(before, after, "ipa_lock_contended_total", "rank", rank), "count");
  }

  add("rpc.attempts", scalar_delta(before, after, "ipa_rpc_attempts_total"), "count");
  add("rpc.retries", scalar_delta(before, after, "ipa_rpc_retries_total"), "count");
  add("rpc.reconnects", scalar_delta(before, after, "ipa_rpc_reconnects_total"), "count");
  add("rpc.rejected", scalar_delta(before, after, "ipa_rpc_rejected_total"), "count");
  const double round_trip_s = poll_round_trip_s(*in.site, spec.engines).value_or(0);
  add("rpc.poll_round_trip_s", round_trip_s, "s");
  add("net.overflow", scalar_delta(before, after, "ipa_server_overflow_total"), "count");
  add("http.requests", scalar_delta(before, after, "ipa_http_requests_total"), "count");
  add("http.request_bytes", scalar_delta(before, after, "ipa_http_request_bytes_total"), "bytes");
  add("http.response_bytes", scalar_delta(before, after, "ipa_http_response_bytes_total"),
      "bytes");

  std::vector<double> lag = stats.poll_lag;
  lag.insert(lag.end(), stats.status_lag.begin(), stats.status_lag.end());
  add("gen.lag_s.p99", quantile(lag, 0.99), "s");
  const double untraced = median(stats.result_untraced);
  add("trace_overhead", untraced > 0 ? median(stats.result_traced) / untraced : 0, "ratio");
  add("failed_ratio",
      stats.attempted == 0 ? 0
                           : static_cast<double>(stats.failed) /
                                 static_cast<double>(stats.attempted),
      "ratio");

  // result_s: run() call, the server run phase split by the replayed
  // per-event costs of one engine's share, the final merge and poll, and
  // the expected wait for the next poll tick.
  const double per_engine = static_cast<double>(spec.events) / spec.engines;
  double analyzer_us = script_us;
  std::string analyzer_layer = "script";
  if (spec.code == CodeKind::kPlugin) {
    analyzer_us = plugin_us;
    analyzer_layer = "engine.plugin";
  } else if (spec.code == CodeKind::kLive) {
    engine::CodeBundle live;
    live.kind = engine::CodeBundle::Kind::kPlugin;
    live.name = live.source = kLivePlugin;
    analyzer_us = analyzer_us_per_event(live, *decoded, kMaxReplayRecords).value_or(0);
    analyzer_layer = "engine.live";
  }
  // AidaManager calls (engine pushes and client polls) share one lock; its
  // wait, averaged over the calls, is charged to pushes and polls alike.
  const double snapshots = scalar_delta(before, after, "ipa_engine_snapshots_total");
  const double aida_calls = snapshots + static_cast<double>(stats.polls);
  const double aida_wait_per_call =
      aida_calls > 0 ? labeled_delta(before, after, "ipa_lock_wait_seconds", "rank", "aida") /
                           aida_calls
                     : 0;

  // The run phase is split in order: analyzer, decode, push lock waits,
  // then whatever is left (snapshots, RPC pushes, CPU sharing).
  double run_left = phase_mean("run");
  const auto take = [&](double seconds) {
    const double taken = std::clamp(seconds, 0.0, run_left);
    run_left -= taken;
    return taken;
  };
  const double analyzer_s = take(per_engine * analyzer_us * 1e-6);
  const double read_s = take(per_engine * read_us * 1e-6);
  const double push_wait_s =
      take(per_engine / static_cast<double>(spec.snapshot_every) * aida_wait_per_call);
  const double engine_other_s = take(run_left);
  const double merge_s = mean_of(merges);
  const double poll_p50 = in.poll_p50;
  const double wait_s = spec.poll_interval_s / 2;
  const double run_call_s = median(stats.run_call);
  const double result_accounted = print_ledger(
      spec.name, "result_s", in.result_p50,
      {{"client.run_call", run_call_s},
       {analyzer_layer, analyzer_s},
       {"data.read_batch", read_s},
       {"aida.push_lock_wait", push_wait_s},
       {"engine.other", engine_other_s},
       {"aida.merge", merge_s},
       {"client.poll", poll_p50},
       {"client.poll_wait", wait_s}});
  if (result_accounted < 0.75 || result_accounted > 1.25) {
    char gap[128];
    std::snprintf(gap, sizeof(gap), "result_s ledger accounts for %.1f%% of result_s.p50, "
                  "outside 75-125%%", 100 * result_accounted);
    result.gap = gap;
  }

  // stage_s: the server's locate/split/transfer phases; the SOAP round
  // trip around them is not measured on its own.
  const double stage_accounted = print_ledger(
      spec.name, "stage_s", in.stage_p50,
      {{"services.locate", phase_mean("locate")},
       {"services.split", phase_mean("split")},
       {"services.transfer", phase_mean("transfer")}});

  // poll_s: merges amortized over polls, the AidaManager lock, RPC server
  // queueing, client decode of changed trees, generator lateness (open
  // loop) and the idle poll round trip.
  const double merge_per_poll =
      stats.polls == 0 ? 0 : merges.sum / static_cast<double>(stats.polls);
  const double decode_s = changed_ratio * tree_decode_s(*in.reference).value_or(0);
  const double lag_s = spec.open_loop ? quantile(stats.poll_lag, 0.5) : 0;
  const double poll_accounted = print_ledger(
      spec.name, "poll_s", poll_p50,
      {{"aida.merge", merge_per_poll},
       {"aida.lock_wait", aida_wait_per_call},
       {"net.queue_delay.rpc", queue_q("rpc", 0.50)},
       {"client.decode", decode_s},
       {"gen.lag", lag_s},
       {"rpc.round_trip", round_trip_s}});

  add("ledger.result_s.accounted", result_accounted, "ratio");
  add("ledger.stage_s.accounted", stage_accounted, "ratio");
  add("ledger.poll_s.accounted", poll_accounted, "ratio");
  return result;
}

}  // namespace perfbench
