// Load generation: closed-loop analysts and the open-loop live poller.
//
// Every driver thread owns its client objects and its ThreadStats; nothing
// on the measured path is shared between threads. Stats are merged after
// the threads have been joined.
#include <malloc.h>

#include <chrono>
#include <optional>
#include <random>
#include <thread>
#include <variant>

#include "bench.hpp"
#include "client/grid_client.hpp"
#include "http/http.hpp"

namespace perfbench {
namespace {

using namespace ipa;

constexpr double kRunTimeoutS = 120.0;
constexpr std::size_t kMaxErrors = 8;
constexpr std::uint64_t kMaxFailuresPerThread = 32;
constexpr double kHeapSampleS = 0.1;

void sleep_until_s(double t) {
  const double wait = t - now_s();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

// Samples the heap in use from the calling thread until `deadline`; the
// load threads run meanwhile.
double median_heap_mb(double deadline) {
  std::vector<double> samples;
  do {
    const struct mallinfo2 info = mallinfo2();
    samples.push_back(static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0));
    sleep_until_s(std::min(deadline, now_s() + kHeapSampleS));
  } while (now_s() < deadline);
  return quantile(std::move(samples), 0.5);
}

const Status& status_of(const Status& status) { return status; }
template <typename T>
Status status_of(const Result<T>& result) {
  return result.status();
}

// Times client calls into the stats of one driver thread.
class Recorder {
 public:
  Recorder(ThreadStats& stats, double origin) : stats_(stats), origin_(origin) {}

  bool traced = false;
  std::uint64_t trace_id = 0;
  /// Time of the successful control calls since the loop began.
  double loop_control = 0;

  /// Run one client call: counts the attempt, records its latency into
  /// `series` (timed from `due`, or from the send when `due` is 0) and a
  /// span when traced.
  template <typename F>
  auto op(const char* name, std::vector<double>* series, F&& call, double due = 0) {
    const double t0 = now_s();
    auto result = call();
    const double t1 = now_s();
    ++stats_.attempted;
    const Status status = status_of(result);
    if (!status.is_ok()) {
      fail(std::string(name) + ": " + status.to_string());
    } else if (series != nullptr) {
      series->push_back(t1 - (due > 0 ? due : t0));
      if (series == &stats_.control) {
        loop_control += t1 - t0;
        stats_.control_calls[name].push_back(t1 - t0);
      }
    }
    if (traced) stats_.spans.push_back({name, t0 - origin_, t1 - origin_, trace_id});
    last_latency = t1 - t0;
    return result;
  }

  void fail(std::string message) {
    ++stats_.failed;
    if (stats_.errors.size() < kMaxErrors) stats_.errors.push_back(std::move(message));
  }

  bool exhausted() const { return stats_.failed >= kMaxFailuresPerThread; }

  double last_latency = 0;

 private:
  ThreadStats& stats_;
  double origin_;
};

Status stage_code(client::GridSession& session, const engine::CodeBundle& code) {
  return code.kind == engine::CodeBundle::Kind::kScript
             ? session.stage_script(code.name, code.source)
             : session.stage_plugin(code.source);
}

/// GET /status?session=<id> on a lazily (re)connected HTTP client, as an
/// operator's dashboard would poll it.
Result<http::Response> get_status(std::optional<http::Client>& http, const Uri& soap,
                                  const std::string& session_id) {
  if (!http) {
    IPA_ASSIGN_OR_RETURN(http::Client connected, http::Client::connect(soap.host, soap.port, 5.0));
    http.emplace(std::move(connected));
  }
  auto response = http->get("/status?session=" + session_id, 10.0);
  if (response.is_ok() && response->status != 200) {
    response = unavailable("/status returned " + std::to_string(response->status));
  }
  if (!response.is_ok()) http.reset();  // reconnect on the next probe
  return response;
}

/// How one run's polls are scheduled.
struct PollPlan {
  bool open_loop = false;
  // Open loop: polls are due every interval_s from a phase drawn uniformly
  // in [0, interval_s) for each run, so poll-timed figures such as result_s
  // do not snap to multiples of the period.
  std::mt19937_64* phase_rng = nullptr;
  double interval_s = 0.005;
  // Closed loop only: this analyst's own /status probe.
  double status_interval_s = 0;
  std::optional<http::Client>* status_http = nullptr;
  const Uri* soap = nullptr;
};

bool has_entries(const aida::Tree& tree) {
  for (const std::string& path : tree.paths()) {
    const auto* hist = std::get_if<aida::Histogram1D>(*tree.find(path));
    if (hist != nullptr && hist->entries() > 0) return true;
  }
  return false;
}

/// Seconds from run() to the first poll showing a non-empty partial result
/// and to the poll showing every engine done.
struct RunTimes {
  double first_result = 0;
  double result = 0;
};

/// run() then poll until every engine is done; checks the final merged
/// tree against `want`. Returns the run's times, or nullopt when an
/// operation failed or the tree was wrong.
std::optional<RunTimes> run_and_wait(client::GridSession& session, const aida::Tree& want,
                                   const PollPlan& plan, Recorder& rec, ThreadStats& stats) {
  const double t_run = now_s();
  if (!rec.op("run", &stats.control, [&] { return session.run(); }).is_ok()) return std::nullopt;
  stats.run_call.push_back(rec.last_latency);
  const double run_returned = now_s();
  const auto expected = static_cast<std::size_t>(session.info().granted_nodes);

  aida::Tree latest;
  RunTimes times;
  bool seen_first = false;
  double next_due =
      run_returned +
      (plan.open_loop
           ? std::uniform_real_distribution<double>(0, plan.interval_s)(*plan.phase_rng)
           : plan.interval_s);
  double next_status = run_returned + plan.status_interval_s;
  while (true) {
    if (now_s() - t_run > kRunTimeoutS) {
      ++stats.attempted;
      rec.fail("run did not finish within the timeout");
      return std::nullopt;
    }
    sleep_until_s(next_due);
    const double sent = now_s();
    stats.poll_lag.push_back(sent - next_due);
    auto update = rec.op(
        "poll", &stats.poll, [&] { return session.poll(); }, plan.open_loop ? next_due : 0);
    if (!update.is_ok()) return std::nullopt;
    ++stats.polls;
    if (update->changed) {
      ++stats.polls_changed;
      latest = std::move(update->merged);
      // A rerun's first change can be the rewound, still empty tree.
      if (!seen_first && has_entries(latest)) {
        seen_first = true;
        times.first_result = now_s() - t_run;
      }
    }
    if (update->all_engines_done(expected)) {
      times.result = now_s() - t_run;
      ++stats.attempted;
      if (update->any_engine_failed() || update->degraded()) {
        rec.fail("run ended failed or degraded");
        return std::nullopt;
      }
      const std::string diff = compare_trees(latest, want);
      if (!diff.empty()) {
        ++stats.mismatches;
        rec.fail("result mismatch: " + diff);
        return std::nullopt;
      }
      if (!seen_first) times.first_result = times.result;
      return times;
    }
    if (!plan.open_loop && plan.status_http != nullptr && now_s() >= next_status) {
      next_status += plan.status_interval_s;
      (void)rec.op("status", &stats.status, [&] {
        return get_status(*plan.status_http, *plan.soap, session.info().session_id);
      });
    }
    next_due = (plan.open_loop ? next_due : now_s()) + plan.interval_s;
  }
}

/// Counts a run of the workload's first code into result_s and
/// first_result_s; a hot-reload run of other code counts into reload_s only.
void record_result(ThreadStats& stats, const Recorder& rec, const RunTimes& times) {
  stats.result.push_back(times.result);
  stats.first_result.push_back(times.first_result);
  (rec.traced ? stats.result_traced : stats.result_untraced).push_back(times.result);
}

// --- closed loop -------------------------------------------------------------

void analyst(const DriveInputs& in, int id, double deadline, ThreadStats& stats) {
  const WorkloadSpec& spec = *in.spec;
  Recorder rec(stats, in.t0);
  auto client = rec.op("connect", nullptr, [&] {
    return client::GridClient::connect(in.site->soap(), in.site->proxy());
  });
  if (!client.is_ok()) return;
  std::optional<http::Client> status_http;
  PollPlan plan;
  plan.interval_s = spec.poll_interval_s;
  plan.status_interval_s = spec.status_interval_s;
  plan.status_http = &status_http;
  plan.soap = &in.site->soap();
  const engine::CodeBundle first = first_code(spec);
  const engine::CodeBundle reload = reload_code(spec);
  const bool same_code = reload.kind == first.kind && reload.source == first.source;

  for (std::uint64_t loop = 0; now_s() < deadline && !rec.exhausted(); ++loop) {
    rec.traced = in.trace && loop % 2 == 0;
    rec.trace_id = (static_cast<std::uint64_t>(id) << 32) | loop;
    rec.loop_control = 0;
    auto session = rec.op("create_session", &stats.control,
                          [&] { return client->create_session(spec.engines); });
    if (!session.is_ok()) continue;
    const bool ok = [&] {
      if (!rec.op("activate", &stats.control, [&] { return session->activate(); }).is_ok()) {
        return false;
      }
      if (!rec.op("select_dataset", &stats.stage,
                  [&] { return session->select_dataset(Site::kDatasetId); })
               .is_ok()) {
        return false;
      }
      if (!rec.op("stage_code", &stats.control, [&] { return stage_code(*session, first); })
               .is_ok()) {
        return false;
      }
      const auto result = run_and_wait(*session, *in.want_first, plan, rec, stats);
      if (!result) return false;
      record_result(stats, rec, *result);
      for (int r = 0; r < spec.reloads; ++r) {
        const double t_reload = now_s();
        if (!rec.op("stage_code", &stats.control, [&] { return stage_code(*session, reload); })
                 .is_ok() ||
            !rec.op("rewind", &stats.control, [&] { return session->rewind(); }).is_ok()) {
          return false;
        }
        const auto rerun = run_and_wait(*session, *in.want_reload, plan, rec, stats);
        if (!rerun) return false;
        if (same_code) record_result(stats, rec, *rerun);
        stats.reload.push_back(now_s() - t_reload);
      }
      return true;
    }();
    if (ok) {
      if (rec.op("close", &stats.control, [&] { return session->close(); }).is_ok()) {
        stats.control_loop.push_back(rec.loop_control);
      }
    } else {
      (void)session->close();  // best effort; the failure is already counted
    }
  }
}

// --- open loop ----------------------------------------------------------------

void live_session(const DriveInputs& in, int id, client::GridSession& session, double deadline,
                  ThreadStats& stats) {
  const WorkloadSpec& spec = *in.spec;
  Recorder rec(stats, in.t0);
  std::mt19937_64 phase_rng(in.seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(id));
  PollPlan plan;
  plan.open_loop = true;
  plan.phase_rng = &phase_rng;
  plan.interval_s = spec.poll_interval_s;
  const engine::CodeBundle code = first_code(spec);
  for (std::uint64_t cycle = 0; now_s() < deadline && !rec.exhausted(); ++cycle) {
    // Traced and untraced halves alternate in whole select periods, so the
    // cycles that re-select do not all land in one half.
    const auto every = static_cast<std::uint64_t>(spec.select_every);
    rec.traced = in.trace && (cycle / every) % 2 == 0;
    rec.trace_id = (static_cast<std::uint64_t>(id) << 32) | cycle;
    rec.loop_control = 0;
    if (cycle % every == 0 &&
        !rec.op("select_dataset", &stats.stage,
                [&] { return session.select_dataset(Site::kDatasetId); })
             .is_ok()) {
      continue;
    }
    const double t_reload = now_s();
    if (!rec.op("stage_code", &stats.control, [&] { return stage_code(session, code); })
             .is_ok() ||
        !rec.op("rewind", &stats.control, [&] { return session.rewind(); }).is_ok()) {
      continue;
    }
    const auto result = run_and_wait(session, *in.want_first, plan, rec, stats);
    if (!result) continue;
    record_result(stats, rec, *result);
    stats.reload.push_back(now_s() - t_reload);
    stats.control_loop.push_back(rec.loop_control);
  }
}

void live_status(const DriveInputs& in, const std::vector<std::string>& session_ids,
                 double start, double deadline, ThreadStats& stats) {
  Recorder rec(stats, in.t0);
  rec.traced = in.trace;
  std::optional<http::Client> http;
  const Uri& soap = in.site->soap();
  for (std::uint64_t k = 1; !rec.exhausted(); ++k) {
    const double due = start + in.spec->status_interval_s * static_cast<double>(k);
    if (due >= deadline) break;
    sleep_until_s(due);
    stats.status_lag.push_back(now_s() - due);
    const std::string& id = session_ids[k % session_ids.size()];
    (void)rec.op(
        "status", &stats.status, [&] { return get_status(http, soap, id); }, due);
  }
}

DriveResult drive_open(const DriveInputs& in) {
  const WorkloadSpec& spec = *in.spec;
  DriveResult out;
  // Sessions are created and activated before the window and closed after
  // it: the window measures the live cycles, not session churn.
  auto client = client::GridClient::connect(in.site->soap(), in.site->proxy());
  std::vector<client::GridSession> sessions;
  std::vector<std::string> ids;
  if (client.is_ok()) {
    for (int i = 0; i < spec.clients; ++i) {
      auto session = client->create_session(spec.engines);
      if (!session.is_ok() || !session->activate().is_ok()) break;
      ids.push_back(session->info().session_id);
      sessions.push_back(std::move(*session));
    }
  }
  if (sessions.size() != static_cast<std::size_t>(spec.clients)) {
    out.stats.attempted = out.stats.failed = 1;
    out.stats.errors.push_back("live_poll: session set-up failed");
    return out;
  }

  std::vector<ThreadStats> per_thread(sessions.size() + 1);
  const double start = now_s();
  const double deadline = start + in.seconds;
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      threads.emplace_back([&, i] {
        live_session(in, static_cast<int>(i), sessions[i], deadline, per_thread[i]);
      });
    }
    threads.emplace_back([&] { live_status(in, ids, start, deadline, per_thread.back()); });
    out.heap_mb = median_heap_mb(deadline);
  }
  out.window_s = now_s() - start;
  for (ThreadStats& stats : per_thread) out.stats.merge(std::move(stats));
  for (client::GridSession& session : sessions) (void)session.close();
  return out;
}

DriveResult drive_closed(const DriveInputs& in) {
  DriveResult out;
  std::vector<ThreadStats> per_thread(static_cast<std::size_t>(in.spec->clients));
  const double start = now_s();
  const double deadline = start + in.seconds;
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < in.spec->clients; ++i) {
      threads.emplace_back([&, i] {
        analyst(in, i, deadline, per_thread[static_cast<std::size_t>(i)]);
      });
    }
    out.heap_mb = median_heap_mb(deadline);
  }
  out.window_s = now_s() - start;
  for (ThreadStats& stats : per_thread) out.stats.merge(std::move(stats));
  return out;
}

template <typename T>
void append(std::vector<T>& into, std::vector<T>& from) {
  into.insert(into.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ThreadStats::merge(ThreadStats&& other) {
  append(stage, other.stage);
  append(result, other.result);
  append(first_result, other.first_result);
  append(reload, other.reload);
  append(control, other.control);
  append(control_loop, other.control_loop);
  for (auto& [name, samples] : other.control_calls) append(control_calls[name], samples);
  append(poll, other.poll);
  append(status, other.status);
  append(poll_lag, other.poll_lag);
  append(status_lag, other.status_lag);
  append(result_traced, other.result_traced);
  append(result_untraced, other.result_untraced);
  append(run_call, other.run_call);
  append(spans, other.spans);
  for (std::string& error : other.errors) {
    if (errors.size() < kMaxErrors) errors.push_back(std::move(error));
  }
  attempted += other.attempted;
  failed += other.failed;
  mismatches += other.mismatches;
  polls += other.polls;
  polls_changed += other.polls_changed;
}

DriveResult drive(const DriveInputs& inputs) {
  return inputs.spec->open_loop ? drive_open(inputs) : drive_closed(inputs);
}

}  // namespace perfbench
