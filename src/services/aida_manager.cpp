#include "services/aida_manager.hpp"

#include <algorithm>
#include <future>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ipa::services {

Status AidaManager::open_session(const std::string& session_id) {
  LockGuard lock(mutex_);
  if (sessions_.count(session_id) != 0) {
    return already_exists("aida manager: session '" + session_id + "' already open");
  }
  sessions_.emplace(session_id, SessionMerge{});
  return Status::ok();
}

Status AidaManager::close_session(const std::string& session_id) {
  LockGuard lock(mutex_);
  if (sessions_.erase(session_id) == 0) {
    return not_found("aida manager: no session '" + session_id + "'");
  }
  return Status::ok();
}

Status AidaManager::push(const PushRequest& request) {
  // Validate the snapshot before accepting it. It touches no session state,
  // so the decode runs outside the lock that pollers and merges wait on.
  auto tree = aida::Tree::deserialize(request.snapshot);
  IPA_RETURN_IF_ERROR(tree.status().with_prefix("aida manager: bad snapshot"));
  LockGuard lock(mutex_);
  const auto it = sessions_.find(request.session_id);
  if (it == sessions_.end()) {
    return not_found("aida manager: no session '" + request.session_id + "'");
  }
  it->second.engine_snapshots[request.report.engine_id] = request.snapshot;
  it->second.reports[request.report.engine_id] = request.report;
  auto& health = it->second.health[request.report.engine_id];
  health.last_seen = clock_->now();
  health.lost = false;  // a resurrected engine counts as alive again
  ++it->second.version;
  return Status::ok();
}

void AidaManager::heartbeat(const std::string& session_id, const std::string& engine_id) {
  LockGuard lock(mutex_);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  auto& health = it->second.health[engine_id];
  health.last_seen = clock_->now();
  health.lost = false;
}

std::vector<std::string> AidaManager::stale_engines(const std::string& session_id,
                                                    double timeout_s) const {
  LockGuard lock(mutex_);
  std::vector<std::string> stale;
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return stale;
  const double now = clock_->now();
  for (const auto& [engine_id, health] : it->second.health) {
    if (health.lost || now - health.last_seen < timeout_s) continue;
    const auto report = it->second.reports.find(engine_id);
    if (report != it->second.reports.end() &&
        (report->second.state == engine::EngineState::kFinished ||
         report->second.state == engine::EngineState::kFailed)) {
      continue;  // done engines are allowed to go quiet
    }
    stale.push_back(engine_id);
  }
  return stale;
}

void AidaManager::mark_engine_lost(const std::string& session_id,
                                   const std::string& engine_id,
                                   const std::string& reason) {
  LockGuard lock(mutex_);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  it->second.health[engine_id].lost = true;
  EngineReport& report = it->second.reports[engine_id];  // may fabricate one
  report.engine_id = engine_id;
  report.lost = true;
  if (report.error.empty()) report.error = reason;
  ++it->second.version;  // pollers must observe the degradation
  IPA_LOG(warn) << "aida manager: engine " << engine_id << " lost in session "
                << session_id << ": " << reason;
}

void AidaManager::forget_engine(const std::string& session_id,
                                const std::string& engine_id) {
  LockGuard lock(mutex_);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  it->second.health.erase(engine_id);
}

Result<ser::Bytes> AidaManager::merge_session(const SessionMerge& session) const {
  // Snapshot list in deterministic (engine-id map) order; deserialization
  // happens inside the sub-merge tasks so it parallelizes with the merging.
  std::vector<std::pair<const std::string*, const ser::Bytes*>> snapshots;
  snapshots.reserve(session.engine_snapshots.size());
  for (const auto& [engine_id, bytes] : session.engine_snapshots) {
    snapshots.emplace_back(&engine_id, &bytes);
  }
  if (snapshots.empty()) return aida::Tree().serialize();

  const auto merge_group = [&](std::size_t begin, std::size_t end) -> Result<aida::Tree> {
    aida::Tree merged;
    for (std::size_t i = begin; i < end; ++i) {
      auto tree = aida::Tree::deserialize(*snapshots[i].second);
      IPA_RETURN_IF_ERROR(tree.status().with_prefix("merge: engine " + *snapshots[i].first));
      IPA_RETURN_IF_ERROR(merged.merge(*tree));
      merges_.fetch_add(1, std::memory_order_relaxed);
    }
    return merged;
  };

  if (merge_fan_in_ == 0 || snapshots.size() <= merge_fan_in_) {
    IPA_ASSIGN_OR_RETURN(aida::Tree merged, merge_group(0, snapshots.size()));
    return merged.serialize();
  }

  // Two-level hierarchy: sub-mergers of bounded fan-in fan out onto the
  // shared pool; the top level then merges the sub-results sequentially in
  // group order, so the result is independent of task scheduling.
  if (!merge_pool_) {
    const std::size_t threads =
        std::min<std::size_t>(4, std::max<std::size_t>(1, std::thread::hardware_concurrency()));
    merge_pool_ = std::make_unique<ThreadPool>(threads);
  }
  std::vector<std::future<Result<aida::Tree>>> futures;
  for (std::size_t begin = 0; begin < snapshots.size(); begin += merge_fan_in_) {
    const std::size_t end = std::min(begin + merge_fan_in_, snapshots.size());
    // ipa-analyze: allow(blocking-under-lock) -- the merge is exclusive by
    // design: poll() holds kAida while the sub-merges run, and the pool
    // workers only touch this frame's snapshots (never kAida), so the
    // submit/get pair cannot re-enter the manager lock.
    futures.push_back(merge_pool_->submit([&merge_group, begin, end] {
      return merge_group(begin, end);
    }));
  }
  obs::Registry& registry = obs::Registry::global();
  registry
      .counter("ipa_aida_submerges_total", {},
               "Sub-merge tasks dispatched by the two-level merge hierarchy.")
      .inc(futures.size());
  registry
      .gauge("ipa_aida_merge_fan_in", {},
             "Configured sub-merger fan-in (0 = single-level merge).")
      .set(static_cast<double>(merge_fan_in_));
  // Collect every future before acting on errors: the tasks alias this
  // frame's `snapshots`, which must outlive all of them.
  std::vector<Result<aida::Tree>> subs;
  subs.reserve(futures.size());
  for (auto& future : futures) subs.push_back(future.get());

  aida::Tree merged;
  for (auto& sub : subs) {
    IPA_RETURN_IF_ERROR(sub.status());
    IPA_RETURN_IF_ERROR(merged.merge(*sub));
    merges_.fetch_add(1, std::memory_order_relaxed);
  }
  return merged.serialize();
}

Result<PollResponse> AidaManager::poll(const std::string& session_id,
                                       std::uint64_t since_version) const {
  LockGuard lock(mutex_);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return not_found("aida manager: no session '" + session_id + "'");
  }
  const SessionMerge& session = it->second;

  PollResponse response;
  response.version = session.version;
  for (const auto& [engine_id, report] : session.reports) response.engines.push_back(report);
  if (session.version <= since_version) {
    response.changed = false;
    return response;
  }
  if (session.merged_cache_version != session.version) {
    // The rebuild is the live "merge" phase: span + histogram, accumulated
    // per session so /status can report a ScenarioTimings-shaped total.
    obs::ScopedSpan merge_span("merge", *clock_, obs::SpanRing::global(), session_id);
    auto merged = merge_session(session);
    if (!merged.is_ok()) {
      merge_span.set_status(merged.status());
      return merged.status();
    }
    session.merged_cache = std::move(*merged);
    session.merged_cache_version = session.version;
    const double elapsed = merge_span.elapsed_s();
    session.merge_total_s += elapsed;
    obs::Registry& registry = obs::Registry::global();
    registry
        .histogram("ipa_aida_merge_seconds", {}, {},
                   "Latency of one merged-tree rebuild across engine snapshots.")
        .observe(elapsed);
    registry
        .histogram("ipa_session_phase_seconds", {{"phase", "merge"}}, {},
                   "Live session phase durations; phases match perf::ScenarioTimings.")
        .observe(elapsed);
  }
  response.changed = true;
  response.merged = session.merged_cache;
  return response;
}

double AidaManager::merge_seconds(const std::string& session_id) const {
  LockGuard lock(mutex_);
  const auto it = sessions_.find(session_id);
  return it == sessions_.end() ? 0.0 : it->second.merge_total_s;
}

Status AidaManager::reset_session(const std::string& session_id) {
  LockGuard lock(mutex_);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return not_found("aida manager: no session '" + session_id + "'");
  }
  it->second.engine_snapshots.clear();
  it->second.reports.clear();
  ++it->second.version;
  return Status::ok();
}

std::size_t AidaManager::session_count() const {
  LockGuard lock(mutex_);
  return sessions_.size();
}

}  // namespace ipa::services
