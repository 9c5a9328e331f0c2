// Interactive-analysis benchmark: shared types.
//
// The benchmark drives a real in-process services::ManagerNode through the
// public client::GridClient / GridSession API and measures the analyst's
// loop end to end (select -> stage -> run -> poll -> hot-reload -> rerun).
// A separate traced run adds the per-layer ledger: client-side spans kept in
// per-thread memory, before/after deltas of the site's GET /metrics
// families, and replays of single layers on the workload's own inputs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aida/tree.hpp"
#include "common/status.hpp"
#include "common/uri.hpp"
#include "engine/code_bundle.hpp"
#include "services/manager.hpp"

namespace perfbench {

using ipa::Result;
using ipa::Status;

/// What drives the workload's merged results.
enum class CodeKind { kScript, kPlugin, kLive };

/// One workload: a fixed op mix, sized so a run holds enough samples.
struct WorkloadSpec {
  std::string name;
  bool open_loop = false;
  int clients = 2;                  // analysts (closed) or sessions (open)
  int engines = 2;                  // engines per session
  std::uint64_t events = 4000;      // dataset records
  std::uint64_t snapshot_every = 256;
  CodeKind code = CodeKind::kScript;
  int reloads = 1;                  // hot-reload reruns per loop
  int select_every = 1;             // open loop: re-select every Nth cycle
  double poll_interval_s = 0.005;   // closed: think time; open: 1 / rate
  double status_interval_s = 0.02;  // closed: per analyst; open: 1 / rate
};

const WorkloadSpec* find_workload(const std::string& name);

/// The code bundles a workload stages: first run and hot reload.
ipa::engine::CodeBundle first_code(const WorkloadSpec& spec);
ipa::engine::CodeBundle reload_code(const WorkloadSpec& spec);

/// Name of the benchmark's own native analyzer for the live workload.
inline constexpr const char* kLivePlugin = "perfbench-live";
inline constexpr int kLiveHistograms = 32;
/// Register kLivePlugin (idempotent).
void register_live_plugin();

// --- samples ---------------------------------------------------------------

/// loadgen::percentile of unsorted samples (0 when empty).
double quantile(std::vector<double> samples, double q);

/// One client-side span: a call into a layer, timed on the steady clock.
struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  std::uint64_t trace = 0;  // one id per analyst loop / live cycle
};

/// Samples one driver thread gathers; merged only after every thread ended,
/// so the measured path takes no shared lock.
struct ThreadStats {
  std::vector<double> stage, result, first_result, reload, control, poll, status;
  // Control-call time summed over one analyst loop (closed) or live cycle.
  std::vector<double> control_loop;
  // The samples of `control`, by call.
  std::map<std::string, std::vector<double>> control_calls;
  // How late scheduled polls and /status probes were sent.
  std::vector<double> poll_lag, status_lag;
  std::vector<double> result_traced, result_untraced;
  std::vector<double> run_call;     // run() control call alone
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t polls = 0;
  std::uint64_t polls_changed = 0;
  std::vector<Span> spans;
  std::vector<std::string> errors;  // first few failure messages

  void merge(ThreadStats&& other);
};

// --- site ------------------------------------------------------------------

/// A started site with its dataset published and warmed up.
class Site {
 public:
  static Result<std::unique_ptr<Site>> start(const WorkloadSpec& spec, const std::string& dir,
                                             std::uint64_t seed);
  ~Site();
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  const ipa::Uri& soap() const { return soap_; }
  const std::string& proxy() const { return proxy_; }
  const std::string& dataset_path() const { return dataset_path_; }
  static constexpr const char* kDatasetId = "ds-bench";

  /// GET /metrics text.
  Result<std::string> scrape() const;

 private:
  Site() = default;

  std::string dir_;
  std::string dataset_path_;
  std::unique_ptr<ipa::services::ManagerNode> manager_;
  ipa::Uri soap_;
  std::string proxy_;
};

// --- correctness oracle ----------------------------------------------------

/// Reference tree: the same analyzer run directly over the whole dataset.
Result<ipa::aida::Tree> reference_tree(const ipa::engine::CodeBundle& bundle,
                                       const std::string& dataset_path);

/// Relative tolerance on histogram moments (mean, rms): engines sum their
/// parts in a different order than one pass over the whole dataset.
inline constexpr double kMomentRelTol = 1e-9;

/// Bin-for-bin comparison: entries and every bin height and error exactly,
/// moments within kMomentRelTol. Returns "" on a match, else the first
/// difference.
std::string compare_trees(const ipa::aida::Tree& got, const ipa::aida::Tree& want);

// --- driving ---------------------------------------------------------------

struct DriveInputs {
  const WorkloadSpec* spec = nullptr;
  Site* site = nullptr;
  const ipa::aida::Tree* want_first = nullptr;
  const ipa::aida::Tree* want_reload = nullptr;
  double seconds = 10;
  std::uint64_t seed = 1;  // open-loop poll phases
  bool trace = false;
  double t0 = 0;  // steady-clock origin of span stamps
};

struct DriveResult {
  ThreadStats stats;
  double window_s = 0;
  /// Median of the bytes malloc reports in use (mallinfo2 uordblks +
  /// hblkhd), sampled every kHeapSampleS over the window, in MiB. Unlike
  /// peak RSS it does not depend on how many malloc arenas thread timing
  /// happened to create.
  double heap_mb = 0;
};

DriveResult drive(const DriveInputs& inputs);

/// Steady-clock seconds.
double now_s();

// --- per-layer ledger --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct LedgerInputs {
  const WorkloadSpec* spec = nullptr;
  const Site* site = nullptr;
  const ThreadStats* stats = nullptr;
  const std::string* metrics_before = nullptr;
  const std::string* metrics_after = nullptr;
  const ipa::aida::Tree* reference = nullptr;  // first-run reference tree
  double result_p50 = 0;
  double stage_p50 = 0;
  double poll_p50 = 0;
};

struct LedgerOutput {
  std::vector<Metric> metrics;  // BENCHMARK.json per_layer order
  /// Why the run cannot be trusted: the result_s ledger accounts for less
  /// than 75% or more than 125% of result_s.p50, or a replay failed.
  /// Empty when the ledger reconciles.
  std::string gap;
};

/// Per-layer metrics; prints the reconciliation and the dominant layers.
LedgerOutput ledger(const LedgerInputs& inputs);

/// Records analyzed site-wide between two /metrics scrapes.
double engine_records_delta(const std::string& before, const std::string& after);

}  // namespace perfbench
