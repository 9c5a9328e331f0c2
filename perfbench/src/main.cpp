// ipa_perfbench: one run of one workload; prints every metric by name with
// its unit, and as the last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see perfbench/layers.json for which end-to-end metric each
// layer should move). Exit code 1 when a merged tree differed from the
// reference or, traced, when the result_s ledger does not reconcile; 2 on a
// usage or set-up error.
//
//   ipa_perfbench --workload analyst_script --seed 1 --seconds 20 --trace 0
//                 --work-dir .bench_build/perfbench/work
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "loadgen/stats.hpp"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return ipa::loadgen::percentile(samples, q);
}

namespace {

struct Flags {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string work_dir;
};

// Set-up is repeated and its median reported, so one slow start (cold page
// cache, first thread pools) does not decide setup_s. Half of the set-ups
// run before the measured window and half after it, so the median samples
// the host over the whole run.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 3;

// Percentile reported as result_s.tail. Every workload has well over ten
// samples beyond p75 in a 30 s run; on the shared 4-vCPU host the p90 and
// above of result_s doubled when the host slowed by a fifth, so their
// run-to-run spread left no room for a bound.
constexpr double kResultTailQ = 0.75;

void usage() {
  std::fprintf(stderr,
               "usage: ipa_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                     --work-dir DIR\n");
}

bool parse(int argc, char** argv, Flags& flags) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      flags.workload = value;
    } else if (key == "--seed") {
      flags.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      flags.seconds = std::atof(value);
    } else if (key == "--trace") {
      flags.trace = std::string(value) == "1";
    } else if (key == "--work-dir") {
      flags.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !flags.workload.empty() && !flags.work_dir.empty() &&
         flags.seconds > 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Number of samples above the q-quantile.
std::size_t beyond(const std::vector<double>& samples, double q) {
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(samples.size()) * (1.0 - q) + 1e-9));
}

void print_json(bool correct, const ThreadStats& stats, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(stats.attempted);
  out += ", \"failed\": " + std::to_string(stats.failed);
  out += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(number, sizeof(number), "%.12g", value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + number +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::binary);
  out.precision(12);  // microseconds at run offsets of minutes
  for (const Span& span : spans) {
    out << "{\"name\": \"" << span.name << "\", \"trace\": " << span.trace
        << ", \"start_s\": " << span.start_s << ", \"end_s\": " << span.end_s << "}\n";
  }
}

int run(const Flags& flags) {
  const WorkloadSpec* spec = find_workload(flags.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", flags.workload.c_str());
    return 2;
  }
  const std::filesystem::path work = flags.work_dir;

  // The last site set up before the window is kept for it.
  std::vector<double> setup_times;
  std::unique_ptr<Site> site;
  const auto set_up = [&](int n) {
    for (int i = 0; i < n; ++i) {
      site.reset();
      const std::string dir = (work / ("site-" + std::to_string(setup_times.size()))).string();
      const double t0 = now_s();
      auto started = Site::start(*spec, dir, flags.seed);
      if (!started.is_ok()) {
        std::fprintf(stderr, "perfbench: set-up: %s\n", started.status().to_string().c_str());
        return false;
      }
      setup_times.push_back(now_s() - t0);
      site = std::move(*started);
    }
    return true;
  };
  if (!set_up(kSetupsBefore)) return 2;

  // The oracle: each code version run directly over the whole dataset.
  auto want_first = reference_tree(first_code(*spec), site->dataset_path());
  auto want_reload = reference_tree(reload_code(*spec), site->dataset_path());
  if (!want_first.is_ok() || !want_reload.is_ok()) {
    const Status& bad = want_first.is_ok() ? want_reload.status() : want_first.status();
    std::fprintf(stderr, "perfbench: reference: %s\n", bad.to_string().c_str());
    return 2;
  }

  auto before = site->scrape();
  DriveInputs inputs;
  inputs.spec = spec;
  inputs.site = site.get();
  inputs.want_first = &*want_first;
  inputs.want_reload = &*want_reload;
  inputs.seconds = flags.seconds;
  inputs.seed = flags.seed;
  inputs.trace = flags.trace;
  inputs.t0 = now_s();
  DriveResult driven = drive(inputs);
  auto after = site->scrape();
  if (!before.is_ok() || !after.is_ok()) {
    std::fprintf(stderr, "perfbench: /metrics scrape failed\n");
    return 2;
  }
  // Peak memory of the measured run, before any set-up after the window.
  const double rss_mb = peak_rss_mb();
  // The traced run's ledger replays layers on the measured site, so only
  // the end-to-end run sets up again after the window.
  if (!flags.trace && !set_up(kSetupsAfter)) return 2;
  const ThreadStats& stats = driven.stats;
  for (const std::string& error : stats.errors) std::fprintf(stderr, "perfbench: %s\n", error.c_str());

  if (beyond(stats.result, kResultTailQ) < 10) {
    std::fprintf(stderr, "perfbench: warning: result_s.tail (p%g) has %zu samples beyond it\n",
                 100 * kResultTailQ, beyond(stats.result, kResultTailQ));
  }
  const double poll_p50 = quantile(stats.poll, 0.5);
  const double control_loop_p50 = quantile(stats.control_loop, 0.5);
  const double setup_s = quantile(setup_times, 0.5);
  const double events = engine_records_delta(*before, *after);
  const double ok_ratio =
      stats.attempted == 0 ? 0
                           : 1.0 - static_cast<double>(stats.failed) /
                                       static_cast<double>(stats.attempted);
  const std::vector<Metric> e2e = {
      {"setup_s", setup_s, "s"},
      {"stage_s.p50", quantile(stats.stage, 0.5), "s"},
      {"result_s.p50", quantile(stats.result, 0.5), "s"},
      {"result_s.tail", quantile(stats.result, kResultTailQ), "s"},
      {"first_result_s.p50", quantile(stats.first_result, 0.5), "s"},
      {"reload_s.p50", quantile(stats.reload, 0.5), "s"},
      {"poll_s.p50", poll_p50, "s"},
      {"status_s.p50", quantile(stats.status, 0.5), "s"},
      {"events_per_s", driven.window_s > 0 ? events / driven.window_s : 0, "1/s"},
      {"heap_mb", driven.heap_mb, "MB"},
      {"ok_ratio", ok_ratio, "ratio"},
  };

  std::printf("workload %s: %s loop, %d %s x %d engines, %llu events, seed %llu, %.0f s window\n",
              spec->name.c_str(), spec->open_loop ? "open" : "closed", spec->clients,
              spec->open_loop ? "sessions" : "analysts", spec->engines,
              static_cast<unsigned long long>(spec->events),
              static_cast<unsigned long long>(flags.seed), driven.window_s);
  std::printf("samples: stage=%zu result=%zu first_result=%zu reload=%zu control=%zu "
              "control_loop=%zu poll=%zu status=%zu; result_s.tail = p%g\n",
              stats.stage.size(), stats.result.size(), stats.first_result.size(),
              stats.reload.size(), stats.control.size(), stats.control_loop.size(),
              stats.poll.size(), stats.status.size(), 100 * kResultTailQ);
  std::printf("setup runs:");
  for (double t : setup_times) std::printf(" %.4g", t);
  std::printf(" s\n");
  std::printf("failed_ratio %.6g (%llu failed of %llu attempted, %llu result mismatches)\n",
              stats.attempted == 0 ? 0.0 : 1.0 - ok_ratio,
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.attempted),
              static_cast<unsigned long long>(stats.mismatches));
  for (const Metric& m : e2e) std::printf("  %-22s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  const std::pair<const char*, const std::vector<double>*> series[] = {
      {"result_s", &stats.result}, {"control_s", &stats.control},
      {"control_loop_s", &stats.control_loop}, {"first_result_s", &stats.first_result},
      {"stage_s", &stats.stage}, {"poll_s", &stats.poll}, {"status_s", &stats.status}};
  for (const auto& [name, samples] : series) {
    std::printf("quantiles %s:", name);
    for (double q : {0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.999}) {
      std::printf(" p%g=%.6g", 100 * q, quantile(*samples, q));
    }
    std::printf("\n");
  }
  std::printf("control p50 by call:");
  for (const auto& [name, samples] : stats.control_calls) {
    std::printf(" %s=%.6g", name.c_str(), quantile(samples, 0.5));
  }
  std::printf("\ncontrol_loop_s.p50 %.6g s, peak rss %.4g MB\n", control_loop_p50, rss_mb);

  std::vector<Metric> printed = e2e;
  std::string gap;
  if (flags.trace) {
    LedgerInputs in;
    in.spec = spec;
    in.site = site.get();
    in.stats = &stats;
    in.metrics_before = &*before;
    in.metrics_after = &*after;
    in.reference = &*want_first;
    in.result_p50 = quantile(stats.result, 0.5);
    in.stage_p50 = quantile(stats.stage, 0.5);
    in.poll_p50 = poll_p50;
    LedgerOutput traced = ledger(in);
    printed = std::move(traced.metrics);
    printed.push_back({"soap.control_loop_s", control_loop_p50, "s"});
    printed.push_back({"mem.rss_mb", rss_mb, "MB"});
    gap = std::move(traced.gap);
    for (const Metric& m : printed) {
      std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    // Spans outlive the run's work directory: they go beside it.
    const std::string spans =
        (work.parent_path() / ("spans-" + spec->name + "-" + std::to_string(flags.seed) + ".jsonl")).string();
    write_spans(spans, stats.spans);
    std::printf("spans: %zu written to %s\n", stats.spans.size(), spans.c_str());
  }

  if (!gap.empty()) std::fprintf(stderr, "perfbench: ledger: %s\n", gap.c_str());
  // Correct only when results were checked and every one matched, and a
  // traced run's ledger reconciles.
  const bool correct = stats.mismatches == 0 && !stats.result.empty() && gap.empty();
  site.reset();
  std::fflush(stdout);
  print_json(correct, stats, printed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Flags flags;
  if (!perfbench::parse(argc, argv, flags)) {
    perfbench::usage();
    return 2;
  }
  return perfbench::run(flags);
}
