// The three workloads and the code each one stages.
#include <span>

#include "bench.hpp"
#include "engine/analyzer.hpp"
#include "physics/event_gen.hpp"

namespace perfbench {
namespace {

using namespace ipa;

// Every workload keeps its engine threads, the ones that stay busy, at or
// below nproc (4): with more, poll and status latencies measured the
// scheduler. The script and live workloads run two busy engines at a time.
std::vector<WorkloadSpec> make_specs() {
  std::vector<WorkloadSpec> specs;

  // PawScript interpretation dominates the result: hundreds of us/event
  // against well under 1 us/event for the compiled twin. One engine per
  // analyst over 2k events keeps the run phase near half a second.
  WorkloadSpec script;
  script.name = "analyst_script";
  script.clients = 2;
  script.engines = 1;
  script.events = 2000;
  script.snapshot_every = 250;
  script.code = CodeKind::kScript;
  script.reloads = 1;
  script.poll_interval_s = 0.005;
  script.status_interval_s = 0.02;
  specs.push_back(script);

  // Staging and .ipd decode carry the work: tens of MB split and fanned out
  // per loop, then several short compiled-plugin runs over them.
  WorkloadSpec plugin;
  plugin.name = "analyst_plugin";
  plugin.clients = 2;
  plugin.engines = 2;
  plugin.events = 100000;
  plugin.snapshot_every = 2000;
  plugin.code = CodeKind::kPlugin;
  plugin.reloads = 3;
  plugin.poll_interval_s = 0.002;
  plugin.status_interval_s = 0.02;
  specs.push_back(plugin);

  // A stream of small reads: many histograms snapshotted often, polled and
  // probed at fixed offered rates while the engines run. Two engines per run
  // keep a real cross-engine merge behind every changed poll.
  WorkloadSpec live;
  live.name = "live_poll";
  live.open_loop = true;
  live.clients = 1;
  live.engines = 2;
  live.events = 96000;
  live.select_every = 4;
  live.snapshot_every = 512;
  live.code = CodeKind::kLive;
  live.reloads = 0;
  live.poll_interval_s = 0.016;
  live.status_interval_s = 0.02;
  specs.push_back(live);
  return specs;
}

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> table = make_specs();
  return table;
}

// The analyst's edit after a first look at the spectrum: tighter pT cut,
// finer mass binning, same per-event work as the first script.
const char* kHiggsScriptV2 = R"paw(
func begin(tree) {
  tree.book_h1("/higgs2/mass", 100, 50, 200, "leading pair mass, pT > 25 GeV");
  tree.book_h1("/higgs2/ntrk", 30, 0, 60, "candidate multiplicity");
}

func pt2(px, py, i) {
  return px[i] * px[i] + py[i] * py[i];
}

func process(event, tree) {
  let px = event.get("px");
  let py = event.get("py");
  let pz = event.get("pz");
  let e  = event.get("e");
  let n = len(px);
  tree.fill("/higgs2/ntrk", n);
  if (n < 2) { return 0; }
  let a = 0;
  let b = 1;
  if (pt2(px, py, 1) > pt2(px, py, 0)) { a = 1; b = 0; }
  for (let i = 2; i < n; i += 1) {
    if (pt2(px, py, i) > pt2(px, py, a)) { b = a; a = i; }
    else if (pt2(px, py, i) > pt2(px, py, b)) { b = i; }
  }
  if (pt2(px, py, a) < 625 || pt2(px, py, b) < 625) { return 0; }
  let se = e[a] + e[b];
  let sx = px[a] + px[b];
  let sy = py[a] + py[b];
  let sz = pz[a] + pz[b];
  let m2 = se * se - sx * sx - sy * sy - sz * sz;
  if (m2 > 0) { tree.fill("/higgs2/mass", sqrt(m2)); }
  return 0;
}
)paw";

// Books kLiveHistograms histograms and fills each from one candidate's px
// per event: cheap per record, large per snapshot.
class LiveAnalyzer final : public engine::Analyzer {
 public:
  Status begin(aida::Tree& tree) override {
    for (int h = 0; h < kLiveHistograms; ++h) {
      IPA_ASSIGN_OR_RETURN(aida::Histogram1D hist,
                           aida::Histogram1D::create("live px " + std::to_string(h), 50, -60, 60));
      tree.put(path(h), std::move(hist));
    }
    return Status::ok();
  }

  Status process(const data::Record& record, aida::Tree& tree) override {
    IPA_RETURN_IF_ERROR(resolve(tree));
    if (const auto* px = record.vec_or_null("px")) fill(*px);
    return Status::ok();
  }

  Status process_batch(const data::RecordBatch& batch, aida::Tree& tree) override {
    IPA_RETURN_IF_ERROR(resolve(tree));
    const int slot = batch.schema().slot_of("px");
    if (slot < 0) return Status::ok();
    for (std::size_t row = 0; row < batch.rows(); ++row) {
      if (batch.cell_kind(slot, row) == data::RecordBatch::CellKind::kVec) {
        fill(batch.cell_vec(slot, row));
      }
    }
    return Status::ok();
  }

 private:
  static std::string path(int h) { return "/live/px" + std::to_string(h); }

  // Tree objects can be replaced between calls (rewind re-books), so the
  // histogram pointers are resolved per call, not cached across calls.
  Status resolve(aida::Tree& tree) {
    hists_.clear();
    for (int h = 0; h < kLiveHistograms; ++h) {
      IPA_ASSIGN_OR_RETURN(aida::Histogram1D * hist, tree.histogram1d(path(h)));
      hists_.push_back(hist);
    }
    return Status::ok();
  }

  void fill(std::span<const double> px) {
    if (px.empty()) return;
    for (std::size_t h = 0; h < hists_.size(); ++h) {
      hists_[h]->fill(px[h % px.size()] * (1.0 + 0.03 * static_cast<double>(h)));
    }
  }

  std::vector<aida::Histogram1D*> hists_;
};

engine::CodeBundle bundle(engine::CodeBundle::Kind kind, std::string name, std::string source) {
  engine::CodeBundle out;
  out.kind = kind;
  out.name = std::move(name);
  out.source = std::move(source);
  return out;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

engine::CodeBundle first_code(const WorkloadSpec& spec) {
  using Kind = engine::CodeBundle::Kind;
  switch (spec.code) {
    case CodeKind::kScript: return bundle(Kind::kScript, "higgs-v1", physics::higgs_script());
    case CodeKind::kPlugin: return bundle(Kind::kPlugin, "higgs-mass", "higgs-mass");
    case CodeKind::kLive: break;
  }
  return bundle(Kind::kPlugin, kLivePlugin, kLivePlugin);
}

engine::CodeBundle reload_code(const WorkloadSpec& spec) {
  if (spec.code == CodeKind::kScript) {
    return bundle(engine::CodeBundle::Kind::kScript, "higgs-v2", kHiggsScriptV2);
  }
  return first_code(spec);  // native analyzers are restaged as-is
}

void register_live_plugin() {
  static const bool registered = [] {
    (void)engine::AnalyzerRegistry::instance().register_factory(
        kLivePlugin, [] { return std::make_unique<LiveAnalyzer>(); });
    return true;
  }();
  (void)registered;
}

}  // namespace perfbench
