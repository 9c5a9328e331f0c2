// Site set-up (start, dataset, publish, warm-up) and the correctness oracle.
#include <cmath>
#include <filesystem>

#include "bench.hpp"
#include "client/grid_client.hpp"
#include "data/dataset.hpp"
#include "data/record_batch.hpp"
#include "engine/analyzer.hpp"
#include "http/http.hpp"
#include "physics/event_gen.hpp"

namespace perfbench {
namespace {

using namespace ipa;

// One analyst loop with the workload's first code, so lazy set-up (engine
// code paths, analyzer registries, pools, page cache) is paid before timing.
Status warm_up(const WorkloadSpec& spec, const Uri& soap, const std::string& proxy) {
  IPA_ASSIGN_OR_RETURN(client::GridClient client, client::GridClient::connect(soap, proxy));
  IPA_ASSIGN_OR_RETURN(client::GridSession session, client.create_session(spec.engines));
  IPA_RETURN_IF_ERROR(session.activate());
  IPA_RETURN_IF_ERROR(session.select_dataset(Site::kDatasetId).status());
  const engine::CodeBundle code = first_code(spec);
  IPA_RETURN_IF_ERROR(code.kind == engine::CodeBundle::Kind::kScript
                          ? session.stage_script(code.name, code.source)
                          : session.stage_plugin(code.source));
  IPA_RETURN_IF_ERROR(session.run_to_completion(120.0).status());
  return session.close();
}

}  // namespace

Result<std::unique_ptr<Site>> Site::start(const WorkloadSpec& spec, const std::string& dir,
                                          std::uint64_t seed) {
  physics::register_higgs_plugin();
  register_live_plugin();
  std::unique_ptr<Site> site(new Site());
  site->dir_ = dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return internal_error("perfbench: cannot create " + dir + ": " + ec.message());

  site->dataset_path_ = (std::filesystem::path(dir) / "dataset.ipd").string();
  IPA_RETURN_IF_ERROR(
      physics::generate_dataset(site->dataset_path_, spec.name, spec.events, {}, seed)
          .status()
          .with_prefix("perfbench: dataset"));

  services::ManagerConfig config;
  config.staging_dir = (std::filesystem::path(dir) / "staging").string();
  config.site_max_nodes = spec.engines;
  config.engine_config.snapshot_every = spec.snapshot_every;
  // Engine RPC links hold a worker each; leave room for every engine of
  // every client plus the polling connections.
  const auto engines = static_cast<std::size_t>(spec.clients * spec.engines);
  config.rpc_pool.max_workers = engines + static_cast<std::size_t>(spec.clients) + 16;
  config.rpc_pool.queue_capacity = engines + 64;
  config.soap_pool.max_workers = 8;
  config.soap_pool.queue_capacity = 64;
  // A busy 4-core host must not be mistaken for dead engines.
  config.heartbeat_interval_s = 0.25;
  config.heartbeat_timeout_s = 20.0;
  config.monitor_interval_s = 1.0;
  IPA_ASSIGN_OR_RETURN(site->manager_, services::ManagerNode::start(std::move(config)));
  site->soap_ = site->manager_->soap_endpoint();
  IPA_RETURN_IF_ERROR(site->manager_->publish_dataset(
      "lc/bench", kDatasetId, {{"experiment", "LC"}, {"workload", spec.name}},
      site->dataset_path_));

  const std::string base = site->manager_->authority().issue("cn=analyst", {"analysis"}, 7200);
  IPA_ASSIGN_OR_RETURN(site->proxy_,
                       client::make_proxy(site->manager_->authority(), base, 7200));
  IPA_RETURN_IF_ERROR(warm_up(spec, site->soap_, site->proxy_).with_prefix("perfbench: warm-up"));
  return site;
}

Site::~Site() {
  if (manager_) manager_->stop();
  manager_.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

Result<std::string> Site::scrape() const {
  IPA_ASSIGN_OR_RETURN(http::Client client, http::Client::connect(soap_.host, soap_.port, 5.0));
  IPA_ASSIGN_OR_RETURN(const http::Response response, client.get("/metrics", 30.0));
  if (response.status != 200) {
    return unavailable("perfbench: /metrics returned " + std::to_string(response.status));
  }
  return response.body;
}

Result<aida::Tree> reference_tree(const engine::CodeBundle& bundle,
                                  const std::string& dataset_path) {
  IPA_ASSIGN_OR_RETURN(std::unique_ptr<engine::Analyzer> analyzer, engine::make_analyzer(bundle));
  IPA_ASSIGN_OR_RETURN(data::DatasetReader reader, data::DatasetReader::open(dataset_path));
  aida::Tree tree;
  IPA_RETURN_IF_ERROR(analyzer->begin(tree));
  data::RecordBatch batch = reader.make_batch();
  while (true) {
    batch.clear();
    IPA_ASSIGN_OR_RETURN(const std::uint64_t rows, reader.read_batch(batch, 256));
    if (rows == 0) break;
    IPA_RETURN_IF_ERROR(analyzer->process_batch(batch, tree));
  }
  IPA_RETURN_IF_ERROR(analyzer->end(tree));
  return tree;
}

namespace {

bool close_enough(double got, double want) {
  return std::fabs(got - want) <= kMomentRelTol * std::max(std::fabs(want), 1e-300) ||
         got == want;
}

std::string compare_hist(const std::string& path, const aida::Histogram1D& got,
                         const aida::Histogram1D& want) {
  if (got.axis().bins() != want.axis().bins() || got.axis().lower() != want.axis().lower() ||
      got.axis().upper() != want.axis().upper()) {
    return path + ": axis differs";
  }
  if (got.entries() != want.entries()) {
    return path + ": entries " + std::to_string(got.entries()) + " != " +
           std::to_string(want.entries());
  }
  // kUnderflow (-2) and kOverflow (-1) precede the in-range bins.
  for (int i = aida::kUnderflow; i < want.axis().bins(); ++i) {
    if (got.bin_height(i) != want.bin_height(i) || got.bin_error(i) != want.bin_error(i)) {
      return path + ": bin " + std::to_string(i) + " height " +
             std::to_string(got.bin_height(i)) + " != " + std::to_string(want.bin_height(i));
    }
  }
  if (!close_enough(got.mean(), want.mean()) || !close_enough(got.rms(), want.rms())) {
    return path + ": moments differ beyond tolerance";
  }
  return "";
}

}  // namespace

std::string compare_trees(const aida::Tree& got, const aida::Tree& want) {
  if (got.paths() != want.paths()) return "object paths differ";
  for (const std::string& path : want.paths()) {
    const aida::Object* g = *got.find(path);
    const aida::Object* w = *want.find(path);
    const auto* gh = std::get_if<aida::Histogram1D>(g);
    const auto* wh = std::get_if<aida::Histogram1D>(w);
    if (gh == nullptr || wh == nullptr) {
      if (object_kind(*g) != object_kind(*w)) return path + ": object kind differs";
      return path + ": only 1-D histograms are compared";
    }
    std::string diff = compare_hist(path, *gh, *wh);
    if (!diff.empty()) return diff;
  }
  return "";
}

}  // namespace perfbench
