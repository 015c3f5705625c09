#include "core/config.hpp"

#include <fstream>
#include <sstream>

namespace mcb {

std::optional<JobFeature> parse_job_feature(const std::string& name) {
  if (name == "user_name") return JobFeature::kUserName;
  if (name == "job_name") return JobFeature::kJobName;
  if (name == "cores_requested") return JobFeature::kCoresRequested;
  if (name == "nodes_requested") return JobFeature::kNodesRequested;
  if (name == "environment") return JobFeature::kEnvironment;
  if (name == "frequency") return JobFeature::kFrequency;
  return std::nullopt;
}

Json FrameworkConfig::to_json() const {
  Json machine_json = Json::object();
  machine_json.set("name", machine.name);
  machine_json.set("peak_gflops", machine.peak_gflops);
  machine_json.set("peak_bandwidth_gbs", machine.peak_bandwidth_gbs);

  Json features_json = Json::array();
  for (const JobFeature f : features) features_json.push_back(job_feature_name(f));

  Json encoder_json = Json::object();
  encoder_json.set("dim", static_cast<std::int64_t>(encoder.dim));
  Json ngrams = Json::array();
  for (const auto n : encoder.ngram_sizes) ngrams.push_back(static_cast<std::int64_t>(n));
  encoder_json.set("ngram_sizes", ngrams);
  encoder_json.set("use_word_tokens", encoder.use_word_tokens);
  encoder_json.set("word_weight", encoder.word_weight);
  encoder_json.set("ngram_weight", encoder.ngram_weight);
  encoder_json.set("seed", static_cast<std::int64_t>(encoder.seed));

  Json model_json = Json::object();
  model_json.set("kind", model_kind_name(model));
  model_json.set("knn_k", static_cast<std::int64_t>(knn.k));
  model_json.set("knn_minkowski_p", knn.minkowski_p);
  model_json.set("rf_trees", static_cast<std::int64_t>(forest.n_trees));
  model_json.set("rf_max_bins", static_cast<std::int64_t>(forest.max_bins));
  model_json.set("rf_max_depth", static_cast<std::int64_t>(forest.tree.max_depth));
  model_json.set("rf_seed", static_cast<std::int64_t>(forest.seed));

  Json theta_json = Json::object();
  const char* mode = theta.mode == ThetaConfig::Sampling::kAll
                         ? "all"
                         : (theta.mode == ThetaConfig::Sampling::kLatest ? "latest" : "random");
  theta_json.set("mode", mode);
  theta_json.set("theta", static_cast<std::int64_t>(theta.theta));
  theta_json.set("seed", static_cast<std::int64_t>(theta.seed));

  Json out = Json::object();
  out.set("machine", machine_json);
  out.set("features", features_json);
  out.set("encoder", encoder_json);
  out.set("model", model_json);
  out.set("alpha_days", alpha_days);
  out.set("beta_days", beta_days);
  out.set("theta", theta_json);
  out.set("registry_dir", registry_dir);
  out.set("server_port", server_port);
  return out;
}

std::optional<FrameworkConfig> FrameworkConfig::from_json(const Json& json,
                                                          std::string* error) {
  const auto fail = [error](const std::string& message) -> std::optional<FrameworkConfig> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  if (!json.is_object()) return fail("config must be a JSON object");

  static const char* kKnownKeys[] = {"machine", "features",   "encoder",      "model",
                                     "alpha_days", "beta_days", "theta",
                                     "registry_dir", "server_port"};
  for (const auto& [key, value] : json.as_object()) {
    (void)value;
    bool known = false;
    for (const char* k : kKnownKeys) known = known || key == k;
    if (!known) return fail("unknown config key '" + key + "'");
  }

  FrameworkConfig config;
  if (json.contains("machine")) {
    const Json& m = json["machine"];
    if (m.contains("name")) config.machine.name = m["name"].as_string();
    config.machine.peak_gflops = m["peak_gflops"].as_double(config.machine.peak_gflops);
    config.machine.peak_bandwidth_gbs =
        m["peak_bandwidth_gbs"].as_double(config.machine.peak_bandwidth_gbs);
    if (config.machine.peak_gflops <= 0.0 || config.machine.peak_bandwidth_gbs <= 0.0) {
      return fail("machine peaks must be positive");
    }
  }
  if (json.contains("features")) {
    config.features.clear();
    for (const Json& f : json["features"].as_array()) {
      const auto feature = parse_job_feature(f.as_string());
      if (!feature.has_value()) return fail("unknown feature '" + f.as_string() + "'");
      config.features.push_back(*feature);
    }
    if (config.features.empty()) return fail("feature set is empty");
  }
  if (json.contains("encoder")) {
    const Json& e = json["encoder"];
    config.encoder.dim = static_cast<std::size_t>(
        e["dim"].as_int(static_cast<std::int64_t>(config.encoder.dim)));
    if (config.encoder.dim == 0 || config.encoder.dim > (1 << 20)) {
      return fail("encoder dim out of range");
    }
    if (e.contains("ngram_sizes")) {
      config.encoder.ngram_sizes.clear();
      for (const Json& n : e["ngram_sizes"].as_array()) {
        config.encoder.ngram_sizes.push_back(static_cast<std::size_t>(n.as_int()));
      }
    }
    config.encoder.use_word_tokens =
        e["use_word_tokens"].as_bool(config.encoder.use_word_tokens);
    config.encoder.word_weight = e["word_weight"].as_double(config.encoder.word_weight);
    config.encoder.ngram_weight = e["ngram_weight"].as_double(config.encoder.ngram_weight);
    config.encoder.seed = static_cast<std::uint64_t>(
        e["seed"].as_int(static_cast<std::int64_t>(config.encoder.seed)));
  }
  if (json.contains("model")) {
    const Json& m = json["model"];
    if (m.contains("kind")) {
      const auto kind = parse_model_kind(m["kind"].as_string());
      if (!kind.has_value()) return fail("unknown model kind '" + m["kind"].as_string() + "'");
      config.model = *kind;
    }
    config.knn.k = static_cast<std::size_t>(
        m["knn_k"].as_int(static_cast<std::int64_t>(config.knn.k)));
    config.knn.minkowski_p = m["knn_minkowski_p"].as_double(config.knn.minkowski_p);
    config.forest.n_trees = static_cast<std::size_t>(
        m["rf_trees"].as_int(static_cast<std::int64_t>(config.forest.n_trees)));
    config.forest.max_bins = static_cast<std::size_t>(
        m["rf_max_bins"].as_int(static_cast<std::int64_t>(config.forest.max_bins)));
    config.forest.tree.max_depth = static_cast<std::size_t>(
        m["rf_max_depth"].as_int(static_cast<std::int64_t>(config.forest.tree.max_depth)));
    config.forest.seed = static_cast<std::uint64_t>(
        m["rf_seed"].as_int(static_cast<std::int64_t>(config.forest.seed)));
  }
  config.alpha_days = static_cast<int>(json["alpha_days"].as_int(config.alpha_days));
  config.beta_days = static_cast<int>(json["beta_days"].as_int(config.beta_days));
  if (config.alpha_days <= 0 || config.beta_days <= 0) {
    return fail("alpha_days/beta_days must be positive");
  }
  if (json.contains("theta")) {
    const Json& t = json["theta"];
    const std::string mode = t["mode"].as_string();
    if (mode == "all" || mode.empty()) {
      config.theta.mode = ThetaConfig::Sampling::kAll;
    } else if (mode == "latest") {
      config.theta.mode = ThetaConfig::Sampling::kLatest;
    } else if (mode == "random") {
      config.theta.mode = ThetaConfig::Sampling::kRandom;
    } else {
      return fail("unknown theta mode '" + mode + "'");
    }
    config.theta.theta = static_cast<std::size_t>(t["theta"].as_int(0));
    config.theta.seed = static_cast<std::uint64_t>(
        t["seed"].as_int(static_cast<std::int64_t>(config.theta.seed)));
  }
  if (json.contains("registry_dir")) config.registry_dir = json["registry_dir"].as_string();
  config.server_port = static_cast<int>(json["server_port"].as_int(config.server_port));
  return config;
}

std::optional<FrameworkConfig> FrameworkConfig::load_file(const std::string& path,
                                                          std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto json = Json::parse(buffer.str(), error);
  if (!json.has_value()) return std::nullopt;
  return from_json(*json, error);
}

bool FrameworkConfig::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json().pretty() << '\n';
  return static_cast<bool>(out);
}

}  // namespace mcb
