// Figure 6 reproduction: F1-macro of KNN and RF across the grid of
// retraining-window lengths alpha ∈ {15,30,45,60} days and retraining
// periods beta ∈ {1,2,5,10} days, over the February 2024 test month.
//
// Paper shape: F1 decreases as beta grows (staler models) for both
// models; RF is insensitive to alpha beyond 15 at beta = 1, KNN peaks
// around alpha = 30; best settings are (RF, alpha=15, beta=1) and
// (KNN, alpha=30, beta=1) with F1 0.90 / 0.89.
#include <cstdio>
#include <iterator>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace mcb;
  const auto flags = CliFlags::parse(
      argc, argv, bench::standard_flags(),
      "usage: bench_fig6_alpha_beta [--jobs-per-day N] [--seed S] [--rf-trees T]");
  if (!flags.has_value()) return 2;
  if (flags->help_requested()) return 0;
  const double jobs_per_day = flags->get_double("jobs-per-day", 200.0);
  const auto seed = static_cast<std::uint64_t>(flags->get_int("seed", 15));
  const auto rf_trees = static_cast<std::size_t>(flags->get_int("rf-trees", 100));

  bench::print_banner("Figure 6: F1 over alpha x beta", "Fig. 6 (§V-C a)", jobs_per_day,
                      seed);

  WorkloadConfig workload_config;
  const JobStore store = bench::build_store(jobs_per_day, seed, &workload_config);
  const Characterizer characterizer(workload_config.machine);
  const FeatureEncoder encoder;
  const OnlineEvaluator evaluator(store, characterizer, encoder);

  constexpr int alphas[] = {15, 30, 45, 60};
  constexpr int betas[] = {1, 2, 5, 10};
  constexpr std::size_t kAlphas = std::size(alphas);
  constexpr std::size_t kBetas = std::size(betas);

  for (const ModelKind kind : {ModelKind::kKnn, ModelKind::kRandomForest}) {
    std::printf("\n%s — F1-macro (rows: alpha days, columns: beta days)\n\n",
                kind == ModelKind::kKnn ? "KNN" : "RF");
    TextTable table({"alpha \\ beta", "1", "2", "5", "10"});
    double f1[kAlphas][kBetas] = {};
    double best_f1 = 0.0;
    int best_alpha = 0, best_beta = 0;
    for (std::size_t a = 0; a < kAlphas; ++a) {
      std::vector<std::string> row{std::to_string(alphas[a])};
      for (std::size_t b = 0; b < kBetas; ++b) {
        OnlineEvalConfig config;
        config.alpha_days = alphas[a];
        config.beta_days = betas[b];
        const auto result = evaluator.evaluate(bench::model_factory(kind, rf_trees), config);
        f1[a][b] = result.f1_macro();
        row.push_back(format_double(f1[a][b], 4));
        if (f1[a][b] > best_f1) {
          best_f1 = f1[a][b];
          best_alpha = alphas[a];
          best_beta = betas[b];
        }
      }
      table.add_row(std::move(row));
      std::fputs(".", stdout);
      std::fflush(stdout);
    }
    std::printf("\n\n%s\n", table.render().c_str());
    std::printf("best: alpha=%d beta=%d F1=%.4f  (paper best: %s)\n", best_alpha, best_beta,
                best_f1,
                kind == ModelKind::kKnn ? "alpha=30 beta=1, F1=0.89"
                                        : "alpha=15 beta=1, F1=0.90");
    std::printf("\nShape checks (staler models score lower):\n");
    for (std::size_t a = 0; a < kAlphas; ++a) {
      const double fresh = f1[a][0];
      const double stale = f1[a][kBetas - 1];
      std::printf("  alpha=%-2d F1(beta=1) %.4f >= F1(beta=10) %.4f  -> %s\n", alphas[a], fresh,
                  stale, fresh >= stale ? "OK" : "MISMATCH");
    }
  }
  return 0;
}
