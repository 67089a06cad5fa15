#include "harness/experiments.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/check.hpp"

namespace vexsim::harness {
namespace {

Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Experiments, OptionsFromCliDefaults) {
  const auto opt = ExperimentOptions::from_cli(make_cli({}));
  EXPECT_EQ(opt.budget, 250'000u);
  EXPECT_EQ(opt.timeslice, 100'000u);
  EXPECT_EQ(opt.seed, 42u);
}

TEST(Experiments, PaperFlagRestoresPaperScale) {
  const auto opt = ExperimentOptions::from_cli(make_cli({"--paper"}));
  EXPECT_EQ(opt.budget, 200'000'000u);
  EXPECT_EQ(opt.timeslice, 5'000'000u);
  EXPECT_DOUBLE_EQ(opt.scale, 1.0);
}

TEST(Experiments, ExplicitFlagsOverride) {
  const auto opt = ExperimentOptions::from_cli(
      make_cli({"--quick", "--budget", "12345", "--seed=9"}));
  EXPECT_EQ(opt.budget, 12345u);
  EXPECT_EQ(opt.seed, 9u);
}

TEST(Experiments, FromCliRejectsOutOfRangeValues) {
  // Each of these used to be accepted: a budget of 0 printed a table of
  // meaningless speedups, a negative scale or zero timeslice ran a
  // degenerate model, and a budget past 2^63 clamped and ran unbounded.
  for (const auto& args : std::vector<std::vector<const char*>>{
           {"--budget", "0"},
           {"--budget", "-5"},
           {"--scale", "-1"},
           {"--scale", "0"},
           {"--scale", "nan"},
           {"--scale", "inf"},
           {"--timeslice", "0"},
           {"--budget", "99999999999999999999"},
           {"--seed", "12abc"},
           {"--budget", "2e5"},
           {"--budget="},
           {"--budget"},
       }) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    const Cli cli(static_cast<int>(argv.size()), argv.data());
    EXPECT_THROW((void)ExperimentOptions::from_cli(cli), CheckError)
        << args[0];
  }
}

TEST(Experiments, FromCliAcceptsBoundaryValues) {
  const auto opt = ExperimentOptions::from_cli(make_cli(
      {"--budget", "1", "--timeslice", "0x10", "--scale", "1e-3"}));
  EXPECT_EQ(opt.budget, 1u);
  EXPECT_EQ(opt.timeslice, 16u);
  EXPECT_DOUBLE_EQ(opt.scale, 1e-3);
}

// apply_run_length is also how vexplore overrides each sampled scenario's
// run length, so it is exercised here over a scenario-like base rather than
// the defaults. Each of these values used to pass through vexplore
// unchecked: --budget -5 ran until killed, the others wrote a report.
ExperimentOptions scenario_like() {
  ExperimentOptions opt;
  opt.scale = 0.05;
  opt.budget = 40'000;
  opt.timeslice = 20'000;
  return opt;
}

TEST(Experiments, RunLengthOverrideRejectsOutOfRangeValues) {
  for (const auto& args : std::vector<std::vector<const char*>>{
           {"--budget", "0"},
           {"--budget", "-5"},
           {"--scale", "-1"},
           {"--timeslice", "0"},
       }) {
    ExperimentOptions opt = scenario_like();
    try {
      opt.apply_run_length(make_cli({args[0], args[1]}));
      FAIL() << "expected CheckError for " << args[0] << " " << args[1];
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(args[0]) + " must be"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Experiments, RunLengthOverrideKeepsUnsetValues) {
  ExperimentOptions opt = scenario_like();
  opt.apply_run_length(make_cli({"--budget", "7"}));
  EXPECT_EQ(opt.budget, 7u);
  EXPECT_EQ(opt.timeslice, 20'000u);
  EXPECT_DOUBLE_EQ(opt.scale, 0.05);
}

ExperimentOptions tiny() {
  ExperimentOptions opt;
  opt.scale = 0.02;
  opt.budget = 15'000;
  opt.timeslice = 8'000;
  opt.max_cycles = 20'000'000;
  return opt;
}

TEST(Experiments, RunSingleProducesSaneStats) {
  const RunResult r = run_single("djpeg", /*perfect=*/true, tiny());
  EXPECT_GT(r.ipc(), 0.5);
  EXPECT_EQ(r.issue_width, 16);
  EXPECT_EQ(r.instances.size(), 1u);
  EXPECT_GE(r.instances[0].instructions, tiny().budget);
}

TEST(Experiments, RunWorkloadUsesFourInstances) {
  const RunResult r = run_workload("mmmm", 2, Technique::csmt(), tiny());
  EXPECT_EQ(r.instances.size(), 4u);
  EXPECT_GT(r.sim.multi_thread_cycles, 0u);
}

TEST(Experiments, SplitIssueNeverLosesMuch) {
  // Split-issue may reorder contention but must not regress meaningfully:
  // a standing sanity check on the whole pipeline.
  const ExperimentOptions opt = tiny();
  for (const char* w : {"llmm", "mmhh"}) {
    const double csmt = run_workload(w, 4, Technique::csmt(), opt).ipc();
    const double ccsi =
        run_workload(w, 4, Technique::ccsi(CommPolicy::kAlwaysSplit), opt)
            .ipc();
    EXPECT_GT(ccsi, csmt * 0.98) << w;
    const double smt = run_workload(w, 4, Technique::smt(), opt).ipc();
    const double oosi =
        run_workload(w, 4, Technique::oosi(CommPolicy::kAlwaysSplit), opt)
            .ipc();
    EXPECT_GT(oosi, smt * 0.98) << w;
  }
}

TEST(Experiments, OperationMergingBeatsClusterMerging) {
  // SMT ≥ CSMT (operation-level merging is strictly more permissive).
  const ExperimentOptions opt = tiny();
  const double csmt = run_workload("llmm", 4, Technique::csmt(), opt).ipc();
  const double smt = run_workload("llmm", 4, Technique::smt(), opt).ipc();
  EXPECT_GE(smt, csmt * 0.99);
}

}  // namespace
}  // namespace vexsim::harness
