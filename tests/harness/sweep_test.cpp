#include "harness/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace vexsim::harness {
namespace {

// Tiny budgets: the determinism property does not depend on run length.
ExperimentOptions tiny_options(std::uint64_t seed) {
  ExperimentOptions opt;
  opt.scale = 0.05;
  opt.budget = 2'000;
  opt.timeslice = 500;
  opt.seed = seed;
  return opt;
}

// Two workloads by three techniques, each point on its own derived stream.
std::vector<SweepPoint> sample_points(std::uint64_t base_seed) {
  std::vector<SweepPoint> points;
  std::uint64_t i = 0;
  for (const char* w : {"llll", "mmhh"}) {
    for (const Technique t : {Technique::csmt(), Technique::smt(),
                              Technique::ccsi(CommPolicy::kAlwaysSplit)}) {
      points.push_back({std::string(w) + "/" + t.name(),
                        MachineConfig::paper(2, t), w,
                        tiny_options(derive_seed(base_seed, i))});
      ++i;
    }
  }
  return points;
}

TEST(Sweep, ParallelBitIdenticalToSerialAcrossSeeds) {
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{7},
                                   std::uint64_t{20100419}}) {
    const auto points = sample_points(seed);
    const auto serial = run_sweep(points, 1);
    const auto parallel = run_sweep(points, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].sim.cycles, parallel[i].sim.cycles) << i;
      EXPECT_EQ(serial[i].sim.ops_issued, parallel[i].sim.ops_issued) << i;
      EXPECT_EQ(serial[i].sim.instructions_retired,
                parallel[i].sim.instructions_retired)
          << i;
      ASSERT_EQ(serial[i].instances.size(), parallel[i].instances.size());
      for (std::size_t k = 0; k < serial[i].instances.size(); ++k)
        EXPECT_EQ(serial[i].instances[k].arch_fingerprint,
                  parallel[i].instances[k].arch_fingerprint)
            << i << "/" << k;
    }
    // The emitted trajectory document must be byte-identical too — this is
    // what the bench-level --jobs 1 vs --jobs 8 JSON comparison relies on.
    EXPECT_EQ(sweep_json("sweep_test", points, serial).dump(),
              sweep_json("sweep_test", points, parallel).dump());
  }
}

TEST(Sweep, SeedChangesResults) {
  const auto a = run_sweep(sample_points(1), 2);
  const auto b = run_sweep(sample_points(2), 2);
  // Different driver seeds reshuffle context switches; cycle counts of the
  // multithreaded runs should not all coincide.
  bool any_differ = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    any_differ |= a[i].sim.cycles != b[i].sim.cycles;
  EXPECT_TRUE(any_differ);
}

TEST(Sweep, DeriveSeedIsDeterministicAndDecorrelated) {
  EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(derive_seed(42, i));
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
}

TEST(Sweep, ProgressReportingEveryNPoints) {
  const auto points = sample_points(5);  // six points
  std::ostringstream progress;
  SweepOptions opts;
  opts.jobs = 3;
  opts.progress_every = 2;
  opts.progress_stream = &progress;
  const auto results = run_sweep(points, opts);
  EXPECT_EQ(results.size(), points.size());
  const std::string text = progress.str();
  EXPECT_NE(text.find("sweep: 2/6 points"), std::string::npos) << text;
  EXPECT_NE(text.find("sweep: 4/6 points"), std::string::npos) << text;
  EXPECT_NE(text.find("sweep: 6/6 points"), std::string::npos) << text;
  // Every line is a counter multiple: nothing else is reported.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);

  // Progress reporting must not perturb the results.
  const auto quiet = run_sweep(points, 1);
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i].sim.cycles, quiet[i].sim.cycles) << i;

  // Disabled by default: nothing is written.
  std::ostringstream silent;
  SweepOptions off;
  off.jobs = 2;
  off.progress_stream = &silent;
  (void)run_sweep(points, off);
  EXPECT_TRUE(silent.str().empty());
}

TEST(Sweep, JsonDefaultNameAndGeometryAxis) {
  const auto points = sample_points(4);
  const auto results = run_sweep(points, 2);
  const std::string text = sweep_json("t", points, results).dump();
  EXPECT_NE(text.find("\"geometry\": \"4x4\""), std::string::npos);
}

TEST(Sweep, RejectsNonPositiveJobs) {
  EXPECT_THROW((void)run_sweep({}, 0), CheckError);
  EXPECT_THROW((void)run_sweep({}, -3), CheckError);
  EXPECT_TRUE(run_sweep({}, 4).empty());
}

TEST(Sweep, WorkerExceptionsPropagate) {
  std::vector<SweepPoint> points = sample_points(1);
  points[1].workload = "no-such-mix";
  EXPECT_THROW((void)run_sweep(points, 4), CheckError);
  EXPECT_THROW((void)run_sweep(points, 1), CheckError);
}

std::string fresh_cache_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "/vexsim_sweep_cache_" + tag;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

// Replaces every occurrence of `from` with `to`; asserts at least one match.
std::string replace_all_in(std::string text, const std::string& from,
                           const std::string& to) {
  std::size_t pos = 0;
  std::size_t n = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
    ++n;
  }
  EXPECT_GT(n, 0u);
  return text;
}

TEST(Sweep, CacheServesBitIdenticalResults) {
  const auto points = sample_points(11);
  SweepOptions opts;
  opts.jobs = 3;
  opts.cache_dir = fresh_cache_dir("bitident");

  const auto cold = run_sweep(points, opts);
  const auto warm = run_sweep(points, opts);
  ASSERT_EQ(cold.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_FALSE(cold[i].cache_hit) << i;   // fresh simulation...
    EXPECT_TRUE(cold[i].cached) << i;       // ...persisted on the way out
    EXPECT_TRUE(warm[i].cache_hit) << i;    // served without simulating
    EXPECT_TRUE(warm[i].cached) << i;
  }

  // The acceptance property: a cold-cache sweep and a warm-cache sweep
  // serialize to byte-identical trajectories.
  const std::string cold_json = sweep_json("cache_test", points, cold).dump();
  const std::string warm_json = sweep_json("cache_test", points, warm).dump();
  EXPECT_EQ(cold_json, warm_json);

  // Against an uncached run, every simulated statistic is bit-identical;
  // the only JSON difference is the documented `cached` provenance flag.
  const auto uncached = run_sweep(points, 2);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(warm[i].sim.cycles, uncached[i].sim.cycles) << i;
    EXPECT_EQ(warm[i].sim.ops_issued, uncached[i].sim.ops_issued) << i;
    ASSERT_EQ(warm[i].instances.size(), uncached[i].instances.size());
    for (std::size_t k = 0; k < warm[i].instances.size(); ++k)
      EXPECT_EQ(warm[i].instances[k].arch_fingerprint,
                uncached[i].instances[k].arch_fingerprint)
          << i << "/" << k;
  }
  const std::string uncached_json =
      sweep_json("cache_test", points, uncached).dump();
  EXPECT_EQ(replace_all_in(uncached_json, "\"cached\": false",
                           "\"cached\": true"),
            warm_json);
}

TEST(Sweep, CacheSummaryLineReportsHitCounts) {
  const auto points = sample_points(12);
  SweepOptions opts;
  opts.jobs = 2;
  opts.cache_dir = fresh_cache_dir("summary");
  std::ostringstream cold_log;
  opts.progress_stream = &cold_log;
  (void)run_sweep(points, opts);
  EXPECT_NE(cold_log.str().find("served 0/6 points from result cache"),
            std::string::npos)
      << cold_log.str();
  std::ostringstream warm_log;
  opts.progress_stream = &warm_log;
  (void)run_sweep(points, opts);
  EXPECT_NE(warm_log.str().find("served 6/6 points from result cache"),
            std::string::npos)
      << warm_log.str();

  // Without a cache directory the summary line never appears (the silent
  // default-progress contract of ProgressReportingEveryNPoints).
  std::ostringstream quiet;
  SweepOptions off;
  off.jobs = 2;
  off.progress_stream = &quiet;
  (void)run_sweep(points, off);
  EXPECT_TRUE(quiet.str().empty());
}

TEST(Sweep, CacheHitsSkipTheWorkerPoolButKeepOrder) {
  // Warm every point, then corrupt one entry: only that point re-simulates
  // and the sweep still returns results in point order.
  const auto points = sample_points(13);
  SweepOptions opts;
  opts.jobs = 4;
  opts.cache_dir = fresh_cache_dir("partial");
  const auto cold = run_sweep(points, opts);
  // Clearing the whole directory but one record leaves 1 hit + 5 misses.
  std::size_t kept = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(opts.cache_dir)) {
    if (kept++ > 0) std::filesystem::remove(entry.path());
  }
  std::ostringstream log;
  opts.progress_stream = &log;
  const auto mixed = run_sweep(points, opts);
  EXPECT_NE(log.str().find("served 1/6 points from result cache"),
            std::string::npos)
      << log.str();
  std::size_t hits = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    hits += mixed[i].cache_hit ? 1u : 0u;
    EXPECT_EQ(mixed[i].sim.cycles, cold[i].sim.cycles) << i;
  }
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(sweep_json("t", points, mixed).dump(),
            sweep_json("t", points, cold).dump());
}

TEST(Sweep, AggregatedErrorReportsCountAndLabels) {
  std::vector<SweepPoint> points = sample_points(1);
  points[1].workload = "no-such-mix";
  points[4].workload = "also-missing";
  try {
    (void)run_sweep(points, 4);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2/6 points failed"), std::string::npos) << what;
    EXPECT_NE(what.find(points[1].label), std::string::npos) << what;
    EXPECT_NE(what.find(points[4].label), std::string::npos) << what;
    EXPECT_NE(what.find("no-such-mix"), std::string::npos) << what;
  }
}

TEST(Sweep, FromCliParsesCacheAndRejectsRetiredFlags) {
  const auto opts_for = [](std::initializer_list<const char*> args) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    const Cli cli(static_cast<int>(argv.size()), argv.data());
    return SweepOptions::from_cli(cli);
  };
  EXPECT_EQ(opts_for({}).cache_dir, "");
  EXPECT_EQ(opts_for({"--cache"}).cache_dir, "sweep-cache");
  EXPECT_EQ(opts_for({"--cache", "my-dir"}).cache_dir, "my-dir");
  EXPECT_EQ(opts_for({"--cache=my-dir"}).cache_dir, "my-dir");
  // --no-cache wins so wrapper-script caches can be disabled per run.
  EXPECT_EQ(opts_for({"--cache", "my-dir", "--no-cache"}).cache_dir, "");
  EXPECT_EQ(opts_for({"--no-cache"}).cache_dir, "");
  // Removed flags fail loudly instead of being dropped as unknown, and the
  // message names the flag and what replaces it.
  for (const auto& args : std::vector<std::vector<const char*>>{
           {"--timeout", "5000"}, {"--retries", "2"}, {"--flush", "10"}}) {
    try {
      (void)opts_for({args[0], args[1]});
      FAIL() << "expected CheckError for " << args[0];
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string(args[0]) + " was removed"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("--cache"), std::string::npos) << what;
      EXPECT_NE(what.find("--budget"), std::string::npos) << what;
    }
  }
}

TEST(Sweep, ResultForLooksUpByLabel) {
  const auto points = sample_points(1);
  const auto results = run_sweep(points, 2);
  EXPECT_EQ(&result_for(points, results, points[3].label), &results[3]);
  EXPECT_THROW((void)result_for(points, results, "no-such-label"), CheckError);
}

TEST(Sweep, JsonCarriesConfigurationAxes) {
  const auto points = sample_points(3);
  const auto results = run_sweep(points, 2);
  const Json doc = sweep_json("sweep_test", points, results);
  const std::string text = doc.dump();
  EXPECT_NE(text.find("\"experiment\": \"sweep_test\""), std::string::npos);
  EXPECT_NE(text.find("\"workload\": \"llll\""), std::string::npos);
  EXPECT_NE(text.find("\"technique\": \"CCSI AS\""), std::string::npos);
  EXPECT_NE(text.find("\"ipc\":"), std::string::npos);
  EXPECT_NE(text.find("\"arch_fingerprint\":"), std::string::npos);
}

}  // namespace
}  // namespace vexsim::harness
