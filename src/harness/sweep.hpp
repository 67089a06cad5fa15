// Parallel experiment-sweep engine.
//
// A sweep is a flat list of independent simulation points, each fully
// described by (MachineConfig, workload, ExperimentOptions). Points run on a
// small thread pool; every point owns a private deterministic Rng stream
// (seeded from its ExperimentOptions), so results are bit-identical to a
// serial run regardless of --jobs and of worker interleaving. Bench binaries
// build their point lists up front, run the sweep, then render tables and a
// machine-readable JSON trajectory from the in-order results.
//
// Failure policy: every point runs inline on its worker; any point error
// aborts the sweep once the workers drain, as one CheckError naming the
// failed-point count and the first few failing labels. Runs are bounded by
// ExperimentOptions::budget and max_cycles, not by wall clock.
//
// Result caching (`cache_dir` / --cache, off by default): points whose
// content hash is already in the cache are served before the thread pool
// starts; misses run as usual and are persisted as each completes. Cached
// results are bit-identical to fresh ones (the golden suite is the
// referee), and a cold-cache run emits byte-identical JSON to a warm one.
// This is also how a killed sweep resumes: re-run it with the same --cache
// and every finished point is served. Sharded sweeps resume through
// vexmerge's resume manifest (harness/shard.hpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/experiments.hpp"
#include "stats/json.hpp"

namespace vexsim::harness {

struct SweepPoint {
  std::string label;      // unique within a sweep; keys the JSON entry
  MachineConfig cfg;
  std::string workload;   // any wl::workload()-resolvable name
  ExperimentOptions opt;
};

struct SweepOptions {
  int jobs = 1;  // worker threads; >= 1 (checked)
  // When > 0, a progress line ("sweep: K/N points") goes to
  // *progress_stream after every `progress_every` completed points —
  // long paper-scale sweeps stay observable without touching the results.
  int progress_every = 0;
  std::ostream* progress_stream = nullptr;  // nullptr = std::cerr

  // Content-addressed result cache directory (harness/result_cache.hpp);
  // empty disables caching. Hits are served without touching the thread
  // pool; misses are simulated and persisted. Served/total counts go to
  // *progress_stream ("sweep: served K/N points from result cache").
  std::string cache_dir;

  // When >= 0 (--cache-gc SIZE), the cache directory is garbage-collected
  // after the sweep completes: oldest-mtime records are evicted until the
  // indexed bytes fit the budget, and the index is rewritten consistently.
  // Requires cache_dir; a summary line goes to *progress_stream.
  std::int64_t cache_gc_bytes = -1;

  // Applies --jobs/--progress/--cache[=DIR]/--no-cache/--cache-gc SIZE.
  // Bare `--cache` uses ./sweep-cache; --no-cache wins over --cache (so a
  // wrapper script's cache can be disabled without editing it). --cache-gc
  // accepts K/M/G suffixes and is an error without an active --cache. The
  // removed --timeout, --retries and --flush flags are rejected with a
  // message naming their replacement.
  static SweepOptions from_cli(const Cli& cli);
};

// Decorrelated per-point seed stream: splitmix64 over (base, index). Points
// built from a single --seed get independent Rng streams that never depend
// on scheduling order.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base,
                                        std::uint64_t index);

// Runs every point and returns results in point order. jobs == 1
// degenerates to the serial loop; results are bit-identical for any job
// count. Point errors are aggregated after all workers drain into one
// CheckError reporting the failed-point count and the first few failing
// labels.
[[nodiscard]] std::vector<RunResult> run_sweep(
    const std::vector<SweepPoint>& points, const SweepOptions& opts);
[[nodiscard]] std::vector<RunResult> run_sweep(
    const std::vector<SweepPoint>& points, int jobs);

// Builds the BENCH_*.json trajectory document: one entry per point carrying
// the configuration axes and the full per-run statistics.
[[nodiscard]] Json sweep_json(const std::string& experiment,
                              const std::vector<SweepPoint>& points,
                              const std::vector<RunResult>& results);

// One rendered trajectory entry (the per-point subtree of sweep_json).
// Exposed for the shard layer, which embeds these subtrees in shard
// documents so vexmerge can re-emit them byte-identically.
[[nodiscard]] Json sweep_point_json(const SweepPoint& p, const RunResult& r);

// Bench-binary entry point: runs the sweep with --jobs workers (progress
// via --progress N) and writes the trajectory to --json (default
// BENCH_<experiment>.json), returning the in-order results for table
// rendering.
//
// Under --shard i/N only the owned round-robin slice is simulated and the
// output becomes a shard document (default name
// BENCH_<experiment>.shard<i>of<N>.json) for tools/vexmerge; the returned
// vector still has one entry per point, with foreign points left
// default-constructed — sharded benches should skip table rendering.
[[nodiscard]] std::vector<RunResult> run_sweep_and_dump(
    const Cli& cli, const std::string& experiment,
    const std::vector<SweepPoint>& points);

// Result of the point carrying `label`; CheckError when absent. Keys table
// rendering on labels instead of fragile parallel index arithmetic.
[[nodiscard]] const RunResult& result_for(
    const std::vector<SweepPoint>& points,
    const std::vector<RunResult>& results, const std::string& label);

}  // namespace vexsim::harness
