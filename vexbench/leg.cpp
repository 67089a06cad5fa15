// vexbench_leg: one leg of the vexsim benchmark (vexbench/run.py drives it).
//
// Every leg is its own process, so each starts cold: the compile memo
// behind wl::build_workload lives for the whole process and cannot be
// cleared, and a "cold sweep" is what users wait for when they run a figure
// bench.
//
// Modes (first positional argument); each prints one JSON object on stdout:
//   info      build provenance (build type, compiler)
//   fixture   prepares the workload's inputs. warm-sweep: a result cache
//             filled by a cold sweep plus filler records, its cold
//             reference trajectory, and the seed-chosen miss set held out
//             of it. The other workloads need no fixture.
//   leg       one untraced leg: set-up, then harness::run_sweep and the
//             trajectory emit, timed in wall and process-CPU seconds
//   traced    the same work composed from the modules' public calls, with a
//             span around each call; the spans are kept in memory and
//             written to --dir when the leg ends
//   profile   the traced composition over the points a leg simulates, with
//             DriverParams::profile on (per-phase shares and step counts;
//             its per-step clock reads distort the shares it reports)
//   check     correctness re-runs of a seed-chosen sample of points: the
//             reference engine (fused and fast-forward off) and, on
//             warm-sweep, fresh simulations of cache hits
//   fidelity  the fig14 gap against the paper's averages
//
// Options: --workload NAME --seed N --dir DIR --jobs N --tag T --tiny
// (--tiny shrinks every workload to a smoke-test size); warm-sweep also
// takes --fixture DIR --fixture-key KEY (its cache, kept across runs).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/result_cache.hpp"
#include "harness/sweep.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "wl_synth/spec.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace vexsim;
using harness::ExperimentOptions;
using harness::SweepPoint;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Clocks.
// ---------------------------------------------------------------------------

std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// Workloads. The point lists are fixed: --seed only picks which points the
// warm-sweep cache lacks and which points the correctness checks sample, so
// every run simulates the same statistics and prints the same stats_digest.
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::vector<SweepPoint> points;
  bool cached = false;  // runs against the result cache under <dir>/cache
  std::size_t filler_records = 0;   // warm-sweep: cache padding
  std::vector<std::size_t> misses;  // warm-sweep: points the cache lacks
};

ExperimentOptions tiny_options() {
  ExperimentOptions opt;
  opt.scale = 0.05;
  opt.budget = 3'000;
  opt.timeslice = 1'500;
  return opt;
}

// Figure 14 as bench/fig14_ccsi_over_csmt.cpp builds it: per paper mix and
// thread count, the CSMT baseline and CCSI under both communication
// policies, at the default scale.
std::vector<SweepPoint> fig14_points(bool tiny) {
  const ExperimentOptions opt = tiny ? tiny_options() : ExperimentOptions{};
  std::vector<SweepPoint> points;
  std::size_t mixes = 0;
  for (const wl::WorkloadSpec& spec : wl::paper_workloads()) {
    if (tiny && mixes++ == 2) break;
    for (int threads : {2, 4}) {
      const std::string suffix = "/" + std::to_string(threads) + "T";
      points.push_back({spec.name + "/CSMT" + suffix,
                        opt.machine(threads, Technique::csmt()), spec.name,
                        opt});
      for (CommPolicy comm : {CommPolicy::kNoSplit, CommPolicy::kAlwaysSplit}) {
        const Technique t = Technique::ccsi(comm);
        points.push_back({spec.name + "/" + t.name() + suffix,
                          opt.machine(threads, t), spec.name, opt});
      }
    }
  }
  return points;
}

// The abl_memory cache-hostility gradient (bench/abl_memory.cpp): paper
// mixes, pointer chases over growing footprints, strided streams; each under
// the fixed penalty and the MSHR/L2/DRAM hierarchy, 4-thread CCSI-AS.
std::vector<SweepPoint> mem_hostile_points(bool tiny) {
  static const char* const kGradient[][2] = {
      {"llmm", "llmm"},
      {"hhhh", "hhhh"},
      {"chase-f64", "synth:i0.5-m0.5-s11-f64"},
      {"chase-f256", "synth:i0.5-m0.5-s11-f256"},
      {"chase-f1024", "synth:i0.5-m0.5-s11-f1024"},
      {"stream-f1024-st64", "synth:i0.5-m0.5-s11-f1024-st64"},
      {"stream-f1024-st4096", "synth:i0.5-m0.5-s11-f1024-st4096"},
  };
  const ExperimentOptions opt = tiny ? tiny_options() : ExperimentOptions{};
  const Technique tech = Technique::ccsi(CommPolicy::kAlwaysSplit);
  std::vector<SweepPoint> points;
  for (const auto& g : kGradient) {
    for (const MemBackendKind mem :
         {MemBackendKind::kFixed, MemBackendKind::kHierarchy}) {
      MachineConfig cfg = opt.machine(4, tech);
      cfg.memory.backend = mem;
      points.push_back({std::string(g[0]) + "/" + std::string(to_string(mem)),
                        cfg, g[1], opt});
    }
  }
  return points;
}

std::string fixed2(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << v;
  return os.str();
}

// Seed-chosen subset of [0, n): the k indices with the smallest
// derive_seed(seed, i), in index order.
std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n,
                                        std::size_t k) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [seed](std::size_t a, std::size_t b) {
    return harness::derive_seed(seed, a) < harness::derive_seed(seed, b);
  });
  idx.resize(std::min(k, n));
  std::sort(idx.begin(), idx.end());
  return idx;
}

// The abl_synth / vexplore shape at a small budget: ILP dial x mix group x
// context count x geometry x all eight techniques, every point distinct.
// The points the cache lacks are stratified: each (geometry, ILP, contexts)
// stratum contributes one point, under a technique fixed per stratum, from
// a mix group the seed picks. Every seed's miss set then has the same
// make-up (20 points, under 1% of the sweep); only the generated programs
// differ.
void warm_sweep_points(Workload& w, bool tiny, std::uint64_t seed) {
  ExperimentOptions opt = tiny ? tiny_options() : ExperimentOptions{};
  if (!tiny) {
    opt.scale = 0.05;
    opt.budget = 4'000;
    opt.timeslice = 2'000;
  }
  const std::vector<double> ilps =
      tiny ? std::vector<double>{0.5} : std::vector<double>{0.1, 0.3, 0.5, 0.7, 0.9};
  const std::uint64_t mix_groups = tiny ? 2 : 16;
  const std::uint64_t n_tech = std::size(Technique::kAll);
  std::uint64_t ilp_index = 0;
  for (const bool asym : {false, true}) {
    for (const double ilp : ilps) {
      for (std::uint64_t group = 0; group < mix_groups; ++group) {
        for (const int threads : {2, 4}) {
          const std::uint64_t stratum = ilp_index * 2 + (threads == 4 ? 1 : 0);
          const bool miss_group =
              harness::derive_seed(seed ^ 0x6D15'5E70ull, stratum) %
                  mix_groups == group;
          std::string mix;
          for (int k = 1; k <= threads; ++k) {
            if (k > 1) mix += "+";
            mix += "synth:i" + fixed2(ilp) + "-m0.20-b0.05-s" +
                   std::to_string(group * 4 + static_cast<std::uint64_t>(k));
          }
          for (std::uint64_t ti = 0; ti < n_tech; ++ti) {
            const Technique& t = Technique::kAll[ti];
            MachineConfig cfg = opt.machine(threads, t);
            cfg.cluster_renaming = false;
            if (asym)
              cfg.cluster_overrides = {ClusterResourceConfig::for_issue_width(8),
                                       ClusterResourceConfig::for_issue_width(4),
                                       ClusterResourceConfig::for_issue_width(2),
                                       ClusterResourceConfig::for_issue_width(2)};
            cfg.validate();
            const std::string label = "i" + fixed2(ilp) + "/g" +
                                      std::to_string(group) + "/" +
                                      std::to_string(threads) + "T/" +
                                      cfg.geometry_name() + "/" + t.name();
            if (miss_group && ti == stratum % n_tech)
              w.misses.push_back(w.points.size());
            w.points.push_back({label, std::move(cfg), mix, opt});
          }
        }
      }
      ++ilp_index;
    }
  }
}

Workload make_workload(const std::string& name, bool tiny,
                       std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "paper-fig14") {
    w.points = fig14_points(tiny);
  } else if (name == "mem-hostile") {
    w.points = mem_hostile_points(tiny);
  } else if (name == "warm-sweep") {
    warm_sweep_points(w, tiny, seed);
    w.cached = true;
    // About 1e5 indexed records in all, the cache size at which the index
    // load was measured at 155 ms.
    const std::size_t target = tiny ? 1'000 : 100'000;
    w.filler_records = target > w.points.size() ? target - w.points.size() : 0;
  } else {
    VEXSIM_CHECK_MSG(false, "unknown workload '"
                                << name
                                << "' (paper-fig14, mem-hostile, warm-sweep)");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Simulated-statistics hashing. A point's hash covers every statistic a
// simulation produces (not provenance such as `cached` or `attempts`), so a
// change that only speeds the simulator up leaves every hash unchanged.
// ---------------------------------------------------------------------------

class Fnv {
 public:
  Fnv& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ull;
    }
    return *this;
  }
  Fnv& str(const std::string& s) {
    u64(s.size());
    for (const char c : s)
      h_ = (h_ ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::uint64_t stats_hash(const RunResult& r) {
  Fnv h;
  h.u64(r.failed ? 1 : 0).u64(static_cast<std::uint64_t>(r.issue_width));
  const SimStats& s = r.sim;
  h.u64(s.cycles).u64(s.ops_issued).u64(s.instructions_retired)
      .u64(s.split_instructions).u64(s.vertical_waste_cycles)
      .u64(s.multi_thread_cycles).u64(s.memport_stall_cycles)
      .u64(s.drain_cycles).u64(s.taken_branches).u64(s.faults);
  h.u64(r.icache.hits).u64(r.icache.misses).u64(r.dcache.hits)
      .u64(r.dcache.misses);
  const mem::MemoryStats& m = r.memory;
  h.u64(m.present ? 1 : 0);
  for (const mem::MshrStats* ms : {&m.imshr, &m.dmshr})
    h.u64(ms->allocations).u64(ms->merges).u64(ms->full_stalls)
        .u64(ms->peak_occupancy);
  h.u64(m.l2.hits).u64(m.l2.misses).u64(m.dram.row_hits)
      .u64(m.dram.row_closed).u64(m.dram.row_conflicts);
  h.u64(r.merge.full_selections).u64(r.merge.partial_selections)
      .u64(r.merge.blocked_selections).u64(r.merge.comm_nosplit_forced);
  h.u64(r.compile.instructions).u64(r.compile.operations)
      .u64(r.compile.copies_inserted).u64(r.compile.swp_loops)
      .u64(r.compile.present ? 1 : 0);
  h.u64(r.instances.size());
  for (const InstanceResult& inst : r.instances) {
    h.str(inst.name).u64(inst.instructions).u64(inst.respawns)
        .u64(inst.arch_fingerprint).u64(inst.faulted ? 1 : 0);
    const ThreadCounters& c = inst.counters;
    h.u64(c.instructions).u64(c.ops).u64(c.taken_branches)
        .u64(c.split_instructions).u64(c.dmiss_block_cycles)
        .u64(c.imiss_block_cycles);
  }
  return h.value();
}

// Per-point hashes by label plus the order-sensitive digest over them.
Json hashes_json(const std::vector<SweepPoint>& points,
                 const std::vector<RunResult>& results, std::string* digest) {
  Fnv d;
  Json per_point = Json::object();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint64_t h = stats_hash(results[i]);
    d.str(points[i].label).u64(h);
    per_point.set(points[i].label, harness::fingerprint_hex(h));
  }
  *digest = harness::fingerprint_hex(d.value());
  return per_point;
}

// ---------------------------------------------------------------------------
// Fidelity: mean absolute gap, in percentage points, between the reproduced
// fig14 averages (2T NS / 2T AS / 4T NS / 4T AS) and the paper's, as quoted
// in bench/fig14_ccsi_over_csmt.cpp.
// ---------------------------------------------------------------------------

double fig14_gap_pp(const std::vector<SweepPoint>& points,
                    const std::vector<RunResult>& results) {
  static const double kPaper[4] = {6.1, 8.7, 3.5, 7.5};
  double sum[4] = {0, 0, 0, 0};
  int mixes = 0;
  for (const wl::WorkloadSpec& spec : wl::paper_workloads()) {
    const std::string csmt2 = spec.name + "/CSMT/2T";
    if (std::none_of(points.begin(), points.end(),
                     [&](const SweepPoint& p) { return p.label == csmt2; }))
      continue;  // --tiny runs a prefix of the mixes
    int col = 0;
    for (int threads : {2, 4}) {
      const std::string suffix = "/" + std::to_string(threads) + "T";
      const RunResult& base =
          harness::result_for(points, results, spec.name + "/CSMT" + suffix);
      for (CommPolicy comm : {CommPolicy::kNoSplit, CommPolicy::kAlwaysSplit}) {
        const RunResult& ccsi = harness::result_for(
            points, results,
            spec.name + "/" + Technique::ccsi(comm).name() + suffix);
        sum[col++] += 100.0 * speedup(ccsi.ipc(), base.ipc());
      }
    }
    ++mixes;
  }
  VEXSIM_CHECK_MSG(mixes > 0, "no fig14 points to compare with the paper");
  double gap = 0;
  for (int c = 0; c < 4; ++c) gap += std::fabs(sum[c] / mixes - kPaper[c]);
  return gap / 4.0;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded around calls into the modules' public functions,
// kept in memory and written out when the leg ends.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;  // 0 = root
    std::string name;
    std::uint64_t thread;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  // RAII span: records [construction, destruction) under `parent`.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::uint64_t parent, std::uint64_t thread)
        : t_(t), name_(std::move(name)), parent_(parent), thread_(thread),
          id_(t.next_id_.fetch_add(1) + 1), start_(mono_ns()) {}
    ~Scope() {
      const std::int64_t end = mono_ns();
      const std::lock_guard<std::mutex> lock(t_.mu_);
      t_.spans_.push_back({id_, parent_, std::move(name_), thread_, start_, end});
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const { return id_; }

   private:
    Tracer& t_;
    std::string name_;
    std::uint64_t parent_;
    std::uint64_t thread_;
    std::uint64_t id_;
    std::int64_t start_;
  };

  [[nodiscard]] Json to_json() const {
    const std::lock_guard<std::mutex> lock(mu_);
    Json arr = Json::array();
    for (const Span& s : spans_) {
      Json j = Json::object();
      j.set("id", s.id).set("parent", s.parent).set("name", s.name)
          .set("thread", s.thread).set("start_ns", s.start_ns)
          .set("end_ns", s.end_ns);
      arr.push(std::move(j));
    }
    return arr;
  }

 private:
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Work counters of the traced composition (host-independent).
struct Counters {
  std::atomic<std::uint64_t> build_calls{0};
  std::atomic<std::uint64_t> static_ops{0};
  std::atomic<std::uint64_t> copies_inserted{0};
  std::uint64_t probes = 0;
  std::uint64_t hits = 0;
  std::atomic<std::uint64_t> stores{0};
  std::uint64_t index_records = 0;
  std::mutex programs_mu;
  std::set<std::string> programs;  // distinct compile-memo requests
};

// Mirrors harness::run_workload_on, split at the module boundary so the
// compile (cc/workloads) and the cycle engine (sim) get their own spans.
// The leg's stats_digest must equal the untraced leg's, which keeps this
// composition honest.
RunResult traced_point(Tracer& tr, Counters& ctr, const SweepPoint& p,
                       std::uint64_t parent, std::uint64_t thread,
                       bool profile) {
  std::vector<std::shared_ptr<const Program>> programs;
  CompileSummary compile;
  {
    const Tracer::Scope span(tr, "cc.build", parent, thread);
    const wl::WorkloadSpec spec = wl::workload(p.workload);
    programs = wl::build_workload(spec, p.cfg, p.opt.scale, p.opt.compiler,
                                  &compile);
    ctr.build_calls.fetch_add(1);
    ctr.static_ops.fetch_add(compile.operations);
    ctr.copies_inserted.fetch_add(compile.copies_inserted);
    const std::lock_guard<std::mutex> lock(ctr.programs_mu);
    for (const std::string& c : spec.benchmarks) {
      const std::string canonical = wl_synth::is_synth_name(c)
                                        ? wl_synth::parse_spec(c).name()
                                        : c;
      std::ostringstream key;
      key << canonical << "/" << p.cfg.geometry_name() << "/" << p.opt.scale
          << "/" << p.opt.compiler.name();
      ctr.programs.insert(key.str());
    }
  }
  DriverParams params;
  params.timeslice = p.opt.timeslice;
  params.budget = p.opt.budget;
  params.max_cycles = p.opt.max_cycles;
  params.seed = p.opt.seed;
  params.respawn = true;
  params.fast_forward = p.opt.fast_forward;
  params.fused = p.opt.fused;
  params.profile = profile;
  const Tracer::Scope span(tr, "sim.run", parent, thread);
  MultiprogramDriver driver(p.cfg, std::move(programs), params);
  RunResult r = driver.run();
  r.compile = compile;
  return r;
}

// Runs `fn(i)` for every i in `todo` on up to `jobs` worker threads, the
// way run_sweep schedules its misses (inline when one worker suffices).
template <typename Fn>
void parallel_for(const std::vector<std::size_t>& todo, int jobs, Fn fn) {
  std::atomic<std::size_t> next{0};
  auto worker = [&](std::uint64_t thread) {
    for (;;) {
      const std::size_t t = next.fetch_add(1);
      if (t >= todo.size()) return;
      fn(todo[t], thread);
    }
  };
  const std::size_t n =
      std::min(static_cast<std::size_t>(std::max(jobs, 1)), todo.size());
  if (n <= 1) {
    worker(1);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (std::size_t t = 0; t < n; ++t) pool.emplace_back(worker, t + 1);
  for (std::thread& t : pool) t.join();
}

struct Args {
  std::string mode;
  Workload w;
  std::uint64_t seed = 1;
  std::string dir;
  std::string fixture;      // warm-sweep: persistent cache directory root
  std::string fixture_key;  // identifies the build that filled it
  int jobs = 1;
  std::string tag;
  bool tiny = false;
};

std::string cache_dir(const Args& a) { return a.fixture + "/cache"; }

harness::SweepOptions sweep_options(const Args& a) {
  harness::SweepOptions so;
  so.jobs = a.jobs;
  if (a.w.cached) so.cache_dir = cache_dir(a);
  return so;
}

// ---------------------------------------------------------------------------
// Modes.
// ---------------------------------------------------------------------------

Json mode_info() {
  Json out = Json::object();
  out.set("build_type", VEXBENCH_BUILD_TYPE)
      .set("compiler", VEXBENCH_COMPILER)
      .set("compiler_version", __VERSION__);
  return out;
}

// warm-sweep's cache lives in --fixture across runs: preparing it costs a
// cold sweep plus ~1e5 file creations, which only the first run of a build
// pays (the cache is keyed on --fixture-key, the leg binary's hash). Each
// run then holds its miss set back in <fixture>/held and rebuilds the
// index; run.py moves the held records back when the run ends, and the
// next fixture call does so first if a run was cut short.
Json mode_fixture(const Args& a) {
  Json out = Json::object();
  out.set("points", static_cast<std::uint64_t>(a.w.points.size()));
  if (!a.w.cached) return out;
  VEXSIM_CHECK_MSG(!a.fixture.empty() && !a.fixture_key.empty(),
                   "warm-sweep needs --fixture DIR and --fixture-key KEY");
  const fs::path root(a.fixture);
  const fs::path held = root / "held";
  const fs::path stamp = root / "fixture.json";
  const std::string dir = cache_dir(a);
  std::optional<Json> ready;
  if (fs::exists(stamp)) {
    std::ifstream is(stamp);
    const std::string text((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    Json doc = Json::parse(text);
    if (doc.at("key").as_string() == a.fixture_key) ready = std::move(doc);
  }
  if (!ready) {
    fs::remove_all(root);
    fs::create_directories(held);
    // The cold reference: every point simulated and stored through the
    // real sweep path, so `cached` reads true exactly as in a warm leg.
    const std::vector<RunResult> cold =
        harness::run_sweep(a.w.points, sweep_options(a));
    write_json_file((root / "cold.json").string(),
                    harness::sweep_json(a.w.name, a.w.points, cold));
    std::string digest;
    write_json_file((root / "hashes-cold.json").string(),
                    hashes_json(a.w.points, cold, &digest));
    // Filler: record files the index lists but no point of the sweep asks
    // for. Their content is never read, so they are left empty.
    for (std::size_t i = 0; i < a.w.filler_records; ++i) {
      const std::uint64_t key = harness::derive_seed(0xF111'E7ull, i);
      std::ofstream os(dir + "/" + harness::fingerprint_hex(key) + ".json");
      VEXSIM_CHECK_MSG(os.good(), "cannot write filler record in " << dir);
    }
    Json doc = Json::object();
    doc.set("key", a.fixture_key).set("cold_digest", digest);
    write_json_file(stamp.string(), doc);  // last: marks the fixture complete
    ready = std::move(doc);
  }
  for (const auto& entry : fs::directory_iterator(held))
    fs::rename(entry.path(), fs::path(dir) / entry.path().filename());
  Json misses = Json::array();
  for (const std::size_t i : a.w.misses) {
    const SweepPoint& p = a.w.points[i];
    const fs::path record =
        fs::path(dir) / (harness::fingerprint_hex(harness::point_fingerprint(
                             p.cfg, p.workload, p.opt)) +
                         ".json");
    fs::rename(record, held / record.filename());
    misses.push(record.filename().string());
  }
  const harness::ResultCache cache(dir);
  cache.rebuild_index();
  fs::copy_file(cache.index_path(), a.dir + "/cache.index.pristine",
                fs::copy_options::overwrite_existing);
  out.set("cache_dir", dir)
      .set("held_dir", held.string())
      .set("cold_trajectory", (root / "cold.json").string())
      .set("cold_hashes", (root / "hashes-cold.json").string())
      .set("cold_digest", ready->at("cold_digest").as_string())
      .set("miss_files", std::move(misses))
      .set("indexed_records", static_cast<std::uint64_t>(cache.index_size()));
  return out;
}

Json mode_leg(const Args& a) {
  // Set-up: what the sweep does before its first point is submitted — the
  // point list (already built), the result-cache open (index load) and a
  // fingerprint per point. run_sweep repeats the last two internally; the
  // timed sweep below starts at run_sweep's entry, so the repeat is counted
  // there and set-up is measured on its own.
  const char* spawn_env = std::getenv("VEXBENCH_SPAWN_NS");
  const std::int64_t spawn_ns =
      spawn_env != nullptr ? std::stoll(spawn_env) : mono_ns();
  if (a.w.cached) {
    const harness::ResultCache cache(cache_dir(a));
    for (const SweepPoint& p : a.w.points)
      (void)harness::point_fingerprint(p.cfg, p.workload, p.opt);
  }
  const std::int64_t ready_ns = mono_ns();

  const std::string traj = a.dir + "/traj-" + a.tag + ".json";
  const double cpu0 = process_cpu_s();
  const std::int64_t w0 = mono_ns();
  std::vector<RunResult> results;
  std::string error;
  try {
    results = harness::run_sweep(a.w.points, sweep_options(a));
    write_json_file(traj, harness::sweep_json(a.w.name, a.w.points, results));
  } catch (const std::exception& e) {
    error = e.what();
  }
  const std::int64_t w1 = mono_ns();
  const double cpu1 = process_cpu_s();

  Json out = Json::object();
  out.set("setup_s", seconds_between(spawn_ns, ready_ns))
      .set("wall_s", seconds_between(w0, w1))
      .set("cpu_s", cpu1 - cpu0)
      .set("peak_rss_mb", peak_rss_mb())
      .set("points", static_cast<std::uint64_t>(a.w.points.size()));
  if (!error.empty()) {
    out.set("error", error).set("failed",
                                static_cast<std::uint64_t>(a.w.points.size()));
    return out;
  }
  std::uint64_t failed = 0;
  std::uint64_t simulated = 0;
  std::uint64_t ops = 0;
  std::uint64_t cycles = 0;
  for (const RunResult& r : results) {
    failed += r.failed ? 1 : 0;
    if (r.cache_hit) continue;
    ++simulated;
    ops += r.sim.ops_issued;
    cycles += r.sim.cycles;
  }
  std::string digest;
  write_json_file(a.dir + "/hashes-" + a.tag + ".json",
                  hashes_json(a.w.points, results, &digest));
  out.set("failed", failed)
      .set("simulated_points", simulated)
      .set("simulated_ops", ops)
      .set("simulated_cycles", cycles)
      .set("stats_digest", digest)
      .set("trajectory", fs::path(traj).filename().string())
      .set("trajectory_bytes", static_cast<std::uint64_t>(fs::file_size(traj)));
  if (a.w.name == "paper-fig14")
    out.set("fidelity_gap_pp", fig14_gap_pp(a.w.points, results));
  return out;
}

// The traced composition. `profile` runs only the points a leg simulates,
// with DriverParams::profile on and no cache.
Json mode_traced(const Args& a, bool profile) {
  Tracer tr;
  Counters ctr;
  const std::vector<SweepPoint>& points = a.w.points;
  std::vector<RunResult> results(points.size());
  std::vector<std::uint64_t> keys(points.size(), 0);
  std::vector<std::size_t> todo;
  const bool cached = a.w.cached && !profile;
  const std::string traj = a.dir + "/traced-" + a.tag + ".json";
  std::int64_t w0 = 0;
  std::int64_t w1 = 0;
  {
    const Tracer::Scope leg(tr, profile ? "profile" : "leg", 0, 0);
    w0 = mono_ns();
    std::optional<harness::ResultCache> cache;
    if (cached) {
      {
        const Tracer::Scope span(tr, "harness.cache.open", leg.id(), 0);
        cache.emplace(cache_dir(a));
      }
      ctr.index_records = cache->index_size();
      for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint& p = points[i];
        {
          const Tracer::Scope span(tr, "harness.fingerprint", leg.id(), 0);
          keys[i] = harness::point_fingerprint(p.cfg, p.workload, p.opt);
        }
        const Tracer::Scope span(tr, "harness.cache.load", leg.id(), 0);
        ++ctr.probes;
        if (std::optional<RunResult> hit = cache->load(keys[i])) {
          results[i] = std::move(*hit);
          ++ctr.hits;
          continue;
        }
        todo.push_back(i);
      }
    } else if (profile && a.w.cached) {
      todo = a.w.misses;
    } else {
      for (std::size_t i = 0; i < points.size(); ++i) todo.push_back(i);
    }

    std::atomic<std::uint64_t> failures{0};
    parallel_for(todo, a.jobs, [&](std::size_t i, std::uint64_t thread) {
      const Tracer::Scope span(tr, "point", leg.id(), thread);
      try {
        RunResult r = traced_point(tr, ctr, points[i], span.id(), thread, profile);
        if (cache) {
          const Tracer::Scope store(tr, "harness.cache.store", span.id(), thread);
          r.cached = true;
          cache->store(keys[i], points[i].workload, r);
          ctr.stores.fetch_add(1);
        }
        results[i] = std::move(r);
      } catch (const std::exception& e) {
        results[i].failed = true;
        results[i].error = e.what();
        failures.fetch_add(1);
      }
    });

    if (!profile) {
      const Tracer::Scope span(tr, "stats.json_emit", leg.id(), 0);
      write_json_file(traj, harness::sweep_json(a.w.name, points, results));
    }
    w1 = mono_ns();
  }
  Json out = Json::object();
  out.set("wall_s", seconds_between(w0, w1))
      .set("points", static_cast<std::uint64_t>(points.size()));

  // Simulated work of the points this leg ran (cache hits excluded).
  std::uint64_t cycles = 0, ops = 0, partial = 0, split = 0, failed = 0;
  std::uint64_t l1i_miss = 0, l1d_acc = 0, l1d_miss = 0, mshr_merges = 0,
                mshr_full = 0, l2_hits = 0, l2_misses = 0, dram_acc = 0,
                dram_row_hits = 0;
  std::uint64_t steps = 0;
  double phase[5] = {0, 0, 0, 0, 0};
  double ff_max = 0;
  Json per_point = Json::array();
  for (const std::size_t i : todo) {
    const RunResult& r = results[i];
    failed += r.failed ? 1 : 0;
    cycles += r.sim.cycles;
    ops += r.sim.ops_issued;
    partial += r.merge.partial_selections;
    split += r.sim.split_instructions;
    l1i_miss += r.icache.misses;
    l1d_acc += r.dcache.accesses();
    l1d_miss += r.dcache.misses;
    const mem::MemoryStats& m = r.memory;
    mshr_merges += m.imshr.merges + m.dmshr.merges;
    mshr_full += m.imshr.full_stalls + m.dmshr.full_stalls;
    l2_hits += m.l2.hits;
    l2_misses += m.l2.misses;
    dram_acc += m.dram.accesses();
    dram_row_hits += m.dram.row_hits;
    if (profile) {
      const SimProfile& pr = r.profile;
      steps += pr.steps;
      phase[0] += pr.commit_seconds;
      phase[1] += pr.refill_seconds;
      phase[2] += pr.select_seconds + pr.execute_seconds;
      phase[3] += pr.complete_seconds;
      phase[4] += pr.fast_forward_seconds;
      const double skip =
          r.sim.cycles == 0
              ? 0.0
              : static_cast<double>(r.sim.cycles - pr.steps) /
                    static_cast<double>(r.sim.cycles);
      ff_max = std::max(ff_max, skip);
      Json pj = Json::object();
      pj.set("label", points[i].label).set("cycles", r.sim.cycles)
          .set("steps", pr.steps).set("ff_skip_frac", skip);
      per_point.push(std::move(pj));
    }
  }
  out.set("failed", failed);
  Json counters = Json::object();
  counters.set("simulated_points", static_cast<std::uint64_t>(todo.size()))
      .set("sim.cycles", cycles)
      .set("sim.ops_issued", ops)
      .set("sim.merge.partial_selections", partial)
      .set("sim.split_instructions", split)
      .set("mem.l1i.misses", l1i_miss)
      .set("mem.l1d.accesses", l1d_acc)
      .set("mem.l1d.misses", l1d_miss)
      .set("mem.mshr.merges", mshr_merges)
      .set("mem.mshr.full_stalls", mshr_full)
      .set("mem.l2.hits", l2_hits)
      .set("mem.l2.misses", l2_misses)
      .set("mem.dram.accesses", dram_acc)
      .set("mem.dram.row_hits", dram_row_hits)
      .set("cc.build_calls", ctr.build_calls.load())
      .set("cc.programs_compiled", static_cast<std::uint64_t>(ctr.programs.size()))
      .set("cc.static_ops", ctr.static_ops.load())
      .set("cc.copies_inserted", ctr.copies_inserted.load())
      .set("harness.cache.probes", ctr.probes)
      .set("harness.cache.hits", ctr.hits)
      .set("harness.cache.stores", ctr.stores.load())
      .set("harness.cache.index_records", ctr.index_records);
  if (profile) {
    counters.set("sim.steps", steps).set("sim.ff_skip_frac_max", ff_max);
    Json ph = Json::object();
    ph.set("commit", phase[0]).set("refill", phase[1]).set("select", phase[2])
        .set("complete", phase[3]).set("ff", phase[4]);
    out.set("phase_s", std::move(ph)).set("per_point", std::move(per_point));
  } else {
    std::string digest;
    write_json_file(a.dir + "/hashes-" + a.tag + ".json",
                    hashes_json(points, results, &digest));
    out.set("stats_digest", digest)
        .set("trajectory", fs::path(traj).filename().string());
    counters.set("stats.json_bytes",
                 static_cast<std::uint64_t>(fs::file_size(traj)));
  }
  out.set("counters", std::move(counters));
  const std::string spans = a.dir + "/spans-" + a.tag + ".json";
  write_json_file(spans, tr.to_json());
  out.set("spans", fs::path(spans).filename().string());
  return out;
}

// Correctness re-runs, outside every timed leg. Prints each sampled point's
// stats hash; run.py compares them with the timed legs' hashes.
Json mode_check(const Args& a) {
  const std::vector<SweepPoint>& points = a.w.points;
  struct Job {
    std::size_t index;
    bool reference;  // fused and fast-forward off; else a fresh default run
  };
  std::vector<Job> jobs;
  const std::size_t n_ref = a.tiny ? 2 : 4;
  for (const std::size_t i : sample_indices(a.seed ^ 0xC4EC'0001ull,
                                            points.size(), n_ref))
    jobs.push_back({i, true});
  if (a.w.cached) {
    // Cache hits: points outside the miss set, re-simulated from scratch.
    std::vector<std::size_t> hits;
    for (std::size_t i = 0; i < points.size(); ++i)
      if (!std::binary_search(a.w.misses.begin(), a.w.misses.end(), i))
        hits.push_back(i);
    for (const std::size_t k :
         sample_indices(a.seed ^ 0xC4EC'0002ull, hits.size(), a.tiny ? 2 : 8))
      jobs.push_back({hits[k], false});
  }
  std::vector<std::string> hashes(jobs.size());
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) order[j] = j;
  parallel_for(order, a.jobs, [&](std::size_t j, std::uint64_t) {
    const Job& job = jobs[j];
    ExperimentOptions opt = points[job.index].opt;
    if (job.reference) {
      opt.fused = false;
      opt.fast_forward = false;
    }
    try {
      const RunResult r = harness::run_workload_on(
          points[job.index].cfg, points[job.index].workload, opt);
      hashes[j] = harness::fingerprint_hex(stats_hash(r));
    } catch (const std::exception& e) {
      hashes[j] = std::string("error: ") + e.what();
    }
  });
  Json out = Json::array();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    Json c = Json::object();
    c.set("label", points[jobs[j].index].label)
        .set("kind", jobs[j].reference ? "reference-engine" : "cache-hit")
        .set("hash", hashes[j]);
    out.push(std::move(c));
  }
  Json doc = Json::object();
  doc.set("checks", std::move(out));
  return doc;
}

Json mode_fidelity(const Args& a) {
  const std::vector<SweepPoint> points = fig14_points(a.tiny);
  harness::SweepOptions so;
  so.jobs = a.jobs;
  const std::vector<RunResult> results = harness::run_sweep(points, so);
  std::string digest;
  (void)hashes_json(points, results, &digest);
  Json out = Json::object();
  out.set("fidelity_gap_pp", fig14_gap_pp(points, results))
      .set("fig14_digest", digest);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli(argc, argv);
    VEXSIM_CHECK_MSG(cli.positional().size() == 1,
                     "usage: vexbench_leg MODE --workload NAME --seed N "
                     "--dir DIR [--jobs N] [--tag T] [--tiny]");
    Args a;
    a.mode = cli.positional()[0];
    if (a.mode == "info") {
      std::cout << mode_info().dump() << "\n";
      return 0;
    }
    a.tiny = cli.get_bool("tiny", false);
    a.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    a.w = make_workload(cli.get("workload", ""), a.tiny, a.seed);
    a.dir = cli.get("dir", "");
    VEXSIM_CHECK_MSG(!a.dir.empty(), "--dir is required");
    fs::create_directories(a.dir);
    a.jobs = cli.jobs(1);
    a.tag = cli.get("tag", "0");
    a.fixture = cli.get("fixture", "");
    a.fixture_key = cli.get("fixture-key", "");
    Json out;
    if (a.mode == "fixture") out = mode_fixture(a);
    else if (a.mode == "leg") out = mode_leg(a);
    else if (a.mode == "traced") out = mode_traced(a, false);
    else if (a.mode == "profile") out = mode_traced(a, true);
    else if (a.mode == "check") out = mode_check(a);
    else if (a.mode == "fidelity") out = mode_fidelity(a);
    else VEXSIM_CHECK_MSG(false, "unknown mode '" << a.mode << "'");
    std::cout << out.dump() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "vexbench_leg: " << e.what() << "\n";
    return 1;
  }
}
