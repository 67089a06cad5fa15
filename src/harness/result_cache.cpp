#include "harness/result_cache.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <shared_mutex>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "stats/json.hpp"
#include "util/check.hpp"
#include "wl_synth/spec.hpp"
#include "workloads/workloads.hpp"

namespace vexsim::harness {

namespace {

// Incremental FNV-1a over labelled fields, finished through the splitmix64
// mixer so single-bit config changes flip half the key bits. Every value is
// length- or tag-delimited, so field sequences never alias.
class Fingerprint {
 public:
  Fingerprint& u64(std::uint64_t v) {
    bytes(&v, sizeof v);
    return *this;
  }
  Fingerprint& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  Fingerprint& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  Fingerprint& flag(bool v) { return u64(v ? 1 : 0); }
  Fingerprint& str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
    return *this;
  }

  [[nodiscard]] std::uint64_t finish() const {
    std::uint64_t z = h_ + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i)
      h_ = (h_ ^ p[i]) * 0x100000001B3ull;
  }

  std::uint64_t h_ = 0xCBF29CE484222325ull;  // FNV-1a 64-bit offset basis
};

void hash_cluster(Fingerprint& fp, const ClusterResourceConfig& c) {
  fp.i64(c.issue_slots).i64(c.alus).i64(c.muls).i64(c.mem_units)
      .i64(c.branch_units);
}

void hash_cache_config(Fingerprint& fp, const CacheConfig& c) {
  fp.u64(c.size_bytes).u64(c.assoc).u64(c.line_bytes).u64(c.miss_penalty)
      .flag(c.perfect);
}

void hash_machine(Fingerprint& fp, const MachineConfig& cfg) {
  fp.i64(cfg.clusters);
  hash_cluster(fp, cfg.cluster);
  fp.u64(cfg.cluster_overrides.size());
  for (const ClusterResourceConfig& c : cfg.cluster_overrides)
    hash_cluster(fp, c);
  fp.flag(cfg.branch_on_cluster0_only);
  fp.i64(cfg.lat.alu).i64(cfg.lat.mul).i64(cfg.lat.mem).i64(cfg.lat.comm)
      .i64(cfg.lat.cmp_to_branch).i64(cfg.lat.taken_branch_penalty);
  hash_cache_config(fp, cfg.icache);
  hash_cache_config(fp, cfg.dcache);
  fp.i64(cfg.hw_threads);
  fp.u64(static_cast<std::uint64_t>(cfg.technique.merge))
      .u64(static_cast<std::uint64_t>(cfg.technique.split))
      .u64(static_cast<std::uint64_t>(cfg.technique.comm));
  fp.flag(cfg.cluster_renaming);
  fp.u64(static_cast<std::uint64_t>(cfg.rf_org));
  fp.flag(cfg.stall_on_store_miss);
  // Memory backend: every parameter that can change a hierarchy trajectory.
  // Hashed unconditionally (fixed runs too) — the kind field alone keeps
  // fixed and hierarchy points from ever aliasing, and hashing the rest
  // costs nothing while guaranteeing a retuned L2/DRAM never serves stale
  // cached results.
  fp.u64(static_cast<std::uint64_t>(cfg.memory.backend));
  fp.u64(cfg.memory.l1_mshrs);
  fp.u64(cfg.memory.l2.size_bytes)
      .u64(cfg.memory.l2.assoc)
      .u64(cfg.memory.l2.line_bytes)
      .u64(cfg.memory.l2.hit_latency);
  fp.u64(cfg.memory.dram.banks)
      .u64(cfg.memory.dram.row_bytes)
      .u64(cfg.memory.dram.t_row_hit)
      .u64(cfg.memory.dram.t_row_closed)
      .u64(cfg.memory.dram.t_row_conflict)
      .u64(cfg.memory.dram.t_bank_busy);
}

// Resolved, order-canonical form of a workload name: a paper mix label
// expands to its component list, and every synthetic component is rewritten
// to its full canonical mangling, so equivalent spellings share one entry.
std::string resolve_canonical_workload(const std::string& name) {
  const wl::WorkloadSpec spec = wl::workload(name);
  std::string out;
  for (std::size_t i = 0; i < spec.benchmarks.size(); ++i) {
    const std::string& component = spec.benchmarks[i];
    if (i > 0) out += '+';
    if (wl_synth::is_synth_name(component))
      out += wl_synth::parse_spec(component).name();
    else
      out += component;
  }
  return out;
}

// resolve_canonical_workload, memoized per spelling for the process: a sweep
// fingerprints thousands of points over a few dozen workload names, and
// resolution is a pure function of the name. Names that fail to resolve are
// not remembered, so they throw on every call. The returned reference stays
// valid because entries are never erased (unordered_map keeps node
// addresses across rehashes).
const std::string& canonical_workload(const std::string& name) {
  static std::shared_mutex mu;
  static std::unordered_map<std::string, std::string> memo;
  {
    const std::shared_lock<std::shared_mutex> lock(mu);
    if (const auto it = memo.find(name); it != memo.end()) return it->second;
  }
  std::string canonical = resolve_canonical_workload(name);
  const std::lock_guard<std::shared_mutex> lock(mu);
  return memo.try_emplace(name, std::move(canonical)).first->second;
}

// First line of the index file; anything else means "rebuild".
constexpr std::string_view kIndexHeader = "vexsim-cache-index v1";

// The value of `s` when it is exactly 16 lowercase hex digits. Table-driven
// and branch-free per digit: random hex digits defeat branch prediction,
// and the index holds 10^5 keys.
std::optional<std::uint64_t> parse_hex16(std::string_view s) {
  static constexpr std::array<std::uint8_t, 256> kDigit = [] {
    std::array<std::uint8_t, 256> t{};
    t.fill(0xFF);
    for (int c = '0'; c <= '9'; ++c) t[c] = static_cast<std::uint8_t>(c - '0');
    for (int c = 'a'; c <= 'f'; ++c)
      t[c] = static_cast<std::uint8_t>(c - 'a' + 10);
    return t;
  }();
  if (s.size() != 16) return std::nullopt;
  std::uint64_t v = 0;
  unsigned invalid = 0;
  for (const char c : s) {
    const unsigned digit = kDigit[static_cast<unsigned char>(c)];
    invalid |= digit;
    v = (v << 4) | (digit & 0xF);
  }
  if (invalid > 0xF) return std::nullopt;
  return v;
}

// Read-only mapping of a whole file; text() is empty when the file is empty
// or cannot be opened or mapped. The index is read through a mapping rather
// than a heap buffer: a multi-megabyte malloc'd buffer, once freed, raises
// glibc's mmap threshold and leaves later large allocations resident (3 MB
// more peak RSS on a warm 2560-point sweep). The index is only ever
// appended to or replaced by rename, never truncated in place, so the
// mapping stays valid.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return;
    struct stat st {};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      void* p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                       PROT_READ, MAP_PRIVATE, fd, 0);
      if (p != MAP_FAILED) {
        data_ = static_cast<const char*>(p);
        size_ = static_cast<std::size_t>(st.st_size);
      }
    }
    ::close(fd);
  }
  ~MappedFile() {
    if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] std::string_view text() const { return {data_, size_}; }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

// Reads the whole file at `path` with one open() and, for a file that does
// not change underneath, one read(). nullopt when it cannot be opened or
// read; a file that shrank mid-read yields the bytes that were there.
std::optional<std::string> read_whole_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat st {};
  std::optional<std::string> text;
  if (::fstat(fd, &st) == 0) {
    text.emplace(static_cast<std::size_t>(st.st_size), '\0');
    std::size_t got = 0;
    while (got < text->size()) {
      const ssize_t n = ::read(fd, text->data() + got, text->size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        text.reset();
        break;
      }
      if (n == 0) break;
      got += static_cast<std::size_t>(n);
    }
    if (text) text->resize(got);
  }
  ::close(fd);
  return text;
}

Json counters_json(const ThreadCounters& c) {
  Json j = Json::object();
  j.set("instructions", c.instructions)
      .set("ops", c.ops)
      .set("taken_branches", c.taken_branches)
      .set("split_instructions", c.split_instructions)
      .set("dmiss_block_cycles", c.dmiss_block_cycles)
      .set("imiss_block_cycles", c.imiss_block_cycles);
  return j;
}

ThreadCounters counters_from_json(const Json& j) {
  ThreadCounters c;
  c.instructions = j.at("instructions").as_uint64();
  c.ops = j.at("ops").as_uint64();
  c.taken_branches = j.at("taken_branches").as_uint64();
  c.split_instructions = j.at("split_instructions").as_uint64();
  c.dmiss_block_cycles = j.at("dmiss_block_cycles").as_uint64();
  c.imiss_block_cycles = j.at("imiss_block_cycles").as_uint64();
  return c;
}

Json result_json(const RunResult& r) {
  Json sim = Json::object();
  sim.set("cycles", r.sim.cycles)
      .set("ops_issued", r.sim.ops_issued)
      .set("instructions_retired", r.sim.instructions_retired)
      .set("split_instructions", r.sim.split_instructions)
      .set("vertical_waste_cycles", r.sim.vertical_waste_cycles)
      .set("multi_thread_cycles", r.sim.multi_thread_cycles)
      .set("memport_stall_cycles", r.sim.memport_stall_cycles)
      .set("drain_cycles", r.sim.drain_cycles)
      .set("taken_branches", r.sim.taken_branches)
      .set("faults", r.sim.faults);

  Json icache = Json::object();
  icache.set("hits", r.icache.hits).set("misses", r.icache.misses);
  Json dcache = Json::object();
  dcache.set("hits", r.dcache.hits).set("misses", r.dcache.misses);

  Json memory = Json::object();
  if (r.memory.present) {
    const auto mshr_json = [](const mem::MshrStats& m) {
      Json j = Json::object();
      j.set("allocations", m.allocations)
          .set("merges", m.merges)
          .set("full_stalls", m.full_stalls)
          .set("peak_occupancy", m.peak_occupancy);
      return j;
    };
    Json l2 = Json::object();
    l2.set("hits", r.memory.l2.hits).set("misses", r.memory.l2.misses);
    Json dram = Json::object();
    dram.set("row_hits", r.memory.dram.row_hits)
        .set("row_closed", r.memory.dram.row_closed)
        .set("row_conflicts", r.memory.dram.row_conflicts);
    memory.set("imshr", mshr_json(r.memory.imshr))
        .set("dmshr", mshr_json(r.memory.dmshr))
        .set("l2", std::move(l2))
        .set("dram", std::move(dram));
  }

  Json merge = Json::object();
  merge.set("full_selections", r.merge.full_selections)
      .set("partial_selections", r.merge.partial_selections)
      .set("blocked_selections", r.merge.blocked_selections)
      .set("comm_nosplit_forced", r.merge.comm_nosplit_forced);

  Json instances = Json::array();
  for (const InstanceResult& inst : r.instances) {
    Json ij = Json::object();
    ij.set("name", inst.name)
        .set("instructions", inst.instructions)
        .set("respawns", inst.respawns)
        .set("arch_fingerprint", inst.arch_fingerprint)
        .set("faulted", inst.faulted)
        .set("counters", counters_json(inst.counters));
    instances.push(std::move(ij));
  }

  Json compile = Json::object();
  compile.set("instructions", r.compile.instructions)
      .set("operations", r.compile.operations)
      .set("copies_inserted", r.compile.copies_inserted)
      .set("swp_loops", r.compile.swp_loops)
      .set("present", r.compile.present);

  Json out = Json::object();
  out.set("issue_width", r.issue_width)
      .set("attempts", r.attempts)
      .set("sim", std::move(sim))
      .set("icache", std::move(icache))
      .set("dcache", std::move(dcache));
  // Hierarchy-only: fixed-backend records keep the pre-hierarchy shape so a
  // warm cache replays byte-identical JSON for pre-existing sweeps.
  if (r.memory.present) out.set("memory", std::move(memory));
  out.set("merge", std::move(merge))
      .set("compile", std::move(compile))
      .set("instances", std::move(instances));
  return out;
}

RunResult result_from_json(const Json& j) {
  RunResult r;
  r.issue_width = static_cast<int>(j.at("issue_width").as_int64());
  r.attempts = static_cast<int>(j.at("attempts").as_int64());

  const Json& sim = j.at("sim");
  r.sim.cycles = sim.at("cycles").as_uint64();
  r.sim.ops_issued = sim.at("ops_issued").as_uint64();
  r.sim.instructions_retired = sim.at("instructions_retired").as_uint64();
  r.sim.split_instructions = sim.at("split_instructions").as_uint64();
  r.sim.vertical_waste_cycles = sim.at("vertical_waste_cycles").as_uint64();
  r.sim.multi_thread_cycles = sim.at("multi_thread_cycles").as_uint64();
  r.sim.memport_stall_cycles = sim.at("memport_stall_cycles").as_uint64();
  r.sim.drain_cycles = sim.at("drain_cycles").as_uint64();
  r.sim.taken_branches = sim.at("taken_branches").as_uint64();
  r.sim.faults = sim.at("faults").as_uint64();

  r.icache.hits = j.at("icache").at("hits").as_uint64();
  r.icache.misses = j.at("icache").at("misses").as_uint64();
  r.dcache.hits = j.at("dcache").at("hits").as_uint64();
  r.dcache.misses = j.at("dcache").at("misses").as_uint64();

  if (const Json* memory = j.find("memory")) {
    const auto mshr_from = [](const Json& mj) {
      mem::MshrStats m;
      m.allocations = mj.at("allocations").as_uint64();
      m.merges = mj.at("merges").as_uint64();
      m.full_stalls = mj.at("full_stalls").as_uint64();
      m.peak_occupancy = mj.at("peak_occupancy").as_uint64();
      return m;
    };
    r.memory.present = true;
    r.memory.imshr = mshr_from(memory->at("imshr"));
    r.memory.dmshr = mshr_from(memory->at("dmshr"));
    r.memory.l2.hits = memory->at("l2").at("hits").as_uint64();
    r.memory.l2.misses = memory->at("l2").at("misses").as_uint64();
    const Json& dram = memory->at("dram");
    r.memory.dram.row_hits = dram.at("row_hits").as_uint64();
    r.memory.dram.row_closed = dram.at("row_closed").as_uint64();
    r.memory.dram.row_conflicts = dram.at("row_conflicts").as_uint64();
  }

  const Json& merge = j.at("merge");
  r.merge.full_selections = merge.at("full_selections").as_uint64();
  r.merge.partial_selections = merge.at("partial_selections").as_uint64();
  r.merge.blocked_selections = merge.at("blocked_selections").as_uint64();
  r.merge.comm_nosplit_forced = merge.at("comm_nosplit_forced").as_uint64();

  const Json& compile = j.at("compile");
  r.compile.instructions = compile.at("instructions").as_uint64();
  r.compile.operations = compile.at("operations").as_uint64();
  r.compile.copies_inserted = compile.at("copies_inserted").as_uint64();
  r.compile.swp_loops = compile.at("swp_loops").as_uint64();
  r.compile.present = compile.at("present").as_bool();

  const Json& instances = j.at("instances");
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Json& ij = instances.at(i);
    InstanceResult inst;
    inst.name = ij.at("name").as_string();
    inst.instructions = ij.at("instructions").as_uint64();
    inst.respawns = ij.at("respawns").as_uint64();
    inst.arch_fingerprint = ij.at("arch_fingerprint").as_uint64();
    inst.faulted = ij.at("faulted").as_bool();
    inst.counters = counters_from_json(ij.at("counters"));
    r.instances.push_back(std::move(inst));
  }
  return r;
}

}  // namespace

std::uint64_t point_fingerprint(const MachineConfig& cfg,
                                const std::string& workload,
                                const ExperimentOptions& opt) {
  Fingerprint fp;
  fp.str(kSimVersionTag);
  hash_machine(fp, cfg);
  fp.str(canonical_workload(workload));
  fp.f64(opt.scale)
      .u64(opt.budget)
      .u64(opt.timeslice)
      .u64(opt.max_cycles)
      .u64(opt.seed)
      .flag(opt.fast_forward)
      .flag(opt.fused);
  // Compiler pass-pipeline options: every knob the compiled code depends
  // on, so points simulated under different compiler settings can never
  // alias one cache record. verify_each_pass is deliberately excluded —
  // it is diagnostic-only and never changes the emitted code, so cached
  // trajectories stay valid (and byte-identical) under --cc-verify.
  fp.u64(static_cast<std::uint64_t>(opt.compiler.assign))
      .flag(opt.compiler.modulo_schedule)
      .i64(opt.compiler.max_ii)
      .i64(opt.compiler.max_stages);
  return fp.finish();
}

std::string fingerprint_hex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

std::uint64_t parse_size_bytes(const std::string& spec) {
  constexpr const char* kForm =
      "expected a byte count like 1048576, 512K, 64M or 2G";
  VEXSIM_CHECK_MSG(!spec.empty() && spec != "true",
                   "empty size spec; " << kForm);
  std::uint64_t mult = 1;
  std::string digits = spec;
  switch (std::tolower(static_cast<unsigned char>(spec.back()))) {
    case 'k': mult = 1024ull; break;
    case 'm': mult = 1024ull * 1024; break;
    case 'g': mult = 1024ull * 1024 * 1024; break;
    default: break;
  }
  if (mult != 1) digits.pop_back();
  const bool numeric =
      !digits.empty() && digits.size() <= 15 &&
      std::all_of(digits.begin(), digits.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      });
  VEXSIM_CHECK_MSG(numeric, "bad size spec '" << spec << "'; " << kForm);
  return std::stoull(digits) * mult;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  VEXSIM_CHECK_MSG(!dir_.empty(), "result cache directory must be non-empty");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  VEXSIM_CHECK_MSG(!ec, "cannot create result cache directory " << dir_ << ": "
                                                                << ec.message());
  if (read_index()) return;
  // A missing index is created only if it is still missing when written:
  // when two processes open a fresh directory together, the second adopts
  // the first one's index instead of replacing it, which would drop the
  // lines the first has appended since. A corrupt index is replaced.
  const bool missing = !std::filesystem::exists(index_path());
  {
    const std::lock_guard<std::mutex> lock(mu_);
    scan_records_locked();
    if (write_index_locked(/*replace=*/!missing)) return;
  }
  if (!read_index()) rebuild_index();
}

std::string ResultCache::entry_path(std::uint64_t key) const {
  return dir_ + "/" + fingerprint_hex(key) + ".json";
}

std::string ResultCache::index_path() const { return dir_ + "/cache.index"; }

bool ResultCache::probe(std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::binary_search(keys_.begin(), keys_.end(), key);
}

std::size_t ResultCache::index_size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return keys_.size();
}

bool ResultCache::read_index() {
  const MappedFile mapped(index_path());
  const std::string_view all = mapped.text();
  std::size_t pos = all.find('\n');
  if (all.substr(0, pos) != kIndexHeader) return false;
  std::vector<std::uint64_t> keys;
  keys.reserve(all.size() / 39);  // a canonical line is 39 bytes
  std::map<std::uint64_t, std::string> renamed;
  while (pos < all.size()) {
    const std::size_t begin = pos + 1;
    pos = std::min(all.find('\n', begin), all.size());
    const std::string_view line = all.substr(begin, pos - begin);
    if (line.empty()) continue;  // a torn append leaves at most a blank tail
    if (line.size() < 18 || line[16] != ' ') return false;
    const std::string_view hex = line.substr(0, 16);
    const std::optional<std::uint64_t> key = parse_hex16(hex);
    if (!key) return false;
    const std::string_view file = line.substr(17);
    keys.push_back(*key);
    // A repeated key takes its last line's file name.
    if (file.size() == 21 && file.substr(0, 16) == hex &&
        file.substr(16) == ".json") {
      if (!renamed.empty()) renamed.erase(*key);
      continue;
    }
    if (file.find('/') != std::string_view::npos) return false;
    renamed.insert_or_assign(*key, std::string(file));
  }
  // Rewrites keep the file sorted, so usually only the appended tail is out
  // of order: sort that and merge it in.
  const auto tail = std::is_sorted_until(keys.begin(), keys.end());
  std::sort(tail, keys.end());
  std::inplace_merge(keys.begin(), tail, keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const std::lock_guard<std::mutex> lock(mu_);
  keys_ = std::move(keys);
  renamed_ = std::move(renamed);
  return true;
}

bool ResultCache::write_index_locked(bool replace) const {
  static std::atomic<std::uint64_t> counter{0};
  std::ostringstream tmp_name;
  tmp_name << index_path() << ".tmp." << ::getpid() << "."
           << counter.fetch_add(1, std::memory_order_relaxed);
  std::string text(kIndexHeader);
  text += '\n';
  text.reserve(text.size() + keys_.size() * 39);
  for (const std::uint64_t key : keys_) {
    const std::string hex = fingerprint_hex(key);
    text.append(hex).append(" ");
    if (const auto it = renamed_.find(key); it != renamed_.end())
      text.append(it->second);
    else
      text.append(hex).append(".json");
    text += '\n';
  }
  {
    std::ofstream os(tmp_name.str(), std::ios::binary | std::ios::trunc);
    VEXSIM_CHECK_MSG(os.good(), "cannot write " << tmp_name.str());
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
    os.flush();
    VEXSIM_CHECK_MSG(os.good(), "failed writing " << tmp_name.str());
  }
  if (!replace) {
    // link() publishes the file only where no index exists yet.
    const int linked = ::link(tmp_name.str().c_str(), index_path().c_str());
    const int link_errno = errno;
    if (linked == 0 || link_errno == EEXIST) {
      ::unlink(tmp_name.str().c_str());
      return linked == 0;
    }
    // No hard links on this file system: publish with rename() below.
  }
  VEXSIM_CHECK_MSG(
      std::rename(tmp_name.str().c_str(), index_path().c_str()) == 0,
      "failed to move " << tmp_name.str() << " over " << index_path());
  return true;
}

void ResultCache::rebuild_index() const {
  const std::lock_guard<std::mutex> lock(mu_);
  scan_records_locked();
  write_index_locked();
}

void ResultCache::scan_records_locked() const {
  keys_.clear();
  renamed_.clear();
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    // Record files only: exactly "<16 lowercase hex>.json".
    if (name.size() != 21 || name.substr(16) != ".json") continue;
    if (const auto key = parse_hex16(std::string_view(name).substr(0, 16)))
      keys_.push_back(*key);
  }
  VEXSIM_CHECK_MSG(!ec, "cannot scan result cache directory " << dir_ << ": "
                                                              << ec.message());
  std::sort(keys_.begin(), keys_.end());
}

std::string ResultCache::record_path_locked(std::uint64_t key) const {
  const auto it = renamed_.find(key);
  return it == renamed_.end() ? entry_path(key) : dir_ + "/" + it->second;
}

void ResultCache::erase_locked(std::uint64_t key) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it != keys_.end() && *it == key) keys_.erase(it);
  renamed_.erase(key);
}

std::optional<RunResult> ResultCache::read_record(const std::string& path,
                                                  std::uint64_t key) const {
  const std::optional<std::string> text = read_whole_file(path);
  if (!text) return std::nullopt;  // plain miss
  try {
    const Json doc = Json::parse(*text);
    // A record from another simulator version (or another key that landed
    // on this path through tampering) is a miss, not an error.
    if (doc.at("version").as_string() != kSimVersionTag) return std::nullopt;
    if (doc.at("key").as_string() != fingerprint_hex(key)) return std::nullopt;
    RunResult r = result_from_json(doc.at("result"));
    r.cached = true;
    r.cache_hit = true;
    return r;
  } catch (const CheckError&) {
    return std::nullopt;  // corrupt or truncated record: treat as a miss
  }
}

std::optional<RunResult> ResultCache::load(std::uint64_t key) const {
  std::string path;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!std::binary_search(keys_.begin(), keys_.end(), key))
      return std::nullopt;  // no I/O
    path = record_path_locked(key);
  }
  std::optional<RunResult> r = read_record(path, key);
  if (!r) {
    // Indexed but unreadable (deleted or corrupt on disk): drop the entry so
    // the next probe is an in-memory miss again.
    const std::lock_guard<std::mutex> lock(mu_);
    erase_locked(key);
  }
  return r;
}

std::optional<RunResult> ResultCache::load_unindexed(std::uint64_t key) const {
  return read_record(entry_path(key), key);
}

void ResultCache::append_index_line(std::uint64_t key) const {
  const std::string line = fingerprint_hex(key) + " " + fingerprint_hex(key) +
                           ".json\n";
  // One O_APPEND write per record: concurrent writers (threads or separate
  // shard processes) interleave whole lines. O_CREAT only matters when the
  // index vanished mid-run; the header-less file then fails validation on
  // the next load and is rebuilt from the records, which all survive.
  const int fd = ::open(index_path().c_str(),
                        O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  VEXSIM_CHECK_MSG(fd >= 0, "cannot open " << index_path() << " for append");
  const ssize_t n = ::write(fd, line.data(), line.size());
  ::close(fd);
  VEXSIM_CHECK_MSG(n == static_cast<ssize_t>(line.size()),
                   "short write appending to " << index_path());
}

void ResultCache::store(std::uint64_t key, const std::string& workload,
                        const RunResult& r) const {
  VEXSIM_CHECK_MSG(!r.failed,
                   "refusing to cache a failed point (" << r.error << ")");
  Json doc = Json::object();
  doc.set("version", std::string(kSimVersionTag))
      .set("key", fingerprint_hex(key))
      .set("workload", workload)
      .set("result", result_json(r));

  // Unique temp name per (process, store call): concurrent sweeps sharing a
  // cache directory may race on the same key, and rename() then makes one
  // of the two identical records win atomically.
  static std::atomic<std::uint64_t> counter{0};
  const std::string path = entry_path(key);
  std::ostringstream tmp;
  tmp << path << ".tmp." << ::getpid() << "."
      << counter.fetch_add(1, std::memory_order_relaxed);
  write_json_file(tmp.str(), doc);
  VEXSIM_CHECK_MSG(std::rename(tmp.str().c_str(), path.c_str()) == 0,
                   "failed to move " << tmp.str() << " over " << path);

  bool fresh = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    fresh = it == keys_.end() || *it != key;
    if (fresh) keys_.insert(it, key);
  }
  // Only the first store of a key appends — a re-store (cache shared with a
  // racing process) would otherwise grow the index without bound.
  if (fresh) append_index_line(key);
}

CacheGcStats ResultCache::gc(std::uint64_t max_bytes) const {
  const std::lock_guard<std::mutex> lock(mu_);
  struct Entry {
    std::filesystem::file_time_type mtime;
    std::uint64_t bytes;
    std::uint64_t key;
  };
  CacheGcStats stats;
  std::vector<Entry> entries;
  entries.reserve(keys_.size());
  for (const std::uint64_t key : keys_) {
    const std::filesystem::path p = record_path_locked(key);
    std::error_code ec;
    const std::uint64_t bytes = std::filesystem::file_size(p, ec);
    const auto mtime = std::filesystem::last_write_time(p, ec);
    if (ec) continue;  // indexed but vanished: the entry is dropped below
    entries.push_back({mtime, bytes, key});
    stats.bytes_before += bytes;
  }
  stats.records_before = entries.size();

  // LRU by mtime (key as deterministic tie-break): evict oldest first until
  // the survivors fit the budget.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.key < b.key;
  });
  std::uint64_t bytes_left = stats.bytes_before;
  std::size_t evict = 0;
  while (evict < entries.size() && bytes_left > max_bytes)
    bytes_left -= entries[evict++].bytes;
  for (std::size_t i = 0; i < evict; ++i) {
    std::error_code ec;
    std::filesystem::remove(record_path_locked(entries[i].key), ec);
  }
  keys_.clear();
  for (std::size_t i = evict; i < entries.size(); ++i)
    keys_.push_back(entries[i].key);
  std::sort(keys_.begin(), keys_.end());
  std::erase_if(renamed_, [this](const auto& entry) {
    return !std::binary_search(keys_.begin(), keys_.end(), entry.first);
  });
  stats.evicted = evict;
  stats.records_after = entries.size() - evict;
  stats.bytes_after = bytes_left;
  write_index_locked();
  return stats;
}

}  // namespace vexsim::harness
