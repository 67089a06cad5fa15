// Per-thread execution state: program position, registers, private memory,
// issue progress of the current VLIW instruction, NUAL pending writes, and
// the split-issue delay buffers of Section V-B.
//
// This is a data-oriented aggregate: the merge engine (src/core) and the
// pipeline (src/sim) manipulate it directly. All cluster indices stored here
// are *logical* (program view); the static cluster renaming of Section IV is
// applied only when mapping to physical machine resources.
//
// Field layout is deliberate: the members the cycle loop touches every cycle
// (pc, run state, the three issue gates, issue progress) sit together at the
// front of the object so a refill/merge probe of an idle thread stays within
// the first cache lines; the respawn-time and statistics members follow.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/pending_writes.hpp"
#include "arch/regfile.hpp"
#include "isa/program.hpp"
#include "mem/main_memory.hpp"

namespace vexsim {

enum class RunState : std::uint8_t { kReady, kHalted, kFaulted };

// Delay-buffer entries (Figure 9): results of split-issued operations are
// held here and committed to the register file / memory when the last part
// of the instruction issues.
struct BufferedRegWrite {
  bool to_breg = false;
  std::uint8_t cluster = 0;
  std::uint8_t idx = 0;
  std::uint32_t value = 0;
};

struct BufferedStore {
  std::uint8_t cluster = 0;  // logical cluster of the store unit
  std::uint32_t addr = 0;
  std::uint8_t size = 0;
  std::uint32_t value = 0;
};

// Inter-cluster copy network state for one channel (Section V-E): either the
// send arrived first (value buffered) or the recv did (destination register
// remembered; the send then writes it directly).
struct ChannelState {
  bool has_value = false;
  std::uint32_t value = 0;
  bool recv_waiting = false;
  std::uint8_t recv_cluster = 0;
  std::uint8_t recv_dst = 0;
};

// Issue progress of the thread's current VLIW instruction. pending_ops[c] is
// a bitmask over bundle positions still to issue on logical cluster c. `dec`
// caches the instruction's decode-cache entry for the merge engine and the
// operand fetch (set at refill, cleared with the rest of the progress).
struct IssueProgress {
  bool active = false;
  bool was_split = false;  // issued over more than one cycle
  int pending_count = 0;
  std::array<std::uint8_t, kMaxClusters> pending_ops{};
  // Clusters with a non-zero pending mask (kept in sync by the refill and
  // the merge engine's take): the select loops walk set bits only.
  std::uint32_t pending_clusters = 0;
  const DecodedInstruction* dec = nullptr;
  std::uint64_t seq = 0;
  std::uint64_t started_at = 0;

  // Derived variant for tests/tools that fill pending_ops by hand.
  [[nodiscard]] std::uint32_t pending_cluster_mask() const {
    std::uint32_t m = 0;
    for (int c = 0; c < kMaxClusters; ++c)
      if (pending_ops[static_cast<std::size_t>(c)] != 0) m |= 1u << c;
    return m;
  }
};

struct FaultInfo {
  bool pending = false;
  std::uint32_t pc = 0;        // instruction index that faulted
  std::uint32_t addr = 0;      // faulting data address
};

struct ThreadCounters {
  std::uint64_t instructions = 0;  // VLIW instructions retired this run
  std::uint64_t ops = 0;           // operations retired this run
  std::uint64_t taken_branches = 0;
  std::uint64_t split_instructions = 0;
  std::uint64_t dmiss_block_cycles = 0;
  std::uint64_t imiss_block_cycles = 0;
};

class ThreadContext {
 public:
  ThreadContext(int asid, std::shared_ptr<const Program> program);

  // Restart the program from scratch (respawn): remaps the program's data
  // image (O(mapped pages), no page copy), clears registers/buffers, keeps
  // `total_instructions` accumulating.
  void respawn();

  [[nodiscard]] const Program& program() const { return *program_; }
  [[nodiscard]] std::shared_ptr<const Program> program_ptr() const {
    return program_;
  }
  [[nodiscard]] int asid() const { return asid_; }

  [[nodiscard]] const VliwInstruction& current_instruction() const {
    return code_[pc];
  }
  // The decode-cache entry of the instruction at `pc`.
  [[nodiscard]] const DecodedInstruction& current_decoded() const {
    return decoded_insns_[pc];
  }
  // Byte address of the instruction at `at` (ICache model).
  [[nodiscard]] std::uint32_t instr_addr(std::uint32_t at) const {
    return instr_addr_[at];
  }
  [[nodiscard]] bool at_end() const { return pc >= code_size_; }
  // Instruction count, cached so the retire path doesn't chase the
  // shared_ptr and vector header of the (cold) Program object.
  [[nodiscard]] std::uint32_t code_size() const { return code_size_; }

  // Architectural fingerprint (registers + memory): the quantity that must
  // be identical across all multithreading techniques.
  [[nodiscard]] std::uint64_t arch_fingerprint(int clusters) const;

  // --- hot state, touched every cycle by refill/merge/execute ---
  std::uint32_t pc = 0;
  RunState state = RunState::kReady;
  bool fetch_done = false;              // current pc fetched from ICache
  bool halt_at_completion = false;
  bool channels_dirty = false;          // any ChannelState written since reset
  std::int32_t redirect_target = -1;    // taken branch target, applied at completion
  // Pending-miss handles: the absolute completion cycle the memory backend
  // returned for this thread's outstanding D-miss / I-miss (the thread's
  // view of an in-flight fill; the backend may track more, e.g. MSHRs).
  std::uint64_t mem_block_until = 0;    // D-miss: next instruction gated
  std::uint64_t fetch_ready_at = 0;     // I-miss: fetch completes here
  std::uint64_t next_issue_at = 0;      // branch-penalty gate
  std::uint64_t seq = 0;                // instructions started
  IssueProgress issue;
  PendingWriteQueue pending_writes;     // probed by every operand read

  // --- architectural + buffered state ---
  RegFile regs;
  MainMemory mem;
  std::vector<BufferedRegWrite> rf_buffer;
  std::vector<BufferedStore> store_buffer;
  std::array<ChannelState, kNumChannels> channels{};
  FaultInfo fault;

  ThreadCounters counters;
  std::uint64_t total_instructions = 0;  // across respawns
  std::uint64_t respawns = 0;

 private:
  int asid_;
  std::shared_ptr<const Program> program_;
  // Raw views into program_-owned storage: the per-cycle accessors above
  // index these directly instead of chasing shared_ptr/vector headers.
  const VliwInstruction* code_ = nullptr;
  const DecodedInstruction* decoded_insns_ = nullptr;
  const std::uint32_t* instr_addr_ = nullptr;
  std::uint32_t code_size_ = 0;
};

}  // namespace vexsim
