// A program: finalized VLIW code plus its initial data image.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "isa/decoded_program.hpp"
#include "isa/instruction.hpp"

namespace vexsim {

class MemoryImage;

struct DataSegment {
  std::uint32_t addr = 0;
  std::vector<std::uint8_t> bytes;
};

struct Program {
  std::string name;
  std::vector<VliwInstruction> code;
  // Data segments queued by add_data() and not yet folded into `image`.
  std::vector<DataSegment> data;
  std::uint32_t code_base = 0x0000'1000;  // byte address of instruction 0
  std::map<std::uint32_t, std::string> labels;  // instr index -> label
  // Software-pipelined loop spans recorded by the compiler's modulo
  // scheduler (empty for unpipelined programs). finalize() validates the
  // spans and threads them into the decode cache; the verifier replays
  // each kernel cyclically against them.
  std::vector<SoftwarePipelinedLoop> kernels;

  // Derived by finalize(): byte address of each instruction (for the ICache
  // model) computed from the binary encoding sizes, plus the decode cache
  // the simulator hot paths index instead of re-deriving per cycle.
  std::vector<std::uint32_t> instr_addr;
  std::uint32_t code_bytes = 0;
  std::shared_ptr<const DecodedProgram> decoded;
  // The initial data image every context maps copy-on-write (a respawn is
  // MainMemory::reset_to(image)). finalize() pokes the queued segments, in
  // order, over the previous image — where segments overlap the later one
  // wins — and empties `data`, so the image holds the only copy of the
  // bytes. Immutable once built: contexts on any thread share it.
  std::shared_ptr<const MemoryImage> image;

  // Throws CheckError (naming the program and segment address) for a data
  // segment that starts below MainMemory::kGuardLimit or ends past 2^32.
  void finalize();
  // False again after add_data() until the next finalize().
  [[nodiscard]] bool finalized() const {
    return instr_addr.size() == code.size() && decoded != nullptr &&
           decoded->size() == code.size() && image != nullptr && data.empty();
  }

  [[nodiscard]] std::size_t size() const { return code.size(); }

  // Data-segment builders.
  void add_data(std::uint32_t addr, std::vector<std::uint8_t> bytes);
  void add_data_words(std::uint32_t addr,
                      const std::vector<std::uint32_t>& words);

  // Sanity checks: branch targets in range, cluster indices within the given
  // cluster count, register indices in range. Throws CheckError on violation.
  void validate(int num_clusters) const;
};

// Multi-line disassembly with labels and instruction indices.
[[nodiscard]] std::string to_string(const Program& prog);

}  // namespace vexsim
