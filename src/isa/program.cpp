#include "isa/program.hpp"

#include <ios>
#include <sstream>

#include "isa/encoding.hpp"
#include "mem/main_memory.hpp"
#include "util/check.hpp"

namespace vexsim {

void Program::finalize() {
  instr_addr.clear();
  instr_addr.reserve(code.size());
  std::uint32_t addr = code_base;
  for (const VliwInstruction& insn : code) {
    instr_addr.push_back(addr);
    addr += encoded_size_bytes(insn);
  }
  code_bytes = addr - code_base;
  // Software-pipeline spans must describe a well-formed
  // prologue/kernel/epilogue region before they reach the decode cache or
  // the verifier.
  for (const SoftwarePipelinedLoop& k : kernels) {
    VEXSIM_CHECK_MSG(k.ii >= 1 && k.stages >= 2,
                     name << ": degenerate software-pipeline span (ii="
                          << k.ii << ", stages=" << k.stages << ")");
    VEXSIM_CHECK_MSG(
        k.kernel_start - k.prologue_start ==
            static_cast<std::uint32_t>(k.ii) * (k.stages - 1u),
        name << ": prologue span does not match (stages-1) * ii");
    VEXSIM_CHECK_MSG(
        k.epilogue_end >= k.kernel_start + k.ii &&
            k.epilogue_end <= code.size(),
        name << ": software-pipeline span out of range");
  }
  decoded = std::make_shared<const DecodedProgram>(code, kernels);

  // Segments a load can never reach, or whose bytes would wrap into page 0.
  for (const DataSegment& seg : data) {
    VEXSIM_CHECK_MSG(seg.addr >= MainMemory::kGuardLimit,
                     name << ": data segment at 0x" << std::hex << seg.addr
                          << " starts below the guard limit 0x"
                          << MainMemory::kGuardLimit);
    VEXSIM_CHECK_MSG(seg.bytes.size() <= (std::uint64_t{1} << 32) - seg.addr,
                     name << ": data segment at 0x" << std::hex << seg.addr
                          << " (0x" << seg.bytes.size()
                          << " bytes) ends past 2^32");
  }
  if (image != nullptr && data.empty()) return;  // the image is current
  MainMemory staging;
  staging.reset_to(image);
  for (const DataSegment& seg : data)
    staging.poke_bytes(seg.addr, seg.bytes.data(), seg.bytes.size());
  image = std::make_shared<const MemoryImage>(std::move(staging));
  data.clear();
}

void Program::add_data(std::uint32_t addr, std::vector<std::uint8_t> bytes) {
  data.push_back(DataSegment{addr, std::move(bytes)});
}

void Program::add_data_words(std::uint32_t addr,
                             const std::vector<std::uint32_t>& words) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(words.size() * 4);
  for (std::uint32_t w : words) {
    bytes.push_back(static_cast<std::uint8_t>(w));
    bytes.push_back(static_cast<std::uint8_t>(w >> 8));
    bytes.push_back(static_cast<std::uint8_t>(w >> 16));
    bytes.push_back(static_cast<std::uint8_t>(w >> 24));
  }
  add_data(addr, std::move(bytes));
}

void Program::validate(int num_clusters) const {
  for (std::size_t i = 0; i < code.size(); ++i) {
    code[i].for_each_op([&](const Operation& op) {
      VEXSIM_CHECK_MSG(op.cluster < num_clusters,
                       name << "[" << i << "]: cluster " << int(op.cluster)
                            << " out of range");
      if (op.writes_gpr())
        VEXSIM_CHECK_MSG(op.dst < kNumGprs, name << "[" << i << "]: bad dst");
      if (op.writes_breg())
        VEXSIM_CHECK_MSG(op.dst < kNumBregs, name << "[" << i << "]: bad breg");
      if (reads_bsrc(op.opc))
        VEXSIM_CHECK_MSG(op.bsrc < kNumBregs, name << "[" << i << "]: bad bsrc");
      if (op.opc == Opcode::kBr || op.opc == Opcode::kBrf ||
          op.opc == Opcode::kGoto) {
        VEXSIM_CHECK_MSG(op.imm >= 0 &&
                             static_cast<std::size_t>(op.imm) < code.size(),
                         name << "[" << i << "]: branch target " << op.imm
                              << " out of range");
      }
      if (op.cls() == OpClass::kComm)
        VEXSIM_CHECK_MSG(op.chan < kNumChannels,
                         name << "[" << i << "]: bad channel");
    });
  }
}

std::string to_string(const Program& prog) {
  std::ostringstream os;
  os << ";; program: " << prog.name << " (" << prog.code.size()
     << " instructions)\n";
  for (std::size_t i = 0; i < prog.code.size(); ++i) {
    const auto label = prog.labels.find(static_cast<std::uint32_t>(i));
    if (label != prog.labels.end()) os << label->second << ":\n";
    os << "  " << to_string(prog.code[i]) << "\n";
  }
  return os.str();
}

}  // namespace vexsim
