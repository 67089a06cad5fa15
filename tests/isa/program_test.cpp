#include "isa/program.hpp"

#include <gtest/gtest.h>

#include <string>

#include "isa/encoding.hpp"
#include "mem/main_memory.hpp"
#include "util/check.hpp"

namespace vexsim {
namespace {

Program two_instruction_program() {
  Program prog;
  prog.name = "p";
  VliwInstruction a;
  a.add(ops::movi(0, 1, 100000));  // 16 bytes encoded
  prog.code.push_back(a);
  VliwInstruction b;
  b.add(ops::halt(0));
  prog.code.push_back(b);
  return prog;
}

TEST(Program, FinalizeComputesAddresses) {
  Program prog = two_instruction_program();
  prog.finalize();
  ASSERT_TRUE(prog.finalized());
  ASSERT_EQ(prog.instr_addr.size(), 2u);
  EXPECT_EQ(prog.instr_addr[0], prog.code_base);
  EXPECT_EQ(prog.instr_addr[1], prog.code_base + 16);
  EXPECT_EQ(prog.code_bytes, 24u);
}

TEST(Program, AddressesMatchEncoding) {
  Program prog = two_instruction_program();
  prog.finalize();
  std::uint32_t total = 0;
  for (const auto& insn : prog.code) total += encoded_size_bytes(insn);
  EXPECT_EQ(prog.code_bytes, total);
}

TEST(Program, DataWords) {
  Program prog = two_instruction_program();
  prog.add_data_words(0x2000, {0x11223344u, 0xAABBCCDDu});
  ASSERT_EQ(prog.data.size(), 1u);
  EXPECT_EQ(prog.data[0].addr, 0x2000u);
  ASSERT_EQ(prog.data[0].bytes.size(), 8u);
  EXPECT_EQ(prog.data[0].bytes[0], 0x44);  // little endian
  EXPECT_EQ(prog.data[0].bytes[7], 0xAA);
}

TEST(Program, FinalizeMovesDataIntoTheImage) {
  Program prog = two_instruction_program();
  prog.add_data_words(0x2000, {0x11223344u, 0xAABBCCDDu});
  prog.finalize();
  EXPECT_TRUE(prog.data.empty());  // the image holds the only copy
  ASSERT_NE(prog.image, nullptr);
  EXPECT_EQ(prog.image->peek_u32(0x2000), 0x11223344u);
  EXPECT_EQ(prog.image->peek_u32(0x2004), 0xAABBCCDDu);
}

TEST(Program, LaterOverlappingSegmentWins) {
  Program prog = two_instruction_program();
  prog.add_data_words(0x2000, {1, 2, 3});
  prog.add_data_words(0x2004, {9});
  prog.finalize();
  EXPECT_EQ(prog.image->peek_u32(0x2000), 1u);
  EXPECT_EQ(prog.image->peek_u32(0x2004), 9u);
  EXPECT_EQ(prog.image->peek_u32(0x2008), 3u);
}

TEST(Program, AddDataAfterFinalizeNeedsAnotherFinalize) {
  Program prog = two_instruction_program();
  prog.add_data_words(0x2000, {1, 2});
  prog.finalize();
  const std::shared_ptr<const MemoryImage> first = prog.image;
  prog.add_data_words(0x2004, {7});
  EXPECT_FALSE(prog.finalized());  // the image is stale until re-finalized
  prog.finalize();
  ASSERT_TRUE(prog.finalized());
  EXPECT_EQ(prog.image->peek_u32(0x2000), 1u);
  EXPECT_EQ(prog.image->peek_u32(0x2004), 7u);
  EXPECT_EQ(first->peek_u32(0x2004), 2u);  // a shared image never changes
}

TEST(Program, FinalizeRejectsSegmentPastAddressSpace) {
  Program prog = two_instruction_program();
  prog.add_data(0xFFFF'FFF0, std::vector<std::uint8_t>(32, 1));
  try {
    prog.finalize();
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("p: data segment at 0xfffffff0"), std::string::npos)
        << what;
  }
  EXPECT_FALSE(prog.finalized());

  Program edge = two_instruction_program();  // ending exactly at 2^32 is fine
  edge.add_data(0xFFFF'FFF0, std::vector<std::uint8_t>(16, 1));
  edge.finalize();
  EXPECT_EQ(edge.image->peek_u32(0xFFFF'FFFC), 0x01010101u);
  EXPECT_EQ(edge.image->peek_u32(0x100), 0u);  // nothing wrapped into page 0
}

TEST(Program, FinalizeRejectsSegmentBelowGuardLimit) {
  Program prog = two_instruction_program();
  prog.add_data_words(0x80, {1});
  try {
    prog.finalize();
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("p: data segment at 0x80"), std::string::npos)
        << what;
  }
  Program ok = two_instruction_program();
  ok.add_data_words(MainMemory::kGuardLimit, {1});
  EXPECT_NO_THROW(ok.finalize());
}

TEST(Program, ValidateAcceptsGoodProgram) {
  Program prog = two_instruction_program();
  EXPECT_NO_THROW(prog.validate(4));
}

TEST(Program, ValidateRejectsBadCluster) {
  Program prog = two_instruction_program();
  prog.code[0].add(ops::mov(3, 1, 2));
  EXPECT_THROW(prog.validate(2), CheckError);
  EXPECT_NO_THROW(prog.validate(4));
}

TEST(Program, ValidateRejectsBadBranchTarget) {
  Program prog = two_instruction_program();
  prog.code[0].add(ops::br(0, 0, 99));
  EXPECT_THROW(prog.validate(4), CheckError);
}

TEST(Program, ToStringIncludesLabels) {
  Program prog = two_instruction_program();
  prog.labels[1] = "done";
  const std::string text = to_string(prog);
  EXPECT_NE(text.find("done:"), std::string::npos);
  EXPECT_NE(text.find("halt"), std::string::npos);
}

}  // namespace
}  // namespace vexsim
