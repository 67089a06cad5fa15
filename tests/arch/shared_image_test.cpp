// Contexts that share one Program share its data image copy-on-write: each
// context's stores stay private, a respawn restores the image without
// allocating or copying pages, and concurrent contexts on different threads
// (as in the sweep workers) never race on the shared image.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "arch/thread_context.hpp"
#include "support/test_util.hpp"
#include "vasm/assembler.hpp"

// Every operator new in this binary is counted, so a test can show that a
// stretch of code does not allocate. (noinline: GCC otherwise warns about
// free() on a pointer from operator new once the pair is inlined.)
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace vexsim {
namespace {

constexpr std::uint32_t kLow = 0x2000;      // image page 0
constexpr std::uint32_t kHigh = 0x2'0000;   // image page 2
constexpr std::uint32_t kFresh = 0x9'0000;  // not in the image

std::shared_ptr<const Program> shared_program() {
  Program p = assemble(
      "c0 movi r1 = 7\n"
      "c0 halt\n",
      "shared");
  p.add_data_words(kLow, {11, 22});
  p.add_data_words(kHigh, {33});
  return test::finalize(std::move(p));
}

TEST(SharedImage, StoresAreInvisibleToOtherContexts) {
  const auto prog = shared_program();
  ThreadContext a(0, prog);
  ThreadContext b(1, prog);
  ASSERT_TRUE(a.mem.store(kLow, 4, 99));
  ASSERT_TRUE(a.mem.store(kFresh, 4, 98));
  EXPECT_EQ(a.mem.peek_u32(kLow), 99u);
  EXPECT_EQ(b.mem.peek_u32(kLow), 11u);
  EXPECT_EQ(b.mem.peek_u32(kFresh), 0u);
  EXPECT_EQ(prog->image->peek_u32(kLow), 11u);

  ThreadContext fresh(2, prog);
  EXPECT_EQ(fresh.mem.peek_u32(kLow), 11u);
  EXPECT_EQ(fresh.arch_fingerprint(4), b.arch_fingerprint(4));

  a.respawn();
  EXPECT_EQ(a.mem.peek_u32(kLow), 11u);
  EXPECT_EQ(a.mem.peek_u32(kFresh), 0u);
  EXPECT_EQ(a.arch_fingerprint(4), b.arch_fingerprint(4));
}

TEST(SharedImage, CopiedMemoryIsIndependentOfItsSource) {
  const auto prog = shared_program();
  ThreadContext a(0, prog);
  ASSERT_TRUE(a.mem.store(kHigh, 4, 1));
  MainMemory copy(a.mem);
  ASSERT_TRUE(copy.store(kHigh, 4, 2));
  ASSERT_TRUE(copy.store(kLow, 4, 3));
  EXPECT_EQ(a.mem.peek_u32(kHigh), 1u);
  EXPECT_EQ(a.mem.peek_u32(kLow), 11u);
  a.respawn();
  EXPECT_EQ(copy.peek_u32(kHigh), 2u);
  EXPECT_EQ(copy.peek_u32(kLow), 3u);
}

TEST(SharedImage, OnlyPagesStoredSinceRespawnArePrivate) {
  const auto prog = shared_program();
  ThreadContext ctx(0, prog);
  EXPECT_EQ(ctx.mem.private_pages(), 0u);
  ASSERT_TRUE(ctx.mem.store(kLow, 4, 1));
  ASSERT_TRUE(ctx.mem.store(kFresh, 4, 2));
  EXPECT_EQ(ctx.mem.private_pages(), 2u);

  ctx.respawn();
  EXPECT_EQ(ctx.mem.private_pages(), 0u);
  ASSERT_TRUE(ctx.mem.store(kHigh, 4, 3));
  EXPECT_EQ(ctx.mem.private_pages(), 1u);
  EXPECT_TRUE(ctx.mem.is_private(kHigh));
  EXPECT_FALSE(ctx.mem.is_private(kLow));
  EXPECT_FALSE(ctx.mem.is_private(kFresh));
  EXPECT_EQ(ctx.mem.page_data(kLow), prog->image->page_data(kLow));
  EXPECT_EQ(ctx.mem.page_data(kFresh), nullptr);
}

TEST(SharedImage, RespawnNeitherAllocatesNorCopiesImagePages) {
  const auto prog = shared_program();
  ThreadContext ctx(0, prog);
  for (int round = 0; round < 3; ++round) {
    // Copy-on-write on both image pages plus a fresh page.
    ASSERT_TRUE(ctx.mem.store(kLow, 4, 1));
    ASSERT_TRUE(ctx.mem.store(kHigh, 4, 2));
    ASSERT_TRUE(ctx.mem.store(kFresh, 4, 3));
    ASSERT_EQ(ctx.mem.private_pages(), 3u);

    const std::size_t before = g_allocations.load();
    const std::size_t pages = ctx.mem.owned_pages();
    ctx.respawn();
    EXPECT_EQ(g_allocations.load(), before) << "round " << round;
    EXPECT_EQ(ctx.mem.owned_pages(), pages) << "round " << round;
    // Every image page is mapped by pointer, not copied.
    EXPECT_EQ(ctx.mem.page_data(kLow), prog->image->page_data(kLow));
    EXPECT_EQ(ctx.mem.page_data(kHigh), prog->image->page_data(kHigh));
    EXPECT_EQ(ctx.mem.private_pages(), 0u);
    EXPECT_EQ(ctx.mem.peek_u32(kLow), 11u);
  }
  // Once warm, the private pages come from the free list.
  EXPECT_EQ(ctx.mem.owned_pages(), 3u);
  const std::size_t before = g_allocations.load();
  ASSERT_TRUE(ctx.mem.store(kLow, 4, 1));
  ASSERT_TRUE(ctx.mem.store(kFresh, 4, 3));
  ctx.respawn();
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(ctx.mem.owned_pages(), 3u);
}

// Four threads run contexts of one shared Program at once: store (copy-on-
// write), fingerprint, respawn. Under ThreadSanitizer this checks that the
// shared image is only ever read.
TEST(SharedImage, ConcurrentContextsOfOneProgram) {
  const auto prog = shared_program();
  const std::uint64_t initial = ThreadContext(0, prog).arch_fingerprint(4);
  constexpr int kThreads = 4;
  std::vector<std::uint64_t> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ThreadContext ctx(t, prog);
      const std::uint32_t slot = kLow + 4 * static_cast<std::uint32_t>(t);
      std::uint64_t& bad = mismatches[static_cast<std::size_t>(t)];
      for (int i = 0; i < 20; ++i) {
        const auto v = static_cast<std::uint32_t>(t * 1000 + i + 1);
        if (!ctx.mem.store(slot, 4, v) || !ctx.mem.store(kFresh, 4, v) ||
            ctx.mem.peek_u32(slot) != v)
          ++bad;
        if (ctx.arch_fingerprint(4) == initial) ++bad;
        ctx.respawn();
        if (ctx.arch_fingerprint(4) != initial) ++bad;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0u) << "thread " << t;
  EXPECT_EQ(prog->image->peek_u32(kLow), 11u);
}

}  // namespace
}  // namespace vexsim
