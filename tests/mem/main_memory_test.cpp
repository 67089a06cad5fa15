#include "mem/main_memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace vexsim {
namespace {

TEST(MainMemory, ZeroInitialized) {
  const MainMemory mem;
  std::uint32_t v = 1;
  ASSERT_TRUE(mem.load(0x1000, 4, v));
  EXPECT_EQ(v, 0u);
}

TEST(MainMemory, StoreLoadWord) {
  MainMemory mem;
  ASSERT_TRUE(mem.store(0x2000, 4, 0xDEADBEEF));
  std::uint32_t v = 0;
  ASSERT_TRUE(mem.load(0x2000, 4, v));
  EXPECT_EQ(v, 0xDEADBEEFu);
}

TEST(MainMemory, LittleEndianBytes) {
  MainMemory mem;
  ASSERT_TRUE(mem.store(0x2000, 4, 0x11223344));
  std::uint32_t b = 0;
  ASSERT_TRUE(mem.load(0x2000, 1, b));
  EXPECT_EQ(b, 0x44u);
  ASSERT_TRUE(mem.load(0x2003, 1, b));
  EXPECT_EQ(b, 0x11u);
  ASSERT_TRUE(mem.load(0x2002, 2, b));
  EXPECT_EQ(b, 0x1122u);
}

TEST(MainMemory, MisalignedFaults) {
  MainMemory mem;
  std::uint32_t v = 0;
  EXPECT_FALSE(mem.load(0x2001, 4, v));
  EXPECT_FALSE(mem.load(0x2001, 2, v));
  EXPECT_TRUE(mem.load(0x2001, 1, v));
  EXPECT_FALSE(mem.store(0x2002, 4, 1));
  EXPECT_TRUE(mem.store(0x2002, 2, 1));
}

TEST(MainMemory, GuardPageFaults) {
  MainMemory mem;
  std::uint32_t v = 0;
  EXPECT_FALSE(mem.load(0x0, 4, v));
  EXPECT_FALSE(mem.load(0xFC, 4, v));
  EXPECT_FALSE(mem.store(0x10, 4, 1));
  EXPECT_TRUE(mem.load(0x100, 4, v));
}

TEST(MainMemory, SparsePagesIndependent) {
  MainMemory mem;
  ASSERT_TRUE(mem.store(0x0001'0000, 4, 1));
  ASSERT_TRUE(mem.store(0x7000'0000, 4, 2));
  std::uint32_t v = 0;
  ASSERT_TRUE(mem.load(0x0001'0000, 4, v));
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(mem.load(0x7000'0000, 4, v));
  EXPECT_EQ(v, 2u);
}

TEST(MainMemory, PokeBytesAcrossPages) {
  MainMemory mem;
  const std::uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint32_t addr = MainMemory::kPageSize - 4;
  mem.poke_bytes(addr, data, 8);
  std::uint32_t v = 0;
  ASSERT_TRUE(mem.load(addr, 4, v));
  EXPECT_EQ(v, 0x04030201u);
  ASSERT_TRUE(mem.load(addr + 4, 4, v));
  EXPECT_EQ(v, 0x08070605u);
}

TEST(MainMemory, FingerprintDetectsChanges) {
  MainMemory a, b;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  ASSERT_TRUE(a.store(0x3000, 4, 7));
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  ASSERT_TRUE(b.store(0x3000, 4, 7));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(MainMemory, FingerprintIgnoresZeroWrites) {
  // Writing zeros allocates pages but leaves content equal to untouched
  // memory; the digest must not distinguish them.
  MainMemory a, b;
  ASSERT_TRUE(a.store(0x5000, 4, 0));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(MainMemory, ClearResets) {
  MainMemory mem;
  ASSERT_TRUE(mem.store(0x4000, 4, 9));
  mem.clear();
  std::uint32_t v = 1;
  ASSERT_TRUE(mem.load(0x4000, 4, v));
  EXPECT_EQ(v, 0u);
}

TEST(MainMemory, PokePastEndOfAddressSpaceThrows) {
  MainMemory mem;
  const std::uint8_t data[8] = {};
  EXPECT_THROW(mem.poke_bytes(0xFFFF'FFFC, data, 8), CheckError);
  EXPECT_NO_THROW(mem.poke_bytes(0xFFFF'FFF8, data, 8));  // ends at 2^32
}

// Digests of fixed inputs, pinned to the values of the hash-map
// implementation this page table replaced: results caches and goldens key
// on them.
TEST(MainMemory, FingerprintConstantsArePinned) {
  EXPECT_EQ(MainMemory().fingerprint(), 0x14650fb0739d0383ull);
  {
    MainMemory m;
    ASSERT_TRUE(m.store(0x2000, 4, 0xDEADBEEF));
    EXPECT_EQ(m.fingerprint(), 0x906f781f8fd622e5ull);
  }
  {
    MainMemory m;
    const std::uint8_t b[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    m.poke_bytes(MainMemory::kPageSize - 4, b, 8);
    ASSERT_TRUE(m.store(0x7000'0000, 2, 0xBEEF));
    ASSERT_TRUE(m.store(0xFFFF'FFFC, 4, 0x01020304));
    ASSERT_TRUE(m.store(0x0123'4567, 1, 0x5A));
    EXPECT_EQ(m.fingerprint(), 0xf150d5414d88008bull);
  }
  {
    MainMemory m;
    ASSERT_TRUE(m.store(0x4000, 4, 0x11));
    ASSERT_TRUE(m.store(0x3'0000, 4, 0x22));  // written, then zeroed:
    ASSERT_TRUE(m.store(0x3'0000, 4, 0));     // the page is skipped
    EXPECT_EQ(m.fingerprint(), 0x2fe3b3887d7b3122ull);
  }
}

std::shared_ptr<const MemoryImage> freeze(MainMemory staging) {
  return std::make_shared<const MemoryImage>(std::move(staging));
}

TEST(MainMemory, CopyIsIndependentOfSource) {
  MainMemory staging;
  staging.poke_u32(0x2000, 5);
  const std::shared_ptr<const MemoryImage> frozen = freeze(std::move(staging));
  MainMemory src;
  src.reset_to(frozen);
  ASSERT_TRUE(src.store(0x3'0000, 4, 7));  // a private page

  MainMemory copy(src);
  ASSERT_TRUE(copy.store(0x2000, 4, 6));     // copy-on-write in the copy
  ASSERT_TRUE(copy.store(0x3'0000, 4, 8));   // its own private page
  EXPECT_EQ(src.peek_u32(0x2000), 5u);
  EXPECT_EQ(src.peek_u32(0x3'0000), 7u);
  EXPECT_EQ(frozen->peek_u32(0x2000), 5u);
  ASSERT_TRUE(src.store(0x3'0000, 4, 9));
  EXPECT_EQ(copy.peek_u32(0x3'0000), 8u);

  MainMemory assigned;
  assigned = src;
  ASSERT_TRUE(src.store(0x3'0004, 4, 1));
  EXPECT_EQ(assigned.peek_u32(0x3'0004), 0u);
  EXPECT_EQ(assigned.peek_u32(0x3'0000), 9u);
}

TEST(MainMemory, ResetToImageRestoresContentAndDropsPrivatePages) {
  MainMemory staging;
  staging.poke_u32(0x2000, 5);
  staging.poke_u32(0x2'0000, 6);
  const std::shared_ptr<const MemoryImage> frozen = freeze(std::move(staging));
  MainMemory mem;
  mem.reset_to(frozen);
  EXPECT_EQ(mem.private_pages(), 0u);
  EXPECT_EQ(mem.page_data(0x2000), frozen->page_data(0x2000));
  ASSERT_TRUE(mem.store(0x2000, 4, 50));
  ASSERT_TRUE(mem.store(0x9'0000, 4, 60));
  EXPECT_EQ(mem.private_pages(), 2u);
  EXPECT_TRUE(mem.is_private(0x2000));
  EXPECT_FALSE(mem.is_private(0x2'0000));
  EXPECT_EQ(frozen->peek_u32(0x2000), 5u);
  mem.reset_to(frozen);
  EXPECT_EQ(mem.private_pages(), 0u);
  EXPECT_EQ(mem.peek_u32(0x2000), 5u);
  EXPECT_EQ(mem.peek_u32(0x9'0000), 0u);
  EXPECT_EQ(mem.page_data(0x9'0000), nullptr);
  EXPECT_EQ(mem.fingerprint(), frozen->fingerprint());
}

TEST(MainMemory, LoadOfUnmappedPageAllocatesNothing) {
  MainMemory mem;
  std::uint32_t v = 1;
  ASSERT_TRUE(mem.load(0x5'0000, 4, v));
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(mem.page_data(0x5'0000), nullptr);
  EXPECT_EQ(mem.private_pages(), 0u);
}

// --- Oracle: the replaced design, one std::map of zero-filled byte pages.
class MapMemory {
 public:
  using Pages = std::map<std::uint32_t, std::vector<std::uint8_t>>;

  bool load(std::uint32_t addr, int size, std::uint32_t& out) const {
    if (addr < MainMemory::kGuardLimit) return false;
    if ((addr & (static_cast<std::uint32_t>(size) - 1)) != 0) return false;
    std::uint32_t v = 0;
    for (int i = size - 1; i >= 0; --i)
      v = (v << 8) | byte(addr + static_cast<std::uint32_t>(i));
    out = v;
    return true;
  }
  bool store(std::uint32_t addr, int size, std::uint32_t value) {
    if (addr < MainMemory::kGuardLimit) return false;
    if ((addr & (static_cast<std::uint32_t>(size) - 1)) != 0) return false;
    for (int i = 0; i < size; ++i)
      set(addr + static_cast<std::uint32_t>(i),
          static_cast<std::uint8_t>(value >> (8 * i)));
    return true;
  }
  void poke(std::uint32_t addr, const std::vector<std::uint8_t>& bytes) {
    for (std::size_t i = 0; i < bytes.size(); ++i)
      set(addr + static_cast<std::uint32_t>(i), bytes[i]);
  }
  std::uint64_t fingerprint() const {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint8_t b) {
      h ^= b;
      h *= 1099511628211ull;
    };
    for (const auto& [idx, page] : pages) {
      bool all_zero = true;
      for (std::uint8_t b : page)
        if (b != 0) { all_zero = false; break; }
      if (all_zero) continue;
      for (int s = 0; s < 32; s += 8) mix(static_cast<std::uint8_t>(idx >> s));
      for (std::uint8_t b : page) mix(b);
    }
    return h;
  }
  Pages pages;

 private:
  std::uint8_t byte(std::uint32_t a) const {
    const auto it = pages.find(a >> MainMemory::kPageBits);
    return it == pages.end() ? 0 : it->second[a & (MainMemory::kPageSize - 1)];
  }
  void set(std::uint32_t a, std::uint8_t b) {
    auto& page = pages[a >> MainMemory::kPageBits];
    if (page.empty()) page.resize(MainMemory::kPageSize, 0);
    page[a & (MainMemory::kPageSize - 1)] = b;
  }
};

TEST(MainMemory, MatchesMapOracleOverRandomOperations) {
  // Pages in three leaves, the first and last page of the address space
  // included; offsets cluster near page edges so runs cross pages.
  constexpr std::array<std::uint32_t, 6> kPages = {0x0000, 0x0001, 0x0002,
                                                   0x0100, 0x7000, 0xFFFF};
  Rng rng(0x0A11CE);
  auto random_addr = [&] {
    const std::uint32_t page = kPages[rng.below(kPages.size())];
    const std::uint32_t off = rng.below(2) == 0
                                  ? rng.below(64)
                                  : MainMemory::kPageSize - 1 - rng.below(64);
    return (page << MainMemory::kPageBits) | off;
  };
  // A run starting at `addr` that stays below 2^32; small values, many 0s.
  auto random_bytes = [&](std::uint32_t addr) {
    const std::size_t room = (std::size_t{1} << 32) - addr;
    std::vector<std::uint8_t> bytes(
        std::min<std::size_t>(1 + rng.below(150), room));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(4));
    return bytes;
  };

  // Two frozen images and their models; the second is built over the
  // first, as a re-finalized program's image is.
  std::array<std::shared_ptr<const MemoryImage>, 2> images;
  std::array<MapMemory, 2> image_models;
  for (std::size_t k = 0; k < images.size(); ++k) {
    MainMemory staging;
    if (k > 0) {
      staging.reset_to(images[k - 1]);
      image_models[k] = image_models[k - 1];
    }
    for (int s = 0; s < 4; ++s) {
      const std::uint32_t addr = random_addr();
      const std::vector<std::uint8_t> bytes = random_bytes(addr);
      staging.poke_bytes(addr, bytes.data(), bytes.size());
      image_models[k].poke(addr, bytes);
    }
    images[k] = freeze(std::move(staging));
  }

  std::array<MainMemory, 2> mems;
  std::array<MapMemory, 2> models;
  for (int step = 0; step < 4000; ++step) {
    const std::size_t m = rng.below(2);
    MainMemory& mem = mems[m];
    MapMemory& model = models[m];
    const int size = 1 << rng.below(3);
    const std::uint32_t op = rng.below(100);
    if (op < 40) {
      const std::uint32_t addr = random_addr();
      std::uint32_t got = 0xCCCC, want = 0xDDDD;
      const bool ok = mem.load(addr, size, got);
      ASSERT_EQ(ok, model.load(addr, size, want)) << "step " << step;
      if (ok) {
        ASSERT_EQ(got, want) << "step " << step;
      }
    } else if (op < 75) {
      const std::uint32_t addr = random_addr();
      const std::uint32_t value = rng.below(3) == 0 ? 0 : rng.next_u32();
      ASSERT_EQ(mem.store(addr, size, value), model.store(addr, size, value));
    } else if (op < 85) {
      const std::uint32_t addr = random_addr();
      const std::vector<std::uint8_t> bytes = random_bytes(addr);
      mem.poke_bytes(addr, bytes.data(), bytes.size());
      model.poke(addr, bytes);
    } else if (op < 92) {
      const std::size_t k = rng.below(2);
      mem.reset_to(images[k]);
      model = image_models[k];
    } else if (op < 96) {
      mems[1 - m] = mem;  // copy; both continue independently
      models[1 - m] = model;
    } else if (op < 98) {
      MainMemory copy(mem);
      mem = std::move(copy);
    } else {
      mem.clear();
      model.pages.clear();
    }
    if (step % 100 != 0) continue;
    for (std::size_t k = 0; k < mems.size(); ++k)
      ASSERT_EQ(mems[k].fingerprint(), models[k].fingerprint())
          << "step " << step << " memory " << k;
  }
  for (std::size_t k = 0; k < images.size(); ++k)
    EXPECT_EQ(images[k]->fingerprint(), image_models[k].fingerprint());
}

}  // namespace
}  // namespace vexsim
