// Functional main memory: sparse, paged, little-endian, zero-initialized.
//
// Each benchmark thread owns a private address space (the evaluation runs
// multiprogrammed workloads, not shared-memory ones). Accesses below
// kGuardLimit or misaligned accesses fault — used by the precise-exception
// machinery and its tests.
//
// Storage is a two-level page table over 64 KiB pages: the top 8 address
// bits pick a leaf, the next 8 pick an entry. An entry maps either
//  - a page of a shared, immutable MemoryImage (a Program's initial data,
//    frozen once by Program::finalize() and read concurrently by every
//    context running the program), or
//  - a private page this memory owns.
// A store (or poke) to an image page first copies it into a private page
// (copy-on-write); a load of an unmapped page reads 0 and allocates nothing.
// reset_to(image) — a respawn — returns the private pages to a per-memory
// free list and maps the image's pages: O(mapped pages), one reference on
// the image, no allocation and no page copy once the free list is warm.
//
// load/store are inline: they run once per executed memory operation, and
// the fast path is two dependent loads of the page table — a cross-TU call
// would cost more than the access.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/check.hpp"

namespace vexsim {

class MemoryImage;

class MainMemory {
 public:
  static constexpr std::uint32_t kPageBits = 16;  // 64 KiB pages
  static constexpr std::uint32_t kPageSize = 1u << kPageBits;
  static constexpr std::uint32_t kGuardLimit = 0x100;  // null-page guard

  MainMemory();
  // Copies share the source's image and deep-copy its private pages.
  MainMemory(const MainMemory& other);
  MainMemory(MainMemory&& other) noexcept : MainMemory() { swap(other); }
  MainMemory& operator=(MainMemory other) noexcept {
    swap(other);
    return *this;
  }
  ~MainMemory() = default;

  // size ∈ {1,2,4}. Returns false on fault (misaligned / guard page); the
  // value is sign- or zero-extended by the caller (ISA level), not here.
  [[nodiscard]] bool load(std::uint32_t addr, int size,
                          std::uint32_t& out) const {
    VEXSIM_CHECK(size == 1 || size == 2 || size == 4);
    if (addr < kGuardLimit) return false;
    if ((addr & (static_cast<std::uint32_t>(size) - 1)) != 0) return false;
    const std::uint8_t* p = entry(addr >> kPageBits).read;
    if (p == nullptr) {
      out = 0;  // untouched memory reads as zero
      return true;
    }
    // A whole access never crosses a page: pages are 64 KiB and aligned, and
    // the alignment check above keeps a size-n access inside an n-byte unit.
    const std::uint32_t off = addr & (kPageSize - 1);
    if constexpr (std::endian::native == std::endian::little) {
      // The simulated machine is little-endian too: aligned accesses are a
      // straight memcpy (which the compiler lowers to a single load).
      if (size == 4) {
        std::uint32_t v = 0;
        std::memcpy(&v, p + off, 4);
        out = v;
        return true;
      }
      if (size == 2) {
        std::uint16_t v = 0;
        std::memcpy(&v, p + off, 2);
        out = v;
        return true;
      }
    }
    std::uint32_t v = 0;
    for (int i = size - 1; i >= 0; --i)
      v = (v << 8) | p[off + static_cast<std::uint32_t>(i)];
    out = v;
    return true;
  }

  [[nodiscard]] bool store(std::uint32_t addr, int size, std::uint32_t value) {
    VEXSIM_CHECK(size == 1 || size == 2 || size == 4);
    if (addr < kGuardLimit) return false;
    if ((addr & (static_cast<std::uint32_t>(size) - 1)) != 0) return false;
    std::uint8_t* p = writable_page(addr >> kPageBits);
    const std::uint32_t off = addr & (kPageSize - 1);
    if constexpr (std::endian::native == std::endian::little) {
      if (size == 4) {
        std::memcpy(p + off, &value, 4);
        return true;
      }
      if (size == 2) {
        const auto v = static_cast<std::uint16_t>(value);
        std::memcpy(p + off, &v, 2);
        return true;
      }
    }
    for (int i = 0; i < size; ++i)
      p[off + static_cast<std::uint32_t>(i)] =
          static_cast<std::uint8_t>(value >> (8 * i));
    return true;
  }

  // Unchecked helpers for program loading and test setup (no guard or
  // alignment check; a run that passes the end of the address space throws).
  void poke_bytes(std::uint32_t addr, const std::uint8_t* bytes,
                  std::size_t n);
  void poke_u32(std::uint32_t addr, std::uint32_t value);
  [[nodiscard]] std::uint32_t peek_u32(std::uint32_t addr) const;

  // Drop every private page to the free list and map `image`'s pages
  // (nullptr: an empty address space). Holds one reference on `image` until
  // the next reset.
  void reset_to(const std::shared_ptr<const MemoryImage>& image);
  void clear() { reset_to(nullptr); }

  // Deterministic digest of all non-zero pages, in page order — used by
  // equivalence tests to compare final memory states across techniques.
  [[nodiscard]] std::uint64_t fingerprint() const;

  // Introspection for tests: pages this memory owns (written since the last
  // reset) vs pages it reads from its image, and every page it has ever
  // allocated (private plus free list).
  [[nodiscard]] std::size_t private_pages() const;
  [[nodiscard]] std::size_t owned_pages() const { return owned_pages_; }
  [[nodiscard]] bool is_private(std::uint32_t addr) const {
    return entry(addr >> kPageBits).own != nullptr;
  }
  // The bytes backing `addr`'s page, or nullptr when unmapped.
  [[nodiscard]] const std::uint8_t* page_data(std::uint32_t addr) const {
    return entry(addr >> kPageBits).read;
  }

  void swap(MainMemory& other) noexcept;

 private:
  friend class MemoryImage;
  static constexpr std::uint32_t kLeafBits = 8;
  static constexpr std::uint32_t kLeafEntries = 1u << kLeafBits;
  static constexpr std::uint32_t kRootEntries = 1u << (32 - kPageBits -
                                                       kLeafBits);
  // Pages are anonymous mappings of their own: a new page reads as zeros
  // and each 4 KiB unit becomes resident only when first written, so an
  // image page costs memory only where its data segments lie.
  struct PageUnmap {
    void operator()(std::uint8_t* page) const noexcept;
  };
  using PageBuf = std::unique_ptr<std::uint8_t[], PageUnmap>;

  // `read` is the mapped page (image or private); `own` is set only for a
  // private page, and then read == own.get().
  struct Entry {
    const std::uint8_t* read = nullptr;
    PageBuf own;
  };
  using Leaf = std::array<Entry, kLeafEntries>;

  // Unallocated root slots point here, so the fast paths never test for a
  // missing leaf. Never written: writable_page() allocates a leaf first.
  static Leaf empty_leaf_;

  [[nodiscard]] const Entry& entry(std::uint32_t index) const {
    return (*root_[index >> kLeafBits])[index & (kLeafEntries - 1)];
  }
  Entry& entry(std::uint32_t index) {
    return (*root_[index >> kLeafBits])[index & (kLeafEntries - 1)];
  }

  std::uint8_t* writable_page(std::uint32_t index) {
    std::uint8_t* p = entry(index).own.get();
    if (p == nullptr) [[unlikely]]
      p = make_private(index);
    return p;
  }
  // Copy-on-write: give page `index` a private copy (zeroes if unmapped).
  std::uint8_t* make_private(std::uint32_t index);
  Entry& entry_for_map(std::uint32_t index);  // allocates the leaf
  // A page from the free list, else a new zero page; `zeroed` clears a
  // recycled one.
  PageBuf take_page(bool zeroed);

  std::array<Leaf*, kRootEntries> root_;
  std::vector<std::unique_ptr<Leaf>> leaves_;
  std::vector<std::uint32_t> mapped_;  // page indices with an entry, any order
  std::shared_ptr<const MemoryImage> image_;
  std::vector<PageBuf> free_;  // released private pages, reused by COW
  std::size_t owned_pages_ = 0;  // private + free
};

// An immutable initial data image: the pages of a staging memory, frozen.
// Contexts map its pages copy-on-write (MainMemory::reset_to), so one
// image serves every context running a program, on any thread. It holds
// only its pages, in index order — no page table of its own.
class MemoryImage {
 public:
  // Takes `staging`'s pages (copying any it maps from an older image) and
  // leaves it empty.
  explicit MemoryImage(MainMemory&& staging);

  // The bytes backing `addr`'s page, or nullptr when the image lacks it.
  [[nodiscard]] const std::uint8_t* page_data(std::uint32_t addr) const;
  // The little-endian word at `addr` (0 outside the image; 4-aligned,
  // at or above kGuardLimit, like MainMemory::peek_u32).
  [[nodiscard]] std::uint32_t peek_u32(std::uint32_t addr) const;
  // Equals the fingerprint() of a MainMemory reset to this image.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  friend class MainMemory;
  struct Page {
    std::uint32_t index;
    MainMemory::PageBuf bytes;
  };
  std::vector<Page> pages_;  // ascending index
};

}  // namespace vexsim
