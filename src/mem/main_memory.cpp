#include "mem/main_memory.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <ios>
#include <new>
#include <utility>

namespace vexsim {

MainMemory::Leaf MainMemory::empty_leaf_{};

MainMemory::MainMemory() { root_.fill(&empty_leaf_); }

MainMemory::MainMemory(const MainMemory& other) : MainMemory() {
  image_ = other.image_;
  mapped_ = other.mapped_;
  for (const std::uint32_t index : other.mapped_) {
    const Entry& src = other.entry(index);
    Entry& dst = entry_for_map(index);
    if (src.own == nullptr) {
      dst.read = src.read;  // shared image page
      continue;
    }
    PageBuf page = take_page(false);
    std::memcpy(page.get(), src.read, kPageSize);
    dst.read = page.get();
    dst.own = std::move(page);
  }
}

void MainMemory::swap(MainMemory& other) noexcept {
  root_.swap(other.root_);
  leaves_.swap(other.leaves_);
  mapped_.swap(other.mapped_);
  image_.swap(other.image_);
  free_.swap(other.free_);
  std::swap(owned_pages_, other.owned_pages_);
}

MainMemory::Entry& MainMemory::entry_for_map(std::uint32_t index) {
  Leaf*& leaf = root_[index >> kLeafBits];
  if (leaf == &empty_leaf_) {
    leaves_.push_back(std::make_unique<Leaf>());
    leaf = leaves_.back().get();
  }
  return (*leaf)[index & (kLeafEntries - 1)];
}

void MainMemory::PageUnmap::operator()(std::uint8_t* page) const noexcept {
  ::munmap(page, kPageSize);
}

MainMemory::PageBuf MainMemory::take_page(bool zeroed) {
  if (!free_.empty()) {
    PageBuf page = std::move(free_.back());
    free_.pop_back();
    if (zeroed) std::memset(page.get(), 0, kPageSize);
    return page;
  }
  void* mem = ::mmap(nullptr, kPageSize, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  PageBuf page(static_cast<std::uint8_t*>(mem));
  // Room for every page this memory owns, so reset_to() can park them all
  // without allocating.
  if (free_.capacity() < ++owned_pages_) free_.reserve(2 * owned_pages_);
  return page;
}

std::uint8_t* MainMemory::make_private(std::uint32_t index) {
  Entry& e = entry_for_map(index);
  PageBuf page = take_page(e.read == nullptr);
  if (e.read != nullptr)
    std::memcpy(page.get(), e.read, kPageSize);  // copy-on-write
  else
    mapped_.push_back(index);
  e.read = page.get();
  e.own = std::move(page);
  return e.own.get();
}

void MainMemory::reset_to(const std::shared_ptr<const MemoryImage>& image) {
  for (const std::uint32_t index : mapped_) {
    Entry& e = entry(index);
    if (e.own != nullptr) free_.push_back(std::move(e.own));
    e.read = nullptr;
  }
  mapped_.clear();
  if (image_ != image) image_ = image;
  if (image == nullptr) return;
  for (const MemoryImage::Page& page : image->pages_) {
    entry_for_map(page.index).read = page.bytes.get();
    mapped_.push_back(page.index);
  }
}

void MainMemory::poke_bytes(std::uint32_t addr, const std::uint8_t* bytes,
                            std::size_t n) {
  VEXSIM_CHECK_MSG(n <= (std::uint64_t{1} << 32) - addr,
                   "poke of " << n << " bytes at 0x" << std::hex << addr
                              << " passes the end of the address space");
  // Copy page-sized runs: one page-table walk per 64 KiB, not per byte.
  std::size_t i = 0;
  while (i < n) {
    const std::uint32_t a = addr + static_cast<std::uint32_t>(i);
    std::uint8_t* p = writable_page(a >> kPageBits);
    const std::uint32_t off = a & (kPageSize - 1);
    const std::size_t run =
        std::min(n - i, static_cast<std::size_t>(kPageSize - off));
    std::memcpy(p + off, bytes + i, run);
    i += run;
  }
}

void MainMemory::poke_u32(std::uint32_t addr, std::uint32_t value) {
  const std::uint8_t bytes[4] = {
      static_cast<std::uint8_t>(value), static_cast<std::uint8_t>(value >> 8),
      static_cast<std::uint8_t>(value >> 16),
      static_cast<std::uint8_t>(value >> 24)};
  poke_bytes(addr, bytes, 4);
}

std::uint32_t MainMemory::peek_u32(std::uint32_t addr) const {
  std::uint32_t v = 0;
  if (load(addr, 4, v)) return v;
  return 0;
}

std::size_t MainMemory::private_pages() const {
  return static_cast<std::size_t>(
      std::count_if(mapped_.begin(), mapped_.end(), [this](std::uint32_t i) {
        return entry(i).own != nullptr;
      }));
}

namespace {

// FNV-1a over (page index, page contents), fed pages in index order.
class PageDigest {
 public:
  void add(std::uint32_t index, const std::uint8_t* page) {
    // All-zero pages read the same as unmapped ones and don't count.
    if (std::all_of(page, page + MainMemory::kPageSize,
                    [](std::uint8_t b) { return b == 0; }))
      return;
    mix(static_cast<std::uint8_t>(index));
    mix(static_cast<std::uint8_t>(index >> 8));
    mix(static_cast<std::uint8_t>(index >> 16));
    mix(static_cast<std::uint8_t>(index >> 24));
    for (std::uint32_t i = 0; i < MainMemory::kPageSize; ++i) mix(page[i]);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace

std::uint64_t MainMemory::fingerprint() const {
  PageDigest digest;
  for (std::uint32_t hi = 0; hi < kRootEntries; ++hi) {
    const Leaf* leaf = root_[hi];
    if (leaf == &empty_leaf_) continue;
    for (std::uint32_t lo = 0; lo < kLeafEntries; ++lo)
      if (const std::uint8_t* page = (*leaf)[lo].read; page != nullptr)
        digest.add((hi << kLeafBits) | lo, page);
  }
  return digest.value();
}

MemoryImage::MemoryImage(MainMemory&& staging) {
  std::vector<std::uint32_t> indices;
  indices.swap(staging.mapped_);
  std::sort(indices.begin(), indices.end());
  pages_.reserve(indices.size());
  for (const std::uint32_t index : indices) {
    MainMemory::Entry& e = staging.entry(index);
    MainMemory::PageBuf bytes = std::move(e.own);
    if (bytes == nullptr) {  // still the older image's page
      bytes = staging.take_page(false);
      std::memcpy(bytes.get(), e.read, MainMemory::kPageSize);
    }
    e.read = nullptr;
    --staging.owned_pages_;
    pages_.push_back({index, std::move(bytes)});
  }
  staging.clear();
}

const std::uint8_t* MemoryImage::page_data(std::uint32_t addr) const {
  const std::uint32_t index = addr >> MainMemory::kPageBits;
  const auto it = std::lower_bound(
      pages_.begin(), pages_.end(), index,
      [](const Page& p, std::uint32_t i) { return p.index < i; });
  return it != pages_.end() && it->index == index ? it->bytes.get() : nullptr;
}

std::uint32_t MemoryImage::peek_u32(std::uint32_t addr) const {
  const std::uint8_t* p = page_data(addr);
  if (p == nullptr || addr < MainMemory::kGuardLimit || (addr & 3) != 0)
    return 0;
  const std::uint32_t off = addr & (MainMemory::kPageSize - 1);
  return static_cast<std::uint32_t>(p[off]) |
         static_cast<std::uint32_t>(p[off + 1]) << 8 |
         static_cast<std::uint32_t>(p[off + 2]) << 16 |
         static_cast<std::uint32_t>(p[off + 3]) << 24;
}

std::uint64_t MemoryImage::fingerprint() const {
  PageDigest digest;
  for (const Page& page : pages_) digest.add(page.index, page.bytes.get());
  return digest.value();
}

}  // namespace vexsim
