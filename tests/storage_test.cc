// The out-of-core storage layer: page-store roundtrips (memory and disk),
// overflow chains, freelist reuse, restart persistence, the corruption
// idiom extended to the page file (torn writes, truncation, bit flips,
// bad magic — always a clean Status, never UB), the buffer pool's hit/
// miss/eviction accounting under both policies, and the paged index's
// bit-for-bit equivalence with its in-memory twin.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "geometry/box.h"
#include "index/access.h"
#include "index/record.h"
#include "storage/buffer_pool.h"
#include "storage/disk_storage.h"
#include "storage/memory_storage.h"
#include "storage/pool_warmer.h"
#include "storage/storage_manager.h"

namespace mars::storage {
namespace {

std::vector<uint8_t> Bytes(size_t n, uint8_t seed) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(seed + i * 31);
  }
  return data;
}

// `name` under the test temp dir with this process's id appended, so two
// copies of this binary running at once (say, two sanitizer builds)
// never share a file.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "." + std::to_string(getpid());
}

// --- Manager roundtrips (shared across implementations) -----------------

void RoundTrip(IStorageManager* mgr) {
  // Fresh store, single-page array.
  PageId a = kInvalidPage;
  const std::vector<uint8_t> small = Bytes(40, 1);
  ASSERT_TRUE(mgr->Store(&a, small).ok());
  ASSERT_NE(a, kInvalidPage);
  std::vector<uint8_t> out;
  ASSERT_TRUE(mgr->Load(a, &out).ok());
  EXPECT_EQ(out, small);

  // Overflow chain: an array much larger than one page payload.
  PageId b = kInvalidPage;
  const std::vector<uint8_t> big = Bytes(5000, 2);
  ASSERT_TRUE(mgr->Store(&b, big).ok());
  ASSERT_TRUE(mgr->Load(b, &out).ok());
  EXPECT_EQ(out, big);

  // In-place rewrite, growing and shrinking the chain.
  const std::vector<uint8_t> grown = Bytes(9000, 3);
  ASSERT_TRUE(mgr->Store(&a, grown).ok());
  ASSERT_TRUE(mgr->Load(a, &out).ok());
  EXPECT_EQ(out, grown);
  const std::vector<uint8_t> shrunk = Bytes(10, 4);
  ASSERT_TRUE(mgr->Store(&a, shrunk).ok());
  ASSERT_TRUE(mgr->Load(a, &out).ok());
  EXPECT_EQ(out, shrunk);
  // The other array is untouched by a's rewrites.
  ASSERT_TRUE(mgr->Load(b, &out).ok());
  EXPECT_EQ(out, big);

  // Empty arrays are legal.
  PageId c = kInvalidPage;
  ASSERT_TRUE(mgr->Store(&c, {}).ok());
  ASSERT_TRUE(mgr->Load(c, &out).ok());
  EXPECT_TRUE(out.empty());

  // Erase frees; loading a freed id is a clean error.
  ASSERT_TRUE(mgr->Erase(b).ok());
  EXPECT_FALSE(mgr->Load(b, &out).ok());
  EXPECT_FALSE(mgr->Erase(b).ok());

  // Root bookkeeping.
  EXPECT_EQ(mgr->root(), kInvalidPage);
  ASSERT_TRUE(mgr->SetRoot(a).ok());
  EXPECT_EQ(mgr->root(), a);
}

TEST(MemoryStorageTest, RoundTrip) {
  MemoryStorageManager mgr(256);
  RoundTrip(&mgr);
  EXPECT_STREQ(mgr.name(), "memory");
}

TEST(DiskStorageTest, RoundTrip) {
  const std::string path = TempPath("storage_roundtrip.pages");
  std::remove(path.c_str());
  auto mgr = DiskStorageManager::Open(path, 256, /*truncate=*/true);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  RoundTrip(mgr.value().get());
  EXPECT_STREQ((*mgr)->name(), "disk");
  EXPECT_FALSE((*mgr)->opened_existing());
  std::remove(path.c_str());
}

TEST(MemoryStorageTest, FreelistReusesLowestId) {
  MemoryStorageManager mgr(256);
  PageId a = kInvalidPage, b = kInvalidPage, c = kInvalidPage;
  ASSERT_TRUE(mgr.Store(&a, Bytes(10, 1)).ok());
  ASSERT_TRUE(mgr.Store(&b, Bytes(10, 2)).ok());
  ASSERT_TRUE(mgr.Store(&c, Bytes(10, 3)).ok());
  ASSERT_TRUE(mgr.Erase(a).ok());
  ASSERT_TRUE(mgr.Erase(b).ok());
  PageId d = kInvalidPage;
  ASSERT_TRUE(mgr.Store(&d, Bytes(10, 4)).ok());
  EXPECT_EQ(d, std::min(a, b));  // lowest freed id is reused first
  EXPECT_EQ(mgr.stats().pages_freed, 2);
}

TEST(DiskStorageTest, FreedPagesAreReusedNotAppended) {
  const std::string path = TempPath("storage_freelist.pages");
  std::remove(path.c_str());
  auto mgr = DiskStorageManager::Open(path, 256, /*truncate=*/true);
  ASSERT_TRUE(mgr.ok());
  // A multi-page chain, freed, must be fully recycled by the next chain.
  PageId a = kInvalidPage;
  ASSERT_TRUE((*mgr)->Store(&a, Bytes(2000, 1)).ok());
  const int64_t pages_after_first = (*mgr)->page_count();
  ASSERT_TRUE((*mgr)->Erase(a).ok());
  PageId b = kInvalidPage;
  ASSERT_TRUE((*mgr)->Store(&b, Bytes(2000, 2)).ok());
  EXPECT_EQ((*mgr)->page_count(), pages_after_first);
  std::remove(path.c_str());
}

// --- Disk persistence across close/reopen -------------------------------

TEST(DiskStorageTest, SurvivesCloseAndReopen) {
  const std::string path = TempPath("storage_reopen.pages");
  std::remove(path.c_str());
  const std::vector<uint8_t> payload = Bytes(3000, 7);
  PageId id = kInvalidPage;
  {
    auto mgr = DiskStorageManager::Open(path, 512, /*truncate=*/true);
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE((*mgr)->Store(&id, payload).ok());
    ASSERT_TRUE((*mgr)->SetRoot(id).ok());
    ASSERT_TRUE((*mgr)->Flush().ok());
  }  // destructor closes the file
  auto reopened = DiskStorageManager::Open(path, 512);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->opened_existing());
  EXPECT_EQ((*reopened)->root(), id);
  std::vector<uint8_t> out;
  ASSERT_TRUE((*reopened)->Load(id, &out).ok());
  EXPECT_EQ(out, payload);
  std::remove(path.c_str());
}

TEST(DiskStorageTest, ReopenTakesPageSizeFromFile) {
  const std::string path = TempPath("storage_pagesize.pages");
  std::remove(path.c_str());
  {
    auto mgr = DiskStorageManager::Open(path, 512, /*truncate=*/true);
    ASSERT_TRUE(mgr.ok());
    PageId id = kInvalidPage;
    ASSERT_TRUE((*mgr)->Store(&id, Bytes(100, 1)).ok());
  }
  // A different requested size attaches at the stored size instead.
  auto reopened = DiskStorageManager::Open(path, 4096);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->page_size(), 512);
  std::remove(path.c_str());
}

// --- Corruption: clean errors, never UB ---------------------------------

class DiskCorruptionTest : public ::testing::Test {
 protected:
  static constexpr int32_t kPageSize = 256;

  void SetUp() override {
    path_ = TempPath("storage_corrupt.pages");
    std::remove(path_.c_str());
    auto mgr = DiskStorageManager::Open(path_, kPageSize, /*truncate=*/true);
    ASSERT_TRUE(mgr.ok());
    id_ = kInvalidPage;
    ASSERT_TRUE((*mgr)->Store(&id_, Bytes(900, 5)).ok());
    ASSERT_TRUE((*mgr)->SetRoot(id_).ok());
    ASSERT_TRUE((*mgr)->Flush().ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Reads the page file back. The tests flip and cut its bytes by
  // index, so it must hold at least one page.
  void ReadFile(std::vector<uint8_t>* bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    bytes->resize(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes->data(), 1, bytes->size(), f), bytes->size());
    std::fclose(f);
    ASSERT_GE(bytes->size(), static_cast<size_t>(kPageSize));
  }

  void WriteFile(const std::vector<uint8_t>& bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // An empty vector's data() may be null, which fwrite must not get.
    if (!bytes.empty()) {
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    }
    std::fclose(f);
  }

  // Flips header byte `pos`, then opens the file twice. Both opens must
  // fail, and neither may write to the file: a rejected store stays as
  // it was, so it is rejected again rather than reset to an empty one.
  void ExpectHeaderFlipRejectedUntouched(size_t pos) {
    std::vector<uint8_t> bytes;
    ASSERT_NO_FATAL_FAILURE(ReadFile(&bytes));
    bytes[pos] ^= 0xFF;
    WriteFile(bytes);
    for (int attempt = 0; attempt < 2; ++attempt) {
      EXPECT_FALSE(DiskStorageManager::Open(path_, kPageSize).ok())
          << "open " << attempt;
      std::vector<uint8_t> after;
      ASSERT_NO_FATAL_FAILURE(ReadFile(&after));
      EXPECT_EQ(after, bytes) << "open " << attempt << " wrote the file";
    }
  }

  std::string path_;
  PageId id_ = kInvalidPage;
};

TEST_F(DiskCorruptionTest, TruncatedFileFailsCleanly) {
  std::vector<uint8_t> full;
  ASSERT_NO_FATAL_FAILURE(ReadFile(&full));
  // Every truncation point (sampled): either Open fails, or Open attaches
  // to the surviving prefix and the torn chain fails at Load — never a
  // crash, never garbage data returned as success.
  for (size_t len = 0; len < full.size(); len += 1 + full.size() / 64) {
    WriteFile(std::vector<uint8_t>(full.begin(), full.begin() + len));
    auto mgr = DiskStorageManager::Open(path_, kPageSize);
    if (!mgr.ok()) continue;
    std::vector<uint8_t> out;
    const auto status = (*mgr)->Load(id_, &out);
    if (status.ok()) {
      EXPECT_EQ(out, Bytes(900, 5)) << "torn read returned wrong data";
    }
  }
}

TEST_F(DiskCorruptionTest, BitFlipsSurfaceAsChecksumErrors) {
  std::vector<uint8_t> full;
  ASSERT_NO_FATAL_FAILURE(ReadFile(&full));
  common::Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes = full;
    const size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<int>(bytes.size() - 1)));
    bytes[pos] ^= static_cast<uint8_t>(1u << (trial % 8));
    WriteFile(bytes);
    auto mgr = DiskStorageManager::Open(path_, kPageSize);
    if (!mgr.ok()) continue;  // header flip: rejected at open
    std::vector<uint8_t> out;
    const auto status = (*mgr)->Load(id_, &out);
    if (status.ok()) {
      // A flip in an unused slot or freed region may leave the chain
      // intact — but then the data must be exactly right.
      EXPECT_EQ(out, Bytes(900, 5)) << "flip at " << pos << " parsed wrong";
    }
  }
}

TEST_F(DiskCorruptionTest, BadMagicRejectedAtOpen) {
  ExpectHeaderFlipRejectedUntouched(0);  // magic
}

TEST_F(DiskCorruptionTest, BadVersionRejectedAtOpen) {
  ExpectHeaderFlipRejectedUntouched(8);  // version
}

TEST_F(DiskCorruptionTest, BadHeaderChecksumRejectedAtOpen) {
  ExpectHeaderFlipRejectedUntouched(16);  // root, which the checksum covers
}

TEST_F(DiskCorruptionTest, TornPayloadWriteFailsTheLoad) {
  // Simulate a torn write: zero the tail of the last page (checksum and
  // header survive, payload does not).
  std::vector<uint8_t> bytes;
  ASSERT_NO_FATAL_FAILURE(ReadFile(&bytes));
  for (size_t i = bytes.size() - 64; i < bytes.size(); ++i) {
    bytes[i] = 0;
  }
  WriteFile(bytes);
  auto mgr = DiskStorageManager::Open(path_, kPageSize);
  ASSERT_TRUE(mgr.ok());  // header is fine
  std::vector<uint8_t> out;
  EXPECT_FALSE((*mgr)->Load(id_, &out).ok());
}

TEST(DiskStorageTest, LoadOfInvalidIdsFailsCleanly) {
  const std::string path = TempPath("storage_badid.pages");
  std::remove(path.c_str());
  auto mgr = DiskStorageManager::Open(path, 256, /*truncate=*/true);
  ASSERT_TRUE(mgr.ok());
  std::vector<uint8_t> out;
  EXPECT_FALSE((*mgr)->Load(kInvalidPage, &out).ok());
  EXPECT_FALSE((*mgr)->Load(0, &out).ok());    // never allocated
  EXPECT_FALSE((*mgr)->Load(999, &out).ok());  // beyond the file
  EXPECT_FALSE((*mgr)->Erase(999).ok());
  std::remove(path.c_str());
}

// --- Page files against a frozen stdio writer ----------------------------

// The page writer DiskStorageManager had while it went through stdio,
// frozen: every page built by two ByteWriters, every access positioned
// with fseek on a FILE*, the header rewritten by SetRoot, Flush and
// close. Chains live in a map here instead of being read back from the
// file, which changes no byte it writes.
class FrozenStdioPageWriter {
 public:
  FrozenStdioPageWriter(const std::string& path, int32_t page_size)
      : page_size_(page_size), file_(std::fopen(path.c_str(), "wb+")) {
    if (file_ == nullptr) return;
    WriteHeader();
    std::fflush(file_);
  }
  ~FrozenStdioPageWriter() {
    if (file_ == nullptr) return;
    WriteHeader();
    std::fflush(file_);
    std::fclose(file_);
  }

  bool ok() const { return file_ != nullptr; }

  // Store(&id, data) of the manager: `id` kInvalidPage allocates.
  PageId Store(PageId id, const std::vector<uint8_t>& data) {
    const int64_t capacity = page_size_ - 24;
    const int64_t pages_needed = std::max<int64_t>(
        1, (static_cast<int64_t>(data.size()) + capacity - 1) / capacity);
    std::vector<PageId> chain;
    if (id != kInvalidPage) {
      chain = chains_.at(id);
      chains_.erase(id);
      while (static_cast<int64_t>(chain.size()) > pages_needed) {
        FreePage(chain.back());
        chain.pop_back();
      }
    }
    while (static_cast<int64_t>(chain.size()) < pages_needed) {
      if (!freelist_.empty()) {
        chain.push_back(*freelist_.begin());
        freelist_.erase(freelist_.begin());
      } else {
        chain.push_back(page_count_++);
      }
    }
    for (int64_t i = 0; i < pages_needed; ++i) {
      const int64_t begin = i * capacity;
      const int64_t end = std::min<int64_t>(begin + capacity,
                                            static_cast<int64_t>(data.size()));
      const uint32_t flags = 1u | (i == 0 ? 2u : 0u);
      const PageId next = i + 1 < pages_needed ? chain[i + 1] : kInvalidPage;
      WritePage(chain[i], flags, next, data.data() + begin,
                static_cast<uint32_t>(end - begin));
    }
    chains_[chain[0]] = chain;
    return chain[0];
  }

  void Erase(PageId id) {
    for (const PageId page : chains_.at(id)) FreePage(page);
    chains_.erase(id);
  }

  void SetRoot(PageId id) {
    root_ = id;
    WriteHeader();
  }

  void Flush() {
    WriteHeader();
    std::fflush(file_);
  }

 private:
  void WriteHeader() {
    common::ByteWriter w;
    w.WriteU64(0x3145474150535244ull);
    w.WriteU32(1);
    w.WriteU32(static_cast<uint32_t>(page_size_));
    w.WriteI64(root_);
    std::vector<uint8_t> buf = std::move(w).Take();
    buf.resize(56, 0);
    const uint64_t checksum = Fnv1a64(buf.data(), buf.size());
    common::ByteWriter tail;
    tail.WriteU64(checksum);
    buf.insert(buf.end(), tail.buffer().begin(), tail.buffer().end());
    std::fseek(file_, 0, SEEK_SET);
    std::fwrite(buf.data(), 1, buf.size(), file_);
  }

  void FreePage(PageId id) {
    std::vector<uint8_t> head(24, 0);
    std::fseek(file_, static_cast<long>(64 + id * page_size_), SEEK_SET);
    std::fwrite(head.data(), 1, head.size(), file_);
    freelist_.insert(id);
  }

  void WritePage(PageId id, uint32_t flags, PageId next,
                 const uint8_t* payload, uint32_t payload_len) {
    common::ByteWriter w;
    w.WriteU32(flags);
    w.WriteU32(payload_len);
    w.WriteI64(next);
    std::vector<uint8_t> body = std::move(w).Take();
    body.insert(body.end(), payload, payload + payload_len);
    const uint64_t checksum = Fnv1a64(body.data(), body.size());
    common::ByteWriter page;
    page.WriteU64(checksum);
    std::vector<uint8_t> buf = std::move(page).Take();
    buf.insert(buf.end(), body.begin(), body.end());
    buf.resize(page_size_, 0);
    std::fseek(file_, static_cast<long>(64 + id * page_size_), SEEK_SET);
    std::fwrite(buf.data(), 1, buf.size(), file_);
  }

  const int32_t page_size_;
  std::FILE* const file_;
  int64_t page_count_ = 0;
  std::set<PageId> freelist_;
  PageId root_ = kInvalidPage;
  std::map<PageId, std::vector<PageId>> chains_;  // by head id
};

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  uint8_t chunk[4096];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  std::fclose(f);
  return bytes;
}

TEST(DiskStorageTest, PageFilesEqualTheFrozenStdioWriter) {
  constexpr int32_t kPageSize = 256;  // 232-byte payloads
  const std::string path = TempPath("storage_pages_new.pages");
  const std::string frozen_path = TempPath("storage_pages_frozen.pages");
  common::Rng rng(61);
  {
    auto mgr = DiskStorageManager::Open(path, kPageSize, /*truncate=*/true);
    ASSERT_TRUE(mgr.ok());
    FrozenStdioPageWriter frozen(frozen_path, kPageSize);
    ASSERT_TRUE(frozen.ok());
    std::vector<PageId> heads;
    int flushes = 0;
    for (int step = 0; step < 600; ++step) {
      const int64_t op = heads.empty() ? 0 : rng.UniformInt(0, 9);
      // Payloads of 0 to 3.5 pages, so chains grow and shrink.
      const std::vector<uint8_t> data =
          Bytes(static_cast<size_t>(rng.UniformInt(0, 812)),
                static_cast<uint8_t>(step));
      if (op <= 3) {
        PageId id = kInvalidPage;
        ASSERT_TRUE((*mgr)->Store(&id, data).ok());
        ASSERT_EQ(frozen.Store(kInvalidPage, data), id);
        heads.push_back(id);
      } else if (op <= 5) {
        PageId id = heads[rng.UniformInt(0, heads.size() - 1)];
        const PageId before = id;
        ASSERT_TRUE((*mgr)->Store(&id, data).ok());  // in-place rewrite
        ASSERT_EQ(id, before);
        frozen.Store(id, data);
      } else if (op <= 7) {
        const size_t k = rng.UniformInt(0, heads.size() - 1);
        ASSERT_TRUE((*mgr)->Erase(heads[k]).ok());
        frozen.Erase(heads[k]);
        heads.erase(heads.begin() + k);
      } else if (op == 8) {
        const PageId root = heads[rng.UniformInt(0, heads.size() - 1)];
        ASSERT_TRUE((*mgr)->SetRoot(root).ok());
        frozen.SetRoot(root);
      } else {
        ASSERT_TRUE((*mgr)->Flush().ok());
        frozen.Flush();
        ++flushes;
        ASSERT_EQ(FileBytes(path), FileBytes(frozen_path)) << "step " << step;
      }
    }
    EXPECT_GT(flushes, 10);
    EXPECT_GT((*mgr)->page_count(), 100);
  }  // both close, rewriting their headers
  const std::vector<uint8_t> bytes = FileBytes(path);
  EXPECT_GT(bytes.size(), 100u * kPageSize);
  EXPECT_EQ(bytes, FileBytes(frozen_path));
  std::remove(path.c_str());
  std::remove(frozen_path.c_str());
}

TEST_F(DiskCorruptionTest, TruncationUnderAnOpenStoreFailsTheRead) {
  // The file loses its last page while the store is open: every page
  // read goes to the file, so the read of that page comes back short. (A
  // stdio stream could serve it from its read buffer instead.)
  std::vector<uint8_t> full;
  ASSERT_NO_FATAL_FAILURE(ReadFile(&full));
  auto mgr = DiskStorageManager::Open(path_, kPageSize);
  ASSERT_TRUE(mgr.ok());
  WriteFile(std::vector<uint8_t>(full.begin(), full.end() - kPageSize));
  std::vector<uint8_t> out;
  const common::Status status = (*mgr)->Load(id_, &out);
  EXPECT_EQ(status.code(), common::StatusCode::kInternal);
  EXPECT_EQ(status.message(), "disk store: truncated page read in " + path_);
}

TEST_F(DiskCorruptionTest, TruncationAndFlipsReturnTheirStatuses) {
  std::vector<uint8_t> full;
  ASSERT_NO_FATAL_FAILURE(ReadFile(&full));
  ASSERT_EQ(full.size(), 64u + 4 * kPageSize);  // a 4-page chain, head 0
  std::vector<uint8_t> out;

  // Cut by a page, the file holds three pages, and the four-page chain
  // outruns them.
  WriteFile(std::vector<uint8_t>(full.begin(), full.end() - kPageSize));
  {
    auto mgr = DiskStorageManager::Open(path_, kPageSize);
    ASSERT_TRUE(mgr.ok());
    EXPECT_EQ((*mgr)->page_count(), 3);
    const common::Status status = (*mgr)->Load(id_, &out);
    EXPECT_EQ(status.code(), common::StatusCode::kInternal);
    EXPECT_EQ(status.message(), "disk store: page chain cycle");
  }
  // Cut to the header alone, the root page is gone.
  WriteFile(std::vector<uint8_t>(full.begin(), full.begin() + 64));
  EXPECT_EQ(DiskStorageManager::Open(path_, kPageSize).status().message(),
            "disk store: root page not in use in " + path_);
  // Half a header.
  WriteFile(std::vector<uint8_t>(full.begin(), full.begin() + 32));
  EXPECT_EQ(DiskStorageManager::Open(path_, kPageSize).status().message(),
            "disk store: truncated header in " + path_);

  // One flipped payload byte in the second page.
  std::vector<uint8_t> flipped = full;
  flipped[64 + kPageSize + 24 + 5] ^= 0x10;
  WriteFile(flipped);
  {
    auto mgr = DiskStorageManager::Open(path_, kPageSize);
    ASSERT_TRUE(mgr.ok());
    const common::Status status = (*mgr)->Load(id_, &out);
    EXPECT_EQ(status.code(), common::StatusCode::kInternal);
    EXPECT_EQ(status.message(),
              "disk store: page checksum mismatch in " + path_);
  }
  // A payload length past the page.
  std::vector<uint8_t> long_len = full;
  long_len[64 + 12 + 1] = 0xFF;
  WriteFile(long_len);
  {
    auto mgr = DiskStorageManager::Open(path_, kPageSize);
    ASSERT_TRUE(mgr.ok());
    const common::Status status = (*mgr)->Load(id_, &out);
    EXPECT_EQ(status.code(), common::StatusCode::kInternal);
    EXPECT_EQ(status.message(), "disk store: corrupt payload length");
  }
  // The untouched file still loads.
  WriteFile(full);
  auto mgr = DiskStorageManager::Open(path_, kPageSize);
  ASSERT_TRUE(mgr.ok());
  ASSERT_TRUE((*mgr)->Load(id_, &out).ok());
  EXPECT_EQ(out, Bytes(900, 5));
}

// --- BufferPool ---------------------------------------------------------

TEST(BufferPoolTest, CountsHitsMissesAndWritesThrough) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/8, EvictPolicy::kLru);

  PageId a = kInvalidPage;
  ASSERT_TRUE(pool.Store(&a, Bytes(64, 1)).ok());
  EXPECT_EQ(pool.stats().disk_writes, 1);

  // Stored arrays are resident: first fetch is already a hit.
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Fetch(a, &out).ok());
  EXPECT_EQ(out, Bytes(64, 1));
  EXPECT_EQ(pool.stats().hits, 1);
  EXPECT_EQ(pool.stats().misses, 0);

  // A cold array (written behind the pool's back) misses, then hits.
  PageId b = kInvalidPage;
  ASSERT_TRUE(mgr.Store(&b, Bytes(64, 2)).ok());
  ASSERT_TRUE(pool.Fetch(b, &out).ok());
  EXPECT_EQ(pool.stats().misses, 1);
  EXPECT_EQ(pool.stats().disk_reads, 1);
  ASSERT_TRUE(pool.Fetch(b, &out).ok());
  EXPECT_EQ(pool.stats().hits, 2);
  EXPECT_EQ(pool.stats().disk_reads, 1);
}

TEST(BufferPoolTest, EvictsLruWhenOverCapacity) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/2, EvictPolicy::kLru);
  PageId a = kInvalidPage, b = kInvalidPage, c = kInvalidPage;
  ASSERT_TRUE(pool.Store(&a, Bytes(64, 1)).ok());
  ASSERT_TRUE(pool.Store(&b, Bytes(64, 2)).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Fetch(a, &out).ok());  // refresh a; b is now LRU
  ASSERT_TRUE(pool.Store(&c, Bytes(64, 3)).ok());
  EXPECT_EQ(pool.stats().evictions, 1);
  EXPECT_EQ(pool.stats().resident_pages, 2);

  // b was evicted: fetching it again is a miss; a stayed resident.
  const int64_t misses = pool.stats().misses;
  ASSERT_TRUE(pool.Fetch(a, &out).ok());
  EXPECT_EQ(pool.stats().misses, misses);
  ASSERT_TRUE(pool.Fetch(b, &out).ok());
  EXPECT_EQ(pool.stats().misses, misses + 1);
}

TEST(BufferPoolTest, MotionPolicyKeepsHighInterestPages) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/2, EvictPolicy::kMotion);

  // Two pages: one in a region the fleet is predicted to visit, one not.
  PageId hot = kInvalidPage, cold = kInvalidPage;
  ASSERT_TRUE(pool.Store(&hot, Bytes(64, 1)).ok());
  ASSERT_TRUE(pool.Store(&cold, Bytes(64, 2)).ok());
  pool.SetPageRegion(hot, geometry::MakeBox2(0, 0, 10, 10));
  pool.SetPageRegion(cold, geometry::MakeBox2(90, 90, 100, 100));

  InterestGrid interest;
  interest.space = geometry::MakeBox2(0, 0, 100, 100);
  interest.nx = 10;
  interest.ny = 10;
  interest.score.assign(100, 0.0);
  interest.score[0] = 1.0;  // block containing `hot`'s region
  pool.UpdateInterest(interest);

  // Make `cold` the most recently used; LRU would evict `hot`, the
  // motion policy must evict `cold` anyway (lowest predicted interest).
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Fetch(cold, &out).ok());
  PageId third = kInvalidPage;
  ASSERT_TRUE(pool.Store(&third, Bytes(64, 3)).ok());

  const int64_t misses = pool.stats().misses;
  ASSERT_TRUE(pool.Fetch(hot, &out).ok());
  EXPECT_EQ(pool.stats().misses, misses) << "hot page was evicted";
  ASSERT_TRUE(pool.Fetch(cold, &out).ok());
  EXPECT_EQ(pool.stats().misses, misses + 1) << "cold page survived";
}

TEST(BufferPoolTest, EraseDropsResidencyAndFreesStorage) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/8, EvictPolicy::kLru);
  PageId a = kInvalidPage;
  ASSERT_TRUE(pool.Store(&a, Bytes(64, 1)).ok());
  ASSERT_TRUE(pool.Erase(a).ok());
  EXPECT_EQ(pool.stats().resident, 0);
  std::vector<uint8_t> out;
  EXPECT_FALSE(pool.Fetch(a, &out).ok());
}

TEST(InterestGridTest, ScoreRegionAveragesOverlappedBlocks) {
  InterestGrid grid;
  grid.space = geometry::MakeBox2(0, 0, 100, 100);
  grid.nx = 2;
  grid.ny = 2;
  grid.score = {1.0, 0.0, 0.0, 0.0};  // only the lower-left block is hot

  EXPECT_DOUBLE_EQ(grid.ScoreRegion(geometry::MakeBox2(0, 0, 40, 40)), 1.0);
  EXPECT_DOUBLE_EQ(grid.ScoreRegion(geometry::MakeBox2(60, 60, 90, 90)), 0.0);
  // A region spanning all four blocks averages them.
  EXPECT_DOUBLE_EQ(grid.ScoreRegion(geometry::MakeBox2(10, 10, 90, 90)),
                   0.25);
  // Degenerate cases score zero.
  EXPECT_DOUBLE_EQ(InterestGrid().ScoreRegion(geometry::MakeBox2(0, 0, 1, 1)),
                   0.0);
}

TEST(InterestGridTest, RegionsOutsideTheSpaceScoreZero) {
  // Every block is hot, so any block a region is (wrongly) clamped onto
  // would score 1.
  InterestGrid grid;
  grid.space = geometry::MakeBox2(0, 0, 100, 100);
  grid.nx = 2;
  grid.ny = 2;
  grid.score = {1.0, 1.0, 1.0, 1.0};

  EXPECT_EQ(grid.ScoreRegion(geometry::MakeBox2(200, 200, 300, 300)), 0.0);
  EXPECT_TRUE(grid.RangeOf(geometry::MakeBox2(200, 200, 300, 300)).empty());
  // Far enough that t * n leaves the range of int32_t.
  EXPECT_EQ(grid.ScoreRegion(geometry::MakeBox2(1e12, 1e12, 1e12 + 1,
                                                1e12 + 1)),
            0.0);
  EXPECT_EQ(grid.ScoreRegion(geometry::MakeBox2(-1e12, 10, -1e12 + 1, 20)),
            0.0);
  // Missing on one axis is enough.
  EXPECT_EQ(grid.ScoreRegion(geometry::MakeBox2(10, 101, 20, 120)), 0.0);

  // Regions that overlap the space, even at one edge or from far away,
  // keep clamping onto the blocks they overlap.
  EXPECT_EQ(grid.ScoreRegion(geometry::MakeBox2(100, 100, 150, 150)), 1.0);
  const BlockRange corner =
      grid.RangeOf(geometry::MakeBox2(100, 100, 150, 150));
  EXPECT_EQ(corner.i0, 1);
  EXPECT_EQ(corner.i1, 1);
  EXPECT_EQ(corner.j0, 1);
  EXPECT_EQ(corner.j1, 1);
  const BlockRange all =
      grid.RangeOf(geometry::MakeBox2(-1e12, -1e12, 1e12, 1e12));
  EXPECT_EQ(all.i0, 0);
  EXPECT_EQ(all.i1, 1);
  EXPECT_EQ(all.j0, 0);
  EXPECT_EQ(all.j1, 1);
}

// --- Pool warming (storage::PoolWarmer) ---------------------------------

// Stores `n` one-page arrays behind the pool's back (cold) and registers
// each with a region in column i of the grid's bottom row, so page i
// scores `GradedGrid`'s column-i value. Returns the ids.
std::vector<PageId> ColdGradedPages(MemoryStorageManager* mgr,
                                    BufferPool* pool, int n) {
  std::vector<PageId> ids;
  for (int i = 0; i < n; ++i) {
    PageId id = kInvalidPage;
    EXPECT_TRUE(mgr->Store(&id, Bytes(64, static_cast<uint8_t>(i))).ok());
    pool->SetPageRegion(
        id, geometry::MakeBox2(10.0 * i + 1, 1, 10.0 * i + 9, 9));
    ids.push_back(id);
  }
  return ids;
}

// Bottom-row scores decline left to right: column i scores 1 - i/10.
InterestGrid GradedGrid() {
  InterestGrid grid;
  grid.space = geometry::MakeBox2(0, 0, 100, 100);
  grid.nx = 10;
  grid.ny = 10;
  grid.score.assign(100, 0.0);
  for (int i = 0; i < 10; ++i) {
    grid.score[static_cast<size_t>(i)] = 1.0 - 0.1 * i;
  }
  return grid;
}

TEST(PoolWarmerTest, WarmsHottestPagesUpToBudget) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/8, EvictPolicy::kMotion);
  const std::vector<PageId> ids = ColdGradedPages(&mgr, &pool, 5);
  pool.UpdateInterest(GradedGrid());

  PoolWarmer::Options opts;
  opts.budget = 2;
  PoolWarmer warmer(opts);
  warmer.AddPool(&pool);
  warmer.Dispatch();
  warmer.Join();

  // Exactly the budget was issued, and it went to the two hottest pages.
  EXPECT_EQ(pool.stats().prefetch_issued, 2);
  EXPECT_EQ(pool.stats().resident, 2);
  EXPECT_EQ(warmer.active_ticks(), 1);
  std::vector<uint8_t> out;
  const int64_t misses = pool.stats().misses;
  ASSERT_TRUE(pool.Fetch(ids[0], &out).ok());
  EXPECT_EQ(out, Bytes(64, 0));
  ASSERT_TRUE(pool.Fetch(ids[1], &out).ok());
  EXPECT_EQ(pool.stats().misses, misses) << "a warmed page missed";
  EXPECT_EQ(pool.stats().prefetch_hits, 2);
  // A second fetch of a warmed page is an ordinary hit, not a second
  // prefetch hit.
  ASSERT_TRUE(pool.Fetch(ids[0], &out).ok());
  EXPECT_EQ(pool.stats().prefetch_hits, 2);
  // The third-hottest page was not admitted this tick.
  ASSERT_TRUE(pool.Fetch(ids[2], &out).ok());
  EXPECT_EQ(pool.stats().misses, misses + 1);
}

TEST(PoolWarmerTest, InertWithoutAnInterestField) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/8, EvictPolicy::kMotion);
  ColdGradedPages(&mgr, &pool, 4);
  // No UpdateInterest: every candidate scores zero, nothing dispatches.
  PoolWarmer warmer(PoolWarmer::Options{});
  warmer.AddPool(&pool);
  warmer.Dispatch();
  warmer.Join();
  EXPECT_EQ(pool.stats().prefetch_issued, 0);
  EXPECT_EQ(pool.stats().resident, 0);
  EXPECT_EQ(warmer.active_ticks(), 0);
}

TEST(PoolWarmerTest, NeverEvictsAHotterResidentForASpeculativePage) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/1, EvictPolicy::kMotion);
  // The resident page sits in the hottest column; the cold candidate
  // (score 0.4 > 0, so it is dispatched) must be refused at install.
  PageId hot = kInvalidPage;
  ASSERT_TRUE(pool.Store(&hot, Bytes(64, 9)).ok());
  pool.SetPageRegion(hot, geometry::MakeBox2(1, 1, 9, 9));
  PageId cold = kInvalidPage;
  ASSERT_TRUE(mgr.Store(&cold, Bytes(64, 8)).ok());
  pool.SetPageRegion(cold, geometry::MakeBox2(61, 1, 69, 9));
  pool.UpdateInterest(GradedGrid());

  PoolWarmer warmer(PoolWarmer::Options{});
  warmer.AddPool(&pool);
  warmer.Dispatch();
  warmer.Join();
  EXPECT_EQ(pool.stats().prefetch_issued, 1);
  EXPECT_EQ(pool.stats().prefetch_dropped, 1);
  EXPECT_EQ(pool.stats().evictions, 0);
  const int64_t misses = pool.stats().misses;
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Fetch(hot, &out).ok());
  EXPECT_EQ(pool.stats().misses, misses) << "hot resident was evicted";
}

TEST(PoolWarmerTest, EvictsAColderResidentForAHotterSpeculativePage) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/1, EvictPolicy::kMotion);
  // Reverse of the test above: cold resident, hot candidate.
  PageId cold = kInvalidPage;
  ASSERT_TRUE(pool.Store(&cold, Bytes(64, 8)).ok());
  pool.SetPageRegion(cold, geometry::MakeBox2(61, 1, 69, 9));
  PageId hot = kInvalidPage;
  ASSERT_TRUE(mgr.Store(&hot, Bytes(64, 9)).ok());
  pool.SetPageRegion(hot, geometry::MakeBox2(1, 1, 9, 9));
  pool.UpdateInterest(GradedGrid());

  PoolWarmer warmer(PoolWarmer::Options{});
  warmer.AddPool(&pool);
  warmer.Dispatch();
  warmer.Join();
  EXPECT_EQ(pool.stats().prefetch_issued, 1);
  EXPECT_EQ(pool.stats().prefetch_dropped, 0);
  EXPECT_EQ(pool.stats().evictions, 1);
  const int64_t misses = pool.stats().misses;
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Fetch(hot, &out).ok());
  EXPECT_EQ(out, Bytes(64, 9));
  EXPECT_EQ(pool.stats().misses, misses) << "warmed page not resident";
}

TEST(PoolWarmerTest, QueryBeatingThePrefetchDropsTheInstall) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/8, EvictPolicy::kMotion);
  const std::vector<PageId> ids = ColdGradedPages(&mgr, &pool, 1);
  pool.UpdateInterest(GradedGrid());

  PoolWarmer::Options opts;
  opts.budget = 1;
  PoolWarmer warmer(opts);
  warmer.AddPool(&pool);
  warmer.Dispatch();
  // A query fetches the page while its speculative read is in flight:
  // whatever the I/O timing, the install at Join finds it resident and
  // must refuse without touching the bytes or double-counting.
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Fetch(ids[0], &out).ok());
  warmer.Join();
  EXPECT_EQ(pool.stats().prefetch_issued, 1);
  EXPECT_EQ(pool.stats().prefetch_dropped, 1);
  EXPECT_EQ(pool.stats().prefetch_hits, 0);
  ASSERT_TRUE(pool.Fetch(ids[0], &out).ok());
  EXPECT_EQ(out, Bytes(64, 0));
}

TEST(PoolWarmerTest, SpeculativePageEvictedUnusedCountsAsWasted) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/2, EvictPolicy::kMotion);
  // Warm the mildly-hot page 6 (score 0.4), then fault in the two
  // hottest pages: the never-used speculative entry is the coldest
  // resident both times, so it is evicted before any query hits it.
  const std::vector<PageId> ids = ColdGradedPages(&mgr, &pool, 7);
  InterestGrid grid = GradedGrid();
  for (int i = 0; i < 6; ++i) grid.score[static_cast<size_t>(i)] = 0.0;
  pool.UpdateInterest(grid);

  PoolWarmer::Options opts;
  opts.budget = 1;
  PoolWarmer warmer(opts);
  warmer.AddPool(&pool);
  warmer.Dispatch();
  warmer.Join();
  EXPECT_EQ(pool.stats().prefetch_issued, 1);
  EXPECT_EQ(pool.stats().resident, 1);

  pool.UpdateInterest(GradedGrid());  // page 6 is now the coldest
  std::vector<uint8_t> out;
  ASSERT_TRUE(pool.Fetch(ids[0], &out).ok());
  ASSERT_TRUE(pool.Fetch(ids[1], &out).ok());
  EXPECT_EQ(pool.stats().prefetch_wasted, 1);
  EXPECT_EQ(pool.stats().prefetch_hits, 0);
}

TEST(PoolWarmerTest, ConcurrentQueriesDuringSpeculativeReads) {
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/4, EvictPolicy::kMotion);
  const std::vector<PageId> ids = ColdGradedPages(&mgr, &pool, 10);
  pool.UpdateInterest(GradedGrid());

  PoolWarmer::Options opts;
  opts.budget = 4;
  opts.workers = 2;
  PoolWarmer warmer(opts);
  warmer.AddPool(&pool);

  // Production shape: queries only ever overlap the speculative reads
  // (between Dispatch and Join), never the serial install window. TSan
  // runs this file, so any pool/manager race here is caught.
  for (int tick = 0; tick < 8; ++tick) {
    warmer.Join();
    warmer.Dispatch();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&pool, &ids, t] {
        std::vector<uint8_t> out;
        for (int k = 0; k < 8; ++k) {
          const size_t i = static_cast<size_t>(t * 5 + k * 3) % ids.size();
          const common::Status s = pool.Fetch(ids[i], &out);
          EXPECT_TRUE(s.ok());
          EXPECT_EQ(out, Bytes(64, static_cast<uint8_t>(i)));
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  warmer.Join();

  // Whatever the interleaving, every array still reads back intact.
  std::vector<uint8_t> out;
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(pool.Fetch(ids[i], &out).ok());
    EXPECT_EQ(out, Bytes(64, static_cast<uint8_t>(i)));
  }
  EXPECT_GT(pool.stats().prefetch_issued, 0);
}

// --- One access method with and without a buffer pool ------------------

std::vector<index::CoeffRecord> MakeRecords(int objects, int coeffs,
                                            uint64_t seed) {
  common::Rng rng(seed);
  std::vector<index::CoeffRecord> records;
  for (int obj = 0; obj < objects; ++obj) {
    const double cx = rng.Uniform(50, 950);
    const double cy = rng.Uniform(50, 950);
    for (int c = 0; c < coeffs; ++c) {
      index::CoeffRecord rec;
      rec.object_id = obj;
      rec.coeff_id = c;
      rec.w = rng.UniformDouble();
      const double extent = 1.0 + 20.0 * rec.w;
      const double x = cx + rng.Uniform(-25, 25);
      const double y = cy + rng.Uniform(-25, 25);
      rec.position = {x, y, rng.Uniform(0, 20)};
      rec.support_bounds = geometry::MakeBox3(x - extent, y - extent, 0,
                                              x + extent, y + extent, 20);
      records.push_back(rec);
    }
  }
  return records;
}

// Every id of `records`, the id list a whole-table Build indexes.
std::vector<index::RecordId> AllIds(
    const std::vector<index::CoeffRecord>& records) {
  std::vector<index::RecordId> ids(records.size());
  std::iota(ids.begin(), ids.end(), index::RecordId{0});
  return ids;
}

TEST(PagedIndexTest, MatchesMemoryIndexIncludingNodeAccesses) {
  const auto records = MakeRecords(30, 40, 3);
  MemoryStorageManager mgr(1024);
  BufferPool pool(&mgr, /*capacity_pages=*/4096, EvictPolicy::kLru);

  index::SupportRegionIndex memory_index;
  memory_index.Build(records);
  index::SupportRegionIndex paged_index(index::RTreeOptions(), &pool);
  paged_index.Build(records);

  common::Rng rng(17);
  for (int q = 0; q < 40; ++q) {
    const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    const geometry::Box2 region = geometry::MakeBox2(x, y, x + 120, y + 120);
    std::vector<index::RecordId> got_mem, got_paged;
    const int64_t io_mem = memory_index.Query(region, 0.3, 1.0, &got_mem);
    const int64_t io_paged = paged_index.Query(region, 0.3, 1.0, &got_paged);
    EXPECT_EQ(got_paged, got_mem);  // identical ids in identical order
    EXPECT_EQ(io_paged, io_mem);    // page fetches == node accesses
  }
  EXPECT_EQ(paged_index.node_accesses(), memory_index.node_accesses());
}

TEST(PagedIndexTest, NaivePointTwinMatchesToo) {
  const auto records = MakeRecords(20, 30, 5);
  MemoryStorageManager mgr(1024);
  BufferPool pool(&mgr, /*capacity_pages=*/4096, EvictPolicy::kLru);

  index::NaivePointIndex memory_index;
  memory_index.Build(records);
  index::NaivePointIndex paged_index(index::RTreeOptions(), &pool);
  paged_index.Build(records);

  common::Rng rng(19);
  for (int q = 0; q < 30; ++q) {
    const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    const geometry::Box2 region = geometry::MakeBox2(x, y, x + 120, y + 120);
    std::vector<index::RecordId> got_mem, got_paged;
    const int64_t io_mem = memory_index.Query(region, 0.2, 0.9, &got_mem);
    const int64_t io_paged = paged_index.Query(region, 0.2, 0.9, &got_paged);
    EXPECT_EQ(got_paged, got_mem);
    EXPECT_EQ(io_paged, io_mem);
  }
}

TEST(PagedIndexTest, TinyPoolStillReturnsExactResults) {
  // A pool far smaller than the tree forces eviction churn mid-query;
  // results and access counts must not change, only the hit rate.
  const auto records = MakeRecords(30, 40, 7);
  const std::string path = TempPath("storage_tiny_pool.pages");
  std::remove(path.c_str());
  auto mgr = DiskStorageManager::Open(path, 512, /*truncate=*/true);
  ASSERT_TRUE(mgr.ok());
  BufferPool pool(mgr.value().get(), /*capacity_pages=*/4, EvictPolicy::kLru);

  index::SupportRegionIndex memory_index;
  memory_index.Build(records);
  index::SupportRegionIndex paged_index(index::RTreeOptions(), &pool);
  paged_index.Build(records);

  common::Rng rng(23);
  for (int q = 0; q < 20; ++q) {
    const double x = rng.Uniform(0, 900), y = rng.Uniform(0, 900);
    const geometry::Box2 region = geometry::MakeBox2(x, y, x + 150, y + 150);
    std::vector<index::RecordId> got_mem, got_paged;
    const int64_t io_mem = memory_index.Query(region, 0.0, 1.0, &got_mem);
    const int64_t io_paged = paged_index.Query(region, 0.0, 1.0, &got_paged);
    EXPECT_EQ(got_paged, got_mem);
    EXPECT_EQ(io_paged, io_mem);
  }
  EXPECT_GT(pool.stats().misses, 0);  // the tiny pool really did thrash
  std::remove(path.c_str());
}

// Internal (non-leaf) pages of the paged tree rooted at `root`, counted by
// reading the store directly (the node page format of index/access.cc:
// u8 is_leaf, u32 count, then count x (Box3 as 6 doubles, i64 value)).
int64_t InternalPagesOf(IStorageManager* mgr, PageId root) {
  int64_t internal = 0;
  std::vector<PageId> stack = {root};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(mgr->Load(id, &bytes).ok());
    common::ByteReader r(bytes);
    uint8_t is_leaf = 0;
    uint32_t count = 0;
    EXPECT_TRUE(r.ReadU8(&is_leaf).ok());
    EXPECT_TRUE(r.ReadU32(&count).ok());
    if (is_leaf != 0) continue;
    ++internal;
    for (uint32_t k = 0; k < count; ++k) {
      double coord = 0.0;
      for (int d = 0; d < 6; ++d) EXPECT_TRUE(r.ReadDouble(&coord).ok());
      int64_t child = 0;
      EXPECT_TRUE(r.ReadI64(&child).ok());
      stack.push_back(child);
    }
  }
  return internal;
}

TEST(PagedIndexTest, FreePagesReturnsEverythingToTheFreelist) {
  // Retiring a tree reads only its internal pages: leaves are erased by
  // the ids their parents list. Cover heights 1-3, both right after the
  // build (every page resident) and re-attached through a cold pool.
  index::RTreeOptions options;
  options.node_capacity = 8;
  const struct {
    int32_t height;
    int objects;
  } cases[] = {{1, 1}, {2, 4}, {3, 40}};
  for (const auto& c : cases) {
    for (const bool attach : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "height " << c.height << (attach ? " attached" : ""));
      const auto records = MakeRecords(c.objects, 5, 9);
      MemoryStorageManager mgr(1024);
      BufferPool build_pool(&mgr, /*capacity_pages=*/4096, EvictPolicy::kLru);
      index::SupportRegionIndex built(options, &build_pool);
      built.Build(records);
      const auto info = built.tree_info();
      ASSERT_EQ(info.height, c.height);
      const int64_t allocated = mgr.stats().pages_allocated;
      const int64_t internal = InternalPagesOf(&mgr, info.root);
      if (c.height == 1) {
        ASSERT_EQ(internal, 0);
      }

      BufferPool cold_pool(&mgr, /*capacity_pages=*/4096, EvictPolicy::kLru);
      index::SupportRegionIndex restored(options, &cold_pool);
      restored.Restore(records, AllIds(records), info);
      index::SupportRegionIndex& tree = attach ? restored : built;
      const BufferPool& pool = attach ? cold_pool : build_pool;
      const PoolStats before = pool.stats();
      ASSERT_TRUE(tree.FreePages().ok());
      const PoolStats after = pool.stats();
      EXPECT_EQ(mgr.stats().pages_freed, allocated);
      EXPECT_EQ(after.hits + after.misses - before.hits - before.misses,
                internal);
      // The freed slots are reused lowest id first.
      PageId reused = kInvalidPage;
      ASSERT_TRUE(mgr.Store(&reused, Bytes(16, 1)).ok());
      EXPECT_EQ(reused, 0);
    }
  }
}

TEST(PagedIndexTest, FreePagesRejectsAStoredHeightAboveTheTree) {
  // A directory that records one level too many must not make the walk
  // read leaf entries (record ids) as page ids.
  index::RTreeOptions options;
  options.node_capacity = 8;
  for (const int objects : {1, 4, 40}) {
    const auto records = MakeRecords(objects, 5, 9);
    MemoryStorageManager mgr(1024);
    BufferPool pool(&mgr, /*capacity_pages=*/4096, EvictPolicy::kLru);
    index::SupportRegionIndex built(options, &pool);
    built.Build(records);
    auto info = built.tree_info();
    SCOPED_TRACE(::testing::Message() << "height " << info.height);
    ++info.height;
    index::SupportRegionIndex restored(options, &pool);
    restored.Restore(records, AllIds(records), info);
    EXPECT_FALSE(restored.FreePages().ok());
  }
}

// --- Prefetch candidates against a brute-force scan ----------------------

TEST(BufferPoolTest, PrefetchCandidatesMatchABruteForceScan) {
  // A seeded mix of every call that changes the region table, residency
  // or the interest field. After each step the pool's candidates must
  // equal a scan over a plain map of regions: skip residents, score each
  // region, order by id. The pool is large enough never to evict, so the
  // scan's own residency model is exact (checked via the stats). The
  // pool caches each region's block range, so the mix also registers
  // regions before the first field, installs fields of other spaces and
  // grid sizes, and erases slots that are then stored and registered
  // again.
  MemoryStorageManager mgr(256);
  BufferPool pool(&mgr, /*capacity_pages=*/1 << 20, EvictPolicy::kMotion);
  const geometry::Box2 spaces[] = {geometry::MakeBox2(0, 0, 100, 100),
                                   geometry::MakeBox2(-20, 10, 80, 130),
                                   geometry::MakeBox2(30, -5, 60, 45)};
  std::map<PageId, geometry::Box2> regions;
  std::set<PageId> live;      // allocated in the manager
  std::set<PageId> resident;  // cached by the pool
  InterestGrid interest;
  common::Rng rng(101);

  auto random_region = [&rng] {
    const double x = rng.Uniform(-10, 100), y = rng.Uniform(-10, 100);
    return geometry::MakeBox2(x, y, x + rng.Uniform(0, 30),
                              y + rng.Uniform(0, 30));
  };
  auto random_live = [&rng, &live] {
    auto it = live.begin();
    std::advance(it, rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
    return *it;
  };

  const auto expect_candidates = [&](int step) {
    std::vector<BufferPool::PrefetchCandidate> want;
    for (const auto& [id, region] : regions) {  // std::map: id order
      if (resident.contains(id)) continue;
      const double score = interest.ScoreRegion(region);  // 0 if empty
      if (score > 0.0) want.push_back({id, score});
    }
    const auto got = pool.PrefetchCandidates();
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].id, want[i].id) << "step " << step;
      ASSERT_EQ(std::bit_cast<uint64_t>(got[i].score),
                std::bit_cast<uint64_t>(want[i].score))
          << "step " << step;
    }
    ASSERT_EQ(pool.stats().resident,
              static_cast<int64_t>(resident.size()))
        << "step " << step;
  };

  // Regions registered before any field: the first field must give them
  // their block ranges.
  for (int i = 0; i < 40; ++i) {
    PageId id = kInvalidPage;
    if (i % 2 == 0) {
      ASSERT_TRUE(pool.Store(&id, Bytes(32, 1)).ok());
      resident.insert(id);
    } else {
      ASSERT_TRUE(mgr.Store(&id, Bytes(32, 2)).ok());
    }
    live.insert(id);
    const geometry::Box2 region = random_region();
    pool.SetPageRegion(id, region);
    regions[id] = region;
  }
  ASSERT_NO_FATAL_FAILURE(expect_candidates(-1));

  for (int step = 0; step < 3000; ++step) {
    const int64_t op = live.empty() ? 0 : rng.UniformInt(0, 10);
    if (op <= 2) {
      // Store through the pool (resident), or behind its back (cold).
      PageId id = kInvalidPage;
      if (op <= 1) {
        ASSERT_TRUE(pool.Store(&id, Bytes(32, 1)).ok());
        resident.insert(id);
      } else {
        ASSERT_TRUE(mgr.Store(&id, Bytes(32, 2)).ok());
      }
      live.insert(id);
      if (rng.Bernoulli(0.8)) {
        const geometry::Box2 region = random_region();
        pool.SetPageRegion(id, region);
        regions[id] = region;
      }
    } else if (op == 3) {
      // Re-register a region, sometimes past the last allocated slot.
      PageId id = random_live();
      if (rng.Bernoulli(0.2)) id = *live.rbegin() + rng.UniformInt(1, 5);
      const geometry::Box2 region = random_region();
      pool.SetPageRegion(id, region);
      regions[id] = region;
    } else if (op <= 5) {
      std::vector<uint8_t> out;
      const PageId id = random_live();
      ASSERT_TRUE(pool.Fetch(id, &out).ok());
      resident.insert(id);
    } else if (op == 6) {
      const PageId id = random_live();
      ASSERT_TRUE(pool.Erase(id).ok());
      live.erase(id);
      resident.erase(id);
      regions.erase(id);
    } else if (op == 7) {
      if (rng.Bernoulli(0.1)) {
        interest = InterestGrid();
      } else {
        interest.space = spaces[rng.UniformInt(0, 2)];
        interest.nx = static_cast<int32_t>(rng.UniformInt(1, 16));
        interest.ny = static_cast<int32_t>(rng.UniformInt(1, 16));
        interest.score.assign(
            static_cast<size_t>(interest.nx) * interest.ny, 0.0);
        for (double& v : interest.score) {
          if (rng.Bernoulli(0.3)) v = rng.UniformDouble();
        }
      }
      pool.UpdateInterest(interest);
    } else if (op <= 9) {
      // A speculative install: admitted only for a registered slot that
      // is not resident (capacity never refuses here).
      const PageId id = random_live();
      pool.InstallPrefetched(id, Bytes(32, 3));
      if (regions.contains(id)) resident.insert(id);
    } else {
      // Erase a slot, then store into the lowest free slot (the erased
      // one, unless a lower one is free) and register it cold.
      const PageId erased = random_live();
      ASSERT_TRUE(pool.Erase(erased).ok());
      live.erase(erased);
      resident.erase(erased);
      regions.erase(erased);
      PageId id = kInvalidPage;
      ASSERT_TRUE(mgr.Store(&id, Bytes(32, 4)).ok());
      live.insert(id);
      const geometry::Box2 region = random_region();
      pool.SetPageRegion(id, region);
      regions[id] = region;
    }
    ASSERT_NO_FATAL_FAILURE(expect_candidates(step));
  }
  EXPECT_EQ(pool.stats().evictions, 0);
}

}  // namespace
}  // namespace mars::storage
