#ifndef MARS_STORAGE_DISK_STORAGE_H_
#define MARS_STORAGE_DISK_STORAGE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "storage/storage_manager.h"

namespace mars::storage {

// Fixed-size-page file store, after the IStorageManager split in
// libspatialindex-style stores: logical byte arrays are chained across
// fixed-size pages in a single file, page ids are allocated from a freelist,
// and every page carries a checksum so torn writes and bit rot surface as
// clean Status errors instead of undefined behavior.
//
// File layout (version 2):
//   [64-byte header]  magic, version, page_size, root id, header checksum
//   [page 0][page 1]...  each page_size bytes:
//     [u64 checksum][u32 flags][u32 payload_len][i64 next page][payload...]
//
// Both checksums are PageChecksum (storage_manager.h), a word-lane hash:
// the header's covers its first 56 bytes, a page's everything after
// itself up to the end of the payload. Version 1 files, whose checksums
// were byte-wise FNV-1a, fail to open; the index layer then rebuilds them.
// `flags` bit 0 marks the slot used, bit 1 marks a chain head; the freelist
// is rebuilt on open by scanning the used bits.
//
// Pages and the header move through one reused page-size buffer with
// pread/pwrite on a plain file descriptor, so every write reaches the
// file (not a user-space buffer) before the call returns. Flush rewrites
// the header; nothing here calls fsync.
//
// Every Load reads and verifies each page of its chain. The store also
// keeps the chain link of every page it wrote, or read and verified, so
// Erase and in-place rewrites walk a chain without reading it; a page
// whose link the store has not seen (say, after a reopen) is read and
// verified first.
class DiskStorageManager : public IStorageManager {
 public:
  // Opens `path`. If the file exists (and `truncate` is false) its header is
  // validated and the freelist rebuilt from the page flags — a bad magic,
  // version, or header checksum is an error, never a crash. Otherwise a
  // fresh, empty store is created with the requested page size.
  static common::StatusOr<std::unique_ptr<DiskStorageManager>> Open(
      const std::string& path, int32_t page_size, bool truncate = false);

  ~DiskStorageManager() override;

  DiskStorageManager(const DiskStorageManager&) = delete;
  DiskStorageManager& operator=(const DiskStorageManager&) = delete;

  common::Status Store(PageId* id, const std::vector<uint8_t>& data) override;
  common::Status Load(PageId id, std::vector<uint8_t>* out) override;
  common::Status Erase(PageId id) override;
  common::Status Flush() override;

  PageId root() const override { return root_; }
  common::Status SetRoot(PageId id) override;

  const StorageStats& stats() const override { return stats_; }
  int32_t page_size() const override { return page_size_; }
  const char* name() const override { return "disk"; }

  // True when Open() attached to an existing page file rather than creating
  // a fresh one; the index layer uses this to attempt a restore.
  bool opened_existing() const { return opened_existing_; }
  int64_t page_count() const { return page_count_; }
  const std::string& path() const { return path_; }

  // Pages currently on the freelist: slots the file has allocated but no
  // chain occupies (epoch retirements return pages here for reuse).
  int64_t free_pages() const {
    return static_cast<int64_t>(freelist_.size());
  }
  // Free pages that are NOT part of the file's trailing free run — holes
  // punched mid-file, the store's fragmentation measure. Store() refills
  // them lowest-id first, so a fragmented file heals as epochs rewrite.
  int64_t fragmented_pages() const {
    int64_t trailing = 0;
    PageId expected = page_count_ - 1;
    for (auto it = freelist_.rbegin(); it != freelist_.rend();
         ++it, --expected) {
      if (*it != expected) break;
      ++trailing;
    }
    return static_cast<int64_t>(freelist_.size()) - trailing;
  }

 private:
  DiskStorageManager(std::string path, int32_t page_size);

  int64_t PayloadCapacity() const;
  int64_t PageOffset(PageId id) const;
  PageId AllocatePage();
  common::Status FreePage(PageId id);
  common::Status WritePage(PageId id, uint32_t flags, PageId next,
                           const uint8_t* payload, uint32_t payload_len);
  // Reads and checks page `id` into page_ and records its link; *payload
  // views its payload there, valid until the next page read or write.
  common::Status ReadPage(PageId id, uint32_t* flags, PageId* next,
                          std::span<const uint8_t>* payload);
  // The chain starting at head `id`: known links are followed, and a page
  // whose link is unseen is read and verified through ReadPage.
  common::Status WalkChain(PageId id, std::vector<PageId>* chain);
  common::Status WriteHeader();
  common::Status OpenExisting();
  common::Status CreateFresh();
  bool IsUsed(PageId id) const;

  std::string path_;
  int32_t page_size_;
  int fd_ = -1;
  // The one page buffer every page read and write goes through.
  std::vector<uint8_t> page_;
  int64_t page_count_ = 0;
  std::set<PageId> freelist_;  // ordered so reuse picks the lowest id
  // Per page id: the next link of a page this store wrote, or read and
  // verified, since it was last allocated; kUnseenLink otherwise.
  std::vector<PageId> links_;
  PageId root_ = kInvalidPage;
  bool opened_existing_ = false;
  // Open() succeeded; only then does closing write the header, so a file
  // Open() rejected is left as it was.
  bool open_ = false;
  StorageStats stats_;
};

}  // namespace mars::storage

#endif  // MARS_STORAGE_DISK_STORAGE_H_
