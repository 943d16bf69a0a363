#include "storage/disk_storage.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

namespace mars::storage {
namespace {

constexpr int64_t kHeaderBytes = 64;
constexpr int64_t kPageHeaderBytes = 24;
constexpr uint64_t kMagic = 0x3145474150535244ull;  // "DRSPAGE1" LE
constexpr uint32_t kVersion = 1;
constexpr uint32_t kUsedFlag = 1u << 0;
constexpr uint32_t kHeadFlag = 1u << 1;
constexpr int32_t kMinPageSize = 128;

// Page header fields in host byte order, as common::ByteWriter lays them.
template <typename T>
void Put(uint8_t* at, T value) {
  std::memcpy(at, &value, sizeof(value));
}
template <typename T>
T Get(const uint8_t* at) {
  T value;
  std::memcpy(&value, at, sizeof(value));
  return value;
}

// Whole-buffer positional I/O: false unless every byte moved.
bool ReadAt(int fd, uint8_t* buf, int64_t size, int64_t offset) {
  return ::pread(fd, buf, static_cast<size_t>(size),
                 static_cast<off_t>(offset)) == size;
}
bool WriteAt(int fd, const uint8_t* buf, int64_t size, int64_t offset) {
  return ::pwrite(fd, buf, static_cast<size_t>(size),
                  static_cast<off_t>(offset)) == size;
}

}  // namespace

common::StatusOr<std::unique_ptr<DiskStorageManager>> DiskStorageManager::Open(
    const std::string& path, int32_t page_size, bool truncate) {
  if (path.empty()) {
    return common::InvalidArgumentError("disk store: empty path");
  }
  if (page_size < kMinPageSize) {
    return common::InvalidArgumentError("disk store: page size too small");
  }
  std::unique_ptr<DiskStorageManager> mgr(
      new DiskStorageManager(path, page_size));
  bool exists = false;
  if (!truncate) {
    const int probe = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (probe >= 0) {
      ::close(probe);
      exists = true;
    }
  }
  if (exists) {
    mgr->fd_ = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (mgr->fd_ < 0) {
      return common::InternalError("disk store: cannot open " + path);
    }
    MARS_RETURN_IF_ERROR(mgr->OpenExisting());
    mgr->opened_existing_ = true;
  } else {
    mgr->fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                      0666);
    if (mgr->fd_ < 0) {
      return common::InternalError("disk store: cannot create " + path);
    }
    MARS_RETURN_IF_ERROR(mgr->CreateFresh());
  }
  mgr->open_ = true;
  return mgr;
}

DiskStorageManager::DiskStorageManager(std::string path, int32_t page_size)
    : path_(std::move(path)), page_size_(page_size) {}

DiskStorageManager::~DiskStorageManager() {
  if (fd_ < 0) return;
  if (open_) WriteHeader();  // best effort: persist root across shutdown
  ::close(fd_);
}

int64_t DiskStorageManager::PayloadCapacity() const {
  return page_size_ - kPageHeaderBytes;
}

int64_t DiskStorageManager::PageOffset(PageId id) const {
  return kHeaderBytes + id * static_cast<int64_t>(page_size_);
}

bool DiskStorageManager::IsUsed(PageId id) const {
  return id >= 0 && id < page_count_ && freelist_.count(id) == 0;
}

common::Status DiskStorageManager::WriteHeader() {
  uint8_t buf[kHeaderBytes] = {};
  Put<uint64_t>(buf, kMagic);
  Put<uint32_t>(buf + 8, kVersion);
  Put<uint32_t>(buf + 12, static_cast<uint32_t>(page_size_));
  Put<int64_t>(buf + 16, root_);
  Put<uint64_t>(buf + kHeaderBytes - 8, Fnv1a64(buf, kHeaderBytes - 8));
  if (!WriteAt(fd_, buf, kHeaderBytes, 0)) {
    return common::InternalError("disk store: header write failed");
  }
  return common::OkStatus();
}

common::Status DiskStorageManager::CreateFresh() {
  page_count_ = 0;
  root_ = kInvalidPage;
  page_.assign(static_cast<size_t>(page_size_), 0);
  return WriteHeader();
}

common::Status DiskStorageManager::OpenExisting() {
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return common::InternalError("disk store: seek failed");
  }
  const int64_t file_size = st.st_size;
  if (file_size < kHeaderBytes) {
    return common::InternalError("disk store: truncated header in " + path_);
  }
  uint8_t buf[kHeaderBytes];
  if (!ReadAt(fd_, buf, kHeaderBytes, 0)) {
    return common::InternalError("disk store: header read failed");
  }
  const uint64_t magic = Get<uint64_t>(buf);
  const uint32_t version = Get<uint32_t>(buf + 8);
  const uint32_t page_size = Get<uint32_t>(buf + 12);
  const int64_t root = Get<int64_t>(buf + 16);
  if (magic != kMagic) {
    return common::InternalError("disk store: bad magic in " + path_);
  }
  if (version != kVersion) {
    return common::InternalError("disk store: unsupported version in " +
                                 path_);
  }
  if (page_size < static_cast<uint32_t>(kMinPageSize) ||
      page_size > (1u << 26)) {
    return common::InternalError("disk store: bad page size in " + path_);
  }
  if (Fnv1a64(buf, kHeaderBytes - 8) !=
      Get<uint64_t>(buf + kHeaderBytes - 8)) {
    return common::InternalError("disk store: header checksum mismatch in " +
                                 path_);
  }
  page_size_ = static_cast<int32_t>(page_size);
  page_.assign(static_cast<size_t>(page_size_), 0);
  root_ = root;
  page_count_ = (file_size - kHeaderBytes) / page_size_;
  // Rebuild the freelist by scanning the used bit of every page header. A
  // corrupt flag word can at worst leak a slot or route a Load into a
  // checksum mismatch; it never reads out of bounds.
  freelist_.clear();
  for (PageId id = 0; id < page_count_; ++id) {
    if (!ReadAt(fd_, page_.data(), kPageHeaderBytes, PageOffset(id))) {
      return common::InternalError("disk store: truncated page table in " +
                                   path_);
    }
    if ((Get<uint32_t>(page_.data() + 8) & kUsedFlag) == 0) {
      freelist_.insert(id);
    }
  }
  if (root_ != kInvalidPage && !IsUsed(root_)) {
    return common::InternalError("disk store: root page not in use in " +
                                 path_);
  }
  return common::OkStatus();
}

PageId DiskStorageManager::AllocatePage() {
  ++stats_.pages_allocated;
  if (!freelist_.empty()) {
    const PageId id = *freelist_.begin();
    freelist_.erase(freelist_.begin());
    return id;
  }
  return page_count_++;
}

common::Status DiskStorageManager::FreePage(PageId id) {
  // Clear the used bit on disk so a restart's freelist scan sees the slot
  // as free; the payload itself is left in place.
  static constexpr uint8_t kZeroHead[kPageHeaderBytes] = {};
  if (!WriteAt(fd_, kZeroHead, kPageHeaderBytes, PageOffset(id))) {
    return common::InternalError("disk store: page free failed");
  }
  freelist_.insert(id);
  ++stats_.pages_freed;
  return common::OkStatus();
}

common::Status DiskStorageManager::WritePage(PageId id, uint32_t flags,
                                             PageId next,
                                             const uint8_t* payload,
                                             uint32_t payload_len) {
  uint8_t* page = page_.data();
  Put<uint32_t>(page + 8, flags);
  Put<uint32_t>(page + 12, payload_len);
  Put<int64_t>(page + 16, next);
  if (payload_len > 0) {
    std::memcpy(page + kPageHeaderBytes, payload, payload_len);
  }
  std::memset(page + kPageHeaderBytes + payload_len, 0,
              static_cast<size_t>(PayloadCapacity()) - payload_len);
  Put<uint64_t>(page, Fnv1a64(page + 8, kPageHeaderBytes - 8 + payload_len));
  if (!WriteAt(fd_, page, page_size_, PageOffset(id))) {
    return common::InternalError("disk store: page write failed");
  }
  ++stats_.writes;
  return common::OkStatus();
}

common::Status DiskStorageManager::ReadPage(PageId id, uint32_t* flags,
                                            PageId* next,
                                            std::span<const uint8_t>* payload) {
  if (id < 0 || id >= page_count_) {
    return common::OutOfRangeError("disk store: page id out of range");
  }
  uint8_t* page = page_.data();
  if (!ReadAt(fd_, page, page_size_, PageOffset(id))) {
    return common::InternalError("disk store: truncated page read in " +
                                 path_);
  }
  const uint32_t payload_len = Get<uint32_t>(page + 12);
  *flags = Get<uint32_t>(page + 8);
  *next = Get<int64_t>(page + 16);
  if (payload_len > static_cast<uint64_t>(PayloadCapacity())) {
    return common::InternalError("disk store: corrupt payload length");
  }
  if (Fnv1a64(page + 8, kPageHeaderBytes - 8 + payload_len) !=
      Get<uint64_t>(page)) {
    return common::InternalError("disk store: page checksum mismatch in " +
                                 path_);
  }
  *payload = {page + kPageHeaderBytes, payload_len};
  ++stats_.reads;
  return common::OkStatus();
}

common::Status DiskStorageManager::ReadChain(PageId id,
                                             std::vector<PageId>* chain) {
  PageId cur = id;
  int64_t steps = 0;
  while (cur != kInvalidPage) {
    if (++steps > page_count_) {
      return common::InternalError("disk store: page chain cycle");
    }
    chain->push_back(cur);
    uint32_t flags = 0;
    PageId next = kInvalidPage;
    std::span<const uint8_t> payload;
    MARS_RETURN_IF_ERROR(ReadPage(cur, &flags, &next, &payload));
    cur = next;
  }
  return common::OkStatus();
}

common::Status DiskStorageManager::Store(PageId* id,
                                         const std::vector<uint8_t>& data) {
  if (id == nullptr) {
    return common::InvalidArgumentError("disk store: null id");
  }
  const int64_t capacity = PayloadCapacity();
  const int64_t pages_needed = std::max<int64_t>(
      1, (static_cast<int64_t>(data.size()) + capacity - 1) / capacity);

  std::vector<PageId> chain;
  if (*id != kInvalidPage) {
    // In-place rewrite: walk the old chain so its pages can be reused, the
    // head id staying stable for callers that recorded it.
    if (!IsUsed(*id)) {
      return common::NotFoundError("disk store: rewrite of unknown page");
    }
    MARS_RETURN_IF_ERROR(ReadChain(*id, &chain));
    while (static_cast<int64_t>(chain.size()) > pages_needed) {
      MARS_RETURN_IF_ERROR(FreePage(chain.back()));
      chain.pop_back();
    }
  }
  while (static_cast<int64_t>(chain.size()) < pages_needed) {
    chain.push_back(AllocatePage());
  }
  for (int64_t i = 0; i < pages_needed; ++i) {
    const int64_t begin = i * capacity;
    const int64_t end =
        std::min<int64_t>(begin + capacity, static_cast<int64_t>(data.size()));
    const uint32_t flags = kUsedFlag | (i == 0 ? kHeadFlag : 0u);
    const PageId next = (i + 1 < pages_needed) ? chain[i + 1] : kInvalidPage;
    MARS_RETURN_IF_ERROR(WritePage(chain[i], flags, next, data.data() + begin,
                                   static_cast<uint32_t>(end - begin)));
  }
  *id = chain[0];
  return common::OkStatus();
}

common::Status DiskStorageManager::Load(PageId id, std::vector<uint8_t>* out) {
  if (out == nullptr) {
    return common::InvalidArgumentError("disk store: null out");
  }
  if (!IsUsed(id)) {
    return common::NotFoundError("disk store: load of unknown page");
  }
  out->clear();
  PageId cur = id;
  bool first = true;
  int64_t steps = 0;
  while (cur != kInvalidPage) {
    if (++steps > page_count_) {
      return common::InternalError("disk store: page chain cycle");
    }
    uint32_t flags = 0;
    PageId next = kInvalidPage;
    std::span<const uint8_t> payload;
    MARS_RETURN_IF_ERROR(ReadPage(cur, &flags, &next, &payload));
    if ((flags & kUsedFlag) == 0) {
      return common::InternalError("disk store: chain through free page");
    }
    if (first && (flags & kHeadFlag) == 0) {
      return common::InvalidArgumentError(
          "disk store: load of non-head page");
    }
    out->insert(out->end(), payload.begin(), payload.end());
    cur = next;
    first = false;
  }
  return common::OkStatus();
}

common::Status DiskStorageManager::Erase(PageId id) {
  if (!IsUsed(id)) {
    return common::NotFoundError("disk store: erase of unknown page");
  }
  // Collect the chain before freeing anything so a mid-chain error leaves a
  // consistent (if leaky) file.
  std::vector<PageId> chain;
  MARS_RETURN_IF_ERROR(ReadChain(id, &chain));
  for (const PageId page : chain) {
    MARS_RETURN_IF_ERROR(FreePage(page));
  }
  ++stats_.erases;
  return common::OkStatus();
}

common::Status DiskStorageManager::Flush() { return WriteHeader(); }

common::Status DiskStorageManager::SetRoot(PageId id) {
  root_ = id;
  return WriteHeader();
}

}  // namespace mars::storage
