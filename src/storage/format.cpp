#include "storage/format.h"

#include <cerrno>
#include <cstring>
#include <filesystem>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "engine/error.h"
#include "nal/fault_injection.h"

namespace nalq::storage {

namespace {

using engine::Error;
using engine::ErrorCode;
using nal::FaultInjector;
using nal::FaultSite;
using nal::codec::ByteReader;
using nal::codec::PutU32;

[[noreturn]] void ThrowIo(const char* what, const std::string& path, int err,
                          FaultSite site) {
  throw Error(ErrorCode::kStoreIo, what, err, path, nal::FaultSiteName(site));
}

[[noreturn]] void ThrowCorrupt(const std::string& what,
                               const std::string& path) {
  throw Error(ErrorCode::kStoreCorrupt, what, 0, path, "storage.page");
}

/// Checks the 20-byte file header at `header` (`n` bytes available): the
/// magic, then the version BEFORE the checksum (see format.h), then the
/// file kind.
void CheckFileHeader(const uint8_t* header, size_t n,
                     const std::string& path) {
  if (n < 20) {
    ThrowCorrupt("persistent-store file too short for its header", path);
  }
  if (std::memcmp(header, kFileMagic, sizeof(kFileMagic)) != 0) {
    ThrowCorrupt("persistent-store file magic mismatch", path);
  }
  uint32_t version = 0;
  uint32_t kind = 0;
  uint32_t header_crc = 0;
  std::memcpy(&version, header + 8, 4);
  std::memcpy(&kind, header + 12, 4);
  std::memcpy(&header_crc, header + 16, 4);
  if (version != kFormatVersion) {
    throw Error(ErrorCode::kStoreVersionMismatch,
                "persistent-store format version " + std::to_string(version) +
                    " (this build reads version " +
                    std::to_string(kFormatVersion) + ")",
                0, path, "storage.page");
  }
  if (Crc32(header, 16) != header_crc) {
    ThrowCorrupt("persistent-store file header checksum mismatch", path);
  }
  if (kind != kFileKind) {
    ThrowCorrupt("persistent-store file kind mismatch", path);
  }
}

/// fsyncs the directory containing `path` so a just-committed rename in it
/// is durable. Returns 0 on success, the errno otherwise. No-op success on
/// platforms without directory fsync.
int SyncDirContaining(const std::string& path) {
#ifndef _WIN32
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (fd < 0) return errno != 0 ? errno : EIO;
  int rc = ::fsync(fd);
  int err = errno;
  ::close(fd);
  if (rc != 0) return err != 0 ? err : EIO;
#else
  (void)path;
#endif
  return 0;
}

}  // namespace

int FlushToDisk(std::FILE* f) {
  if (std::fflush(f) != 0) return errno != 0 ? errno : EIO;
#ifndef _WIN32
  if (::fsync(::fileno(f)) != 0) return errno != 0 ? errno : EIO;
#endif
  return 0;
}

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  // CRC-32 over the IEEE reflected polynomial 0xEDB88320, the checksum zlib
  // computes, by slicing-by-8 (Kounavis and Berry, ISCC 2005): tables[k][b]
  // is the CRC of byte b followed by k zero bytes, so eight lookups consume
  // eight input bytes per step. Built once on first use.
  static const uint32_t(*kTables)[256] = [] {
    static uint32_t tables[8][256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      tables[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        uint32_t prev = tables[k - 1][i];
        tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
    return tables;
  }();
  const uint32_t(*t)[256] = kTables;
  uint32_t crc = ~seed;
  const auto* p = static_cast<const uint8_t*>(data);
  auto le32 = [](const uint8_t* b) {
    return static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
           static_cast<uint32_t>(b[2]) << 16 | static_cast<uint32_t>(b[3]) << 24;
  };
  for (; len >= 8; len -= 8, p += 8) {
    const uint32_t lo = crc ^ le32(p);
    const uint32_t hi = le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; --len, ++p) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

PageFileWriter::PageFileWriter(std::string path) : path_(std::move(path)) {
  if (int err = FaultInjector::Current().MaybeFail(FaultSite::kStoreOpenWrite);
      err != 0) {
    ThrowIo("persistent-store file open failed", path_, err,
            FaultSite::kStoreOpenWrite);
  }
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    ThrowIo("persistent-store file open failed", path_, errno,
            FaultSite::kStoreOpenWrite);
  }
  std::string header(kFileMagic, sizeof(kFileMagic));
  PutU32(&header, kFormatVersion);
  PutU32(&header, kFileKind);
  PutU32(&header, Crc32(header.data(), header.size()));
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    int err = errno;
    std::fclose(file_);
    file_ = nullptr;
    ThrowIo("persistent-store header write failed", path_, err,
            FaultSite::kStoreWrite);
  }
}

PageFileWriter::~PageFileWriter() {
  // Best-effort cleanup on the unwound-error path; Close() already ran on
  // the success path.
  if (file_ != nullptr) std::fclose(file_);
}

void PageFileWriter::WritePage(PageType type, uint32_t item_count,
                               uint32_t first_item, std::string_view payload) {
  if (int err = FaultInjector::Current().MaybeFail(FaultSite::kStoreWrite);
      err != 0) {
    ThrowIo("persistent-store page write failed", path_, err,
            FaultSite::kStoreWrite);
  }
  std::string header;
  header.reserve(28);
  PutU32(&header, kPageMagic);
  PutU32(&header, static_cast<uint32_t>(type));
  PutU32(&header, static_cast<uint32_t>(payload.size()));
  PutU32(&header, item_count);
  PutU32(&header, first_item);
  PutU32(&header, Crc32(payload.data(), payload.size()));
  PutU32(&header, Crc32(header.data(), header.size()));
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
      std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size()) {
    ThrowIo("persistent-store page write failed", path_, errno,
            FaultSite::kStoreWrite);
  }
}

void PageFileWriter::Close() {
  if (int err = FaultInjector::Current().MaybeFail(FaultSite::kStoreClose);
      err != 0) {
    std::fclose(file_);
    file_ = nullptr;
    ThrowIo("persistent-store file close failed", path_, err,
            FaultSite::kStoreClose);
  }
  // Durability: the pages must be on stable storage before the manifest
  // rename can name this file — otherwise a power loss after the rename
  // leaves a committed manifest pointing at never-written data.
  if (int err = FlushToDisk(file_); err != 0) {
    std::fclose(file_);
    file_ = nullptr;
    ThrowIo("persistent-store file sync failed", path_, err,
            FaultSite::kStoreClose);
  }
  int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) {
    ThrowIo("persistent-store file close failed", path_, errno,
            FaultSite::kStoreClose);
  }
}

PageFileReader::PageFileReader(std::string path) : path_(std::move(path)) {
  if (int err = FaultInjector::Current().MaybeFail(FaultSite::kStoreOpenRead);
      err != 0) {
    ThrowIo("persistent-store file open failed", path_, err,
            FaultSite::kStoreOpenRead);
  }
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) {
    ThrowIo("persistent-store file open failed", path_, errno,
            FaultSite::kStoreOpenRead);
  }
  if (int err = FaultInjector::Current().MaybeFail(FaultSite::kStoreRead);
      err != 0) {
    std::fclose(f);
    ThrowIo("persistent-store file read failed", path_, err,
            FaultSite::kStoreRead);
  }
  // Whole-file slurp: documents page in at file granularity (one store file
  // per document), so "read the file" IS the page-in unit and a streaming
  // read buys nothing. The layout stays seekable for a future mmap pager.
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    buffer_.append(chunk, n);
  }
  bool read_error = std::ferror(f) != 0;
  int read_errno = errno;
  std::fclose(f);
  if (read_error) {
    ThrowIo("persistent-store file read failed", path_, read_errno,
            FaultSite::kStoreRead);
  }
  const auto* base = reinterpret_cast<const uint8_t*>(buffer_.data());
  CheckFileHeader(base, buffer_.size(), path_);
  reader_ = ByteReader{base + 20, base + buffer_.size()};
}

bool PageFileReader::Next(PageInfo* out) {
  if (reader_.remaining() == 0) return false;
  uint32_t magic = 0;
  uint32_t type = 0;
  uint32_t payload_bytes = 0;
  uint32_t item_count = 0;
  uint32_t first_item = 0;
  uint32_t payload_crc = 0;
  uint32_t header_crc = 0;
  const uint8_t* header_start = reader_.p;
  if (!reader_.U32(&magic) || !reader_.U32(&type) ||
      !reader_.U32(&payload_bytes) || !reader_.U32(&item_count) ||
      !reader_.U32(&first_item) || !reader_.U32(&payload_crc) ||
      !reader_.U32(&header_crc)) {
    ThrowCorrupt("persistent-store page header truncated", path_);
  }
  if (Crc32(header_start, 24) != header_crc) {
    ThrowCorrupt("persistent-store page header checksum mismatch", path_);
  }
  if (magic != kPageMagic) {
    ThrowCorrupt("persistent-store page magic mismatch", path_);
  }
  const uint8_t* payload = nullptr;
  if (!reader_.Bytes(payload_bytes, &payload)) {
    ThrowCorrupt("persistent-store page payload truncated", path_);
  }
  if (Crc32(payload, payload_bytes) != payload_crc) {
    ThrowCorrupt("persistent-store page payload checksum mismatch", path_);
  }
  out->type = static_cast<PageType>(type);
  out->item_count = item_count;
  out->first_item = first_item;
  out->payload =
      std::string_view(reinterpret_cast<const char*>(payload), payload_bytes);
  return true;
}

void ValidateFileHeader(const std::string& path) {
  if (int err = FaultInjector::Current().MaybeFail(FaultSite::kStoreOpenRead);
      err != 0) {
    ThrowIo("persistent-store file open failed", path, err,
            FaultSite::kStoreOpenRead);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    ThrowIo("persistent-store file open failed", path, errno,
            FaultSite::kStoreOpenRead);
  }
  uint8_t header[20];
  size_t n = std::fread(header, 1, sizeof(header), f);
  std::fclose(f);
  CheckFileHeader(header, n, path);
}

void CommitRename(const std::string& from, const std::string& to) {
  if (int err = FaultInjector::Current().MaybeFail(FaultSite::kStoreClose);
      err != 0) {
    ThrowIo("persistent-store manifest commit failed", to, err,
            FaultSite::kStoreClose);
  }
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    ThrowIo("persistent-store manifest commit failed", to, errno,
            FaultSite::kStoreClose);
  }
  // The rename is in the directory's in-memory state; fsync the directory
  // so it is on disk too before RemoveStaleEpochs deletes the previous
  // epoch. A failure here means the commit may not be durable — report it
  // (the rename itself already happened, so the store stays openable
  // either way; the caller just must not delete the old epoch).
  if (int err = SyncDirContaining(to); err != 0) {
    ThrowIo("persistent-store directory sync failed", to, err,
            FaultSite::kStoreClose);
  }
}

}  // namespace nalq::storage
