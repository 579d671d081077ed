// On-disk page format of the persistent document store.
//
// A persisted store is a directory of flat files, every one built from the
// same two framing layers:
//
//   file   := FileHeader page*
//   page   := PageHeader payload
//
// FileHeader (20 bytes): 8-byte magic "NALQSTR1", format version (u32),
// file kind (u32, always kFileKind), and a CRC32 over the preceding 16
// bytes. The version is validated BEFORE the header checksum so a store
// written by a different format generation reports kStoreVersionMismatch —
// the actionable error — rather than a generic corruption.
//
// PageHeader (28 bytes): page magic "NPAG" (u32), page type (u32,
// PageType), payload byte count (u32), item count (u32), first item id
// (u32 — the first string id, node id or arena offset the page carries,
// making the format seekable for an mmap-based pager), CRC32 of the
// payload (u32), CRC32 of the preceding 24 header bytes (u32). A file ends
// exactly at a page boundary; anything else — a short header, a payload cut
// off by truncation, a checksum mismatch — fails closed with
// engine::Error(kStoreCorrupt) naming the file.
//
// Integers use the host's native byte order via the shared spool framing
// primitives (nal/codec.h); the manifest records an endianness tag and
// refuses a store written by a foreign-endian host (kStoreVersionMismatch,
// since rewriting the store is the remedy either way).
//
// PageFileWriter/PageFileReader are the only code that touches store files,
// and both consult the deterministic fault injector
// (nal/fault_injection.h, store.* sites) before every OS call, so the
// torn-write and unreadable-store paths run under the fault-injection CI
// matrix like the spool layer's do.
#ifndef NALQ_STORAGE_FORMAT_H_
#define NALQ_STORAGE_FORMAT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "nal/codec.h"

namespace nalq::storage {

/// Bumped whenever the page or manifest layout changes incompatibly. A
/// store written under any other version fails to open with
/// kStoreVersionMismatch.
inline constexpr uint32_t kFormatVersion = 3;

inline constexpr char kFileMagic[8] = {'N', 'A', 'L', 'Q', 'S', 'T', 'R', '1'};
inline constexpr char kManifestMagic[8] = {'N', 'A', 'L', 'Q', 'M', 'A',
                                           'N', '1'};
inline constexpr uint32_t kPageMagic = 0x4741504Eu;  // "NPAG" in LE order

/// Written into the manifest; a mismatch on open means the store was
/// persisted by a foreign-endian host and cannot be mapped natively.
inline constexpr uint32_t kEndianTag = 0x01020304u;

/// Target payload size a writer chunks at. Readers accept any size the
/// header declares (bounded by the file itself).
inline constexpr size_t kPagePayloadTarget = 64 * 1024;

/// The file-kind word of every file header. A store has one kind of data
/// file (a document's three arrays); the word stays in the header and is
/// checked against this value.
inline constexpr uint32_t kFileKind = 1;

/// A document file holds its pages in this order. Item counts and first
/// items count names, 16-byte records and arena bytes respectively.
enum class PageType : uint32_t {
  kNameTable = 1,    ///< length-prefixed interner strings, id order
  kNodeRecords = 2,  ///< xml::Node records, as in memory, preorder
  kTextArena = 3,    ///< xml::Document's text arena, as in memory
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib one) — self-contained so the
/// store has no dependency the container may lack.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

/// One decoded page; `payload` aliases the reader's buffer.
struct PageInfo {
  PageType type = PageType::kNameTable;
  uint32_t item_count = 0;
  uint32_t first_item = 0;
  std::string_view payload;
};

/// Buffered page-at-a-time writer. Every I/O failure (and every injected
/// fault) throws engine::Error(kStoreIo) carrying errno and the path.
class PageFileWriter {
 public:
  explicit PageFileWriter(std::string path);
  ~PageFileWriter();
  PageFileWriter(const PageFileWriter&) = delete;
  PageFileWriter& operator=(const PageFileWriter&) = delete;

  /// Appends one checksummed page.
  void WritePage(PageType type, uint32_t item_count, uint32_t first_item,
                 std::string_view payload);

  /// Flushes and closes; the file is not durable until this returns.
  void Close();

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

/// Whole-file reader: validates the file header on construction (version
/// before checksum — see the file comment) and hands out pages
/// sequentially, validating each one. Construction failures throw
/// kStoreIo (unopenable) or kStoreVersionMismatch / kStoreCorrupt
/// (unreadable); Next throws kStoreCorrupt on any malformed page.
class PageFileReader {
 public:
  explicit PageFileReader(std::string path);

  /// Fills `out` with the next page; false at a clean end-of-file.
  bool Next(PageInfo* out);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::string buffer_;
  nal::codec::ByteReader reader_{nullptr, nullptr};
};

/// Validates just the 20-byte file header of `path` (cheap warm-attach
/// check: catches a missing, truncated, foreign-version or wrong-kind file
/// without slurping its pages). Throws like the PageFileReader constructor.
void ValidateFileHeader(const std::string& path);

/// fflush + fsync of `f`, so the stream's bytes are on stable storage
/// before the caller fcloses it. Returns 0 on success, the errno
/// otherwise. The rename-based commit protocol is only crash-safe against
/// power loss when data and manifest bytes reach disk BEFORE the rename
/// does — a journal can persist the rename first, leaving a committed
/// manifest naming files whose contents never landed.
int FlushToDisk(std::FILE* f);

/// Atomically renames `from` onto `to` — the manifest commit point — and
/// fsyncs the containing directory so the rename itself survives power
/// loss (without it, reopening after a crash could still see the old
/// manifest even though RemoveStaleEpochs already ran against the new
/// one). Throws kStoreIo (site store.close) on failure.
void CommitRename(const std::string& from, const std::string& to);

}  // namespace nalq::storage

#endif  // NALQ_STORAGE_FORMAT_H_
