#include "image/image_writer.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "index/tiered_index.hpp"
#include "kernel/fingerprint_kernel.hpp"
#include "radio/fingerprint_database.hpp"
#include "store/crc32c.hpp"
#include "store/format.hpp"
#include "store/posix_file.hpp"
#include "util/posix_error.hpp"
#include "util/retry_eintr.hpp"

namespace moloc::image {

namespace {

std::string directoryOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Buffered fd writer tracking the absolute position and a per-section
/// running CRC32C, so ~900 MB images stream through one bounded chunk
/// instead of a file-sized string.
class SectionStream {
 public:
  static constexpr std::size_t kChunk = 1 << 20;

  SectionStream(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {
    buffer_.reserve(kChunk);
  }

  std::uint64_t position() const { return position_ + buffer_.size(); }

  void beginSection() {
    // Sections start on kSectionAlignment boundaries; the gap bytes
    // are zeros and belong to no section (not CRC'd).
    const std::uint64_t at = position();
    const std::uint64_t aligned =
        (at + kSectionAlignment - 1) / kSectionAlignment *
        kSectionAlignment;
    static constexpr char kZeros[kSectionAlignment] = {};
    append(kZeros, static_cast<std::size_t>(aligned - at));
    crc_ = 0;
    sectionStart_ = aligned;
  }

  SectionEntry endSection(SectionId id) {
    SectionEntry entry{};
    entry.id = static_cast<std::uint32_t>(id);
    entry.crc = crc_;
    entry.offset = sectionStart_;
    entry.length = position() - sectionStart_;
    return entry;
  }

  void write(const void* data, std::size_t size) {
    crc_ = store::crc32c(crc_, data, size);
    append(static_cast<const char*>(data), size);
  }

  void flush() {
    if (buffer_.empty()) return;
    store::detail::writeAll(fd_, buffer_.data(), buffer_.size(), path_);
    position_ += buffer_.size();
    buffer_.clear();
  }

 private:
  void append(const char* data, std::size_t size) {
    while (size > 0) {
      const std::size_t room = kChunk - buffer_.size();
      const std::size_t take = size < room ? size : room;
      buffer_.append(data, take);
      data += take;
      size -= take;
      if (buffer_.size() == kChunk) flush();
    }
  }

  int fd_;
  std::string path_;
  std::string buffer_;
  std::uint64_t position_ = 0;
  std::uint64_t sectionStart_ = 0;
  std::uint32_t crc_ = 0;
};

std::string encodeMeta(const ImageMeta& meta) {
  using store::detail::putF64;
  using store::detail::putU32;
  using store::detail::putU64;
  using store::detail::putU8;
  std::string out;
  putU64(out, meta.locationCount);
  putU64(out, meta.apCount);
  putU64(out, meta.adjacencyLocationCount);
  putU64(out, meta.edgeCount);
  putU64(out, meta.generation);
  putU64(out, meta.intakeRecords);
  putU8(out, meta.hasIndex ? 1 : 0);
  putU64(out, meta.shardCount);
  putF64(out, meta.index.quantizer.floorDbm);
  putF64(out, meta.index.quantizer.bucketWidthDb);
  putU32(out, static_cast<std::uint32_t>(meta.index.quantizer.bucketCount));
  putU64(out, meta.index.maxShardEntries);
  putU64(out, meta.index.minShortlist);
  putU32(out, meta.index.marginBuckets);
  return out;
}

/// A raw-fd guard so early throws cannot leak the descriptor.
struct FdGuard {
  int fd = -1;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

ImageWriteInfo writeVenueImage(const std::string& path,
                               const core::WorldSnapshot& world) {
  const auto& db = world.fingerprints();
  if (!db)
    throw ImageError("writeVenueImage: world has no fingerprint database");
  const core::MotionDatabase& adjacency = world.adjacency();
  const index::TieredIndex* index = world.tieredIndex().get();

  const std::size_t n = db->size();
  const std::size_t apCount = db->apCount();

  ImageMeta meta;
  meta.locationCount = n;
  meta.apCount = apCount;
  meta.adjacencyLocationCount = adjacency.locationCount();
  meta.edgeCount = adjacency.entryCount();
  meta.generation = world.generation();
  meta.intakeRecords = world.intakeRecords();
  meta.hasIndex = index != nullptr;
  if (index != nullptr) {
    meta.shardCount = index->shardCount();
    meta.index = index->config();
  }

  // The invariant serving relies on: every fingerprinted location can
  // be looked up in the adjacency.  Catch a violating world here, at
  // write time, rather than shipping an image the loader must reject.
  for (std::size_t r = 0; r < n; ++r) {
    const env::LocationId id = db->idAt(r);
    if (id < 0 ||
        static_cast<std::uint64_t>(id) >= meta.adjacencyLocationCount)
      throw ImageError(
          "writeVenueImage: location id " + std::to_string(id) +
          " outside the adjacency's " +
          std::to_string(meta.adjacencyLocationCount) + " rows");
  }

  const std::string metaBytes = encodeMeta(meta);
  const std::string tmpPath = path + ".tmp";
  const std::string dir = directoryOf(path);

  FdGuard fd;
  fd.fd = util::retryEintr([&] {
    return ::open(tmpPath.c_str(),
                  O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  });
  if (fd.fd < 0)
    throw store::StoreError("open failed for " + tmpPath + ": " +
                            util::errnoMessage(errno));

  const std::size_t sectionCount = 5 + (meta.hasIndex ? 7 : 0);
  std::vector<SectionEntry> table;
  table.reserve(sectionCount);

  SectionStream out(fd.fd, tmpPath);
  {
    // Header + table placeholder; rewritten with real CRCs at the end.
    const std::vector<char> zeros(
        sizeof(FileHeader) + sectionCount * sizeof(SectionEntry), 0);
    out.write(zeros.data(), zeros.size());
  }

  // kMeta
  out.beginSection();
  out.write(metaBytes.data(), metaBytes.size());
  table.push_back(out.endSection(SectionId::kMeta));

  // kLocationIds
  out.beginSection();
  {
    const std::vector<env::LocationId>& ids = db->locationIds();
    out.write(ids.data(), ids.size() * sizeof(env::LocationId));
  }
  table.push_back(out.endSection(SectionId::kLocationIds));

  // kFlatBlocked: the radio map's matrix verbatim (appendRow
  // zero-fills the trailing block, so these bytes are deterministic).
  out.beginSection();
  {
    const kernel::FlatMatrix& flat = db->flatMatrix();
    out.write(flat.data(),
              flat.paddedRows() * flat.cols() * sizeof(double));
  }
  table.push_back(out.endSection(SectionId::kFlatBlocked));

  // kAdjacencyRowStart
  out.beginSection();
  {
    const std::span<const std::size_t> rowStarts = adjacency.rowStarts();
    out.write(rowStarts.data(), rowStarts.size() * sizeof(std::size_t));
  }
  table.push_back(out.endSection(SectionId::kAdjacencyRowStart));

  // kAdjacencyEdges: PairWindow has no padding, so the array is
  // written verbatim.
  out.beginSection();
  {
    const std::span<const kernel::PairWindow> edges = adjacency.edges();
    out.write(edges.data(), edges.size() * sizeof(kernel::PairWindow));
  }
  table.push_back(out.endSection(SectionId::kAdjacencyEdges));

  if (meta.hasIndex) {
    const std::size_t shardCount = index->shardCount();
    // kIndexShards: descriptors with back-to-back element offsets.
    out.beginSection();
    {
      std::uint64_t activeAt = 0;
      std::uint64_t signatureAt = 0;
      std::uint64_t varyingAt = 0;
      for (std::size_t s = 0; s < shardCount; ++s) {
        const index::ShardView& v = index->shardView(s);
        ShardRecord record{};
        record.rowBegin = v.rowBegin;
        record.rowEnd = v.rowEnd;
        record.activeApsStart = activeAt;
        record.activeApCount = v.activeAps.size();
        record.signatureStart = signatureAt;
        record.signatureBytes = v.signatures.size();
        record.varyingStart = varyingAt;
        record.varyingCount = v.varyingColumns.size();
        activeAt += v.activeAps.size();
        signatureAt += v.signatures.size();
        varyingAt += v.varyingColumns.size();
        out.write(&record, sizeof(record));
      }
    }
    table.push_back(out.endSection(SectionId::kIndexShards));

    // The per-shard arrays, each section the shards' spans back to
    // back.
    const auto writeEach = [&](SectionId id, auto member) {
      out.beginSection();
      for (std::size_t s = 0; s < shardCount; ++s) {
        const auto span = index->shardView(s).*member;
        out.write(span.data(), span.size_bytes());
      }
      table.push_back(out.endSection(id));
    };
    writeEach(SectionId::kIndexActiveAps, &index::ShardView::activeAps);
    writeEach(SectionId::kIndexMinBuckets, &index::ShardView::minBucket);
    writeEach(SectionId::kIndexMaxBuckets, &index::ShardView::maxBucket);
    writeEach(SectionId::kIndexSignatures, &index::ShardView::signatures);
    writeEach(SectionId::kIndexVaryingColumns,
              &index::ShardView::varyingColumns);
    writeEach(SectionId::kIndexColumnValues,
              &index::ShardView::columnValues);
  }

  out.flush();
  const std::uint64_t fileSize = out.position();

  // Rewrite the header and table in place now that the CRCs are known.
  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.layoutTag = kLayoutTag;
  header.fileSize = fileSize;
  header.sectionCount = static_cast<std::uint32_t>(table.size());
  header.tableCrc =
      store::crc32c(table.data(), table.size() * sizeof(SectionEntry));
  if (::lseek(fd.fd, 0, SEEK_SET) != 0)
    throw store::StoreError("lseek failed for " + tmpPath + ": " +
                            util::errnoMessage(errno));
  store::detail::writeAll(fd.fd, reinterpret_cast<const char*>(&header),
                          sizeof(header), tmpPath);
  store::detail::writeAll(fd.fd,
                          reinterpret_cast<const char*>(table.data()),
                          table.size() * sizeof(SectionEntry), tmpPath);

  store::detail::fsyncFd(fd.fd, tmpPath);
  ::close(fd.fd);
  fd.fd = -1;

  if (::rename(tmpPath.c_str(), path.c_str()) != 0)
    throw store::StoreError("rename failed for " + tmpPath + " -> " +
                            path + ": " + util::errnoMessage(errno));
  store::detail::fsyncDirectory(dir);

  return {fileSize, table.size()};
}

}  // namespace moloc::image
