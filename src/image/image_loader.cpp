#include "image/image_loader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <vector>

#include "kernel/fingerprint_kernel.hpp"
#include "store/crc32c.hpp"
#include "store/format.hpp"
#include "util/posix_error.hpp"
#include "util/retry_eintr.hpp"

namespace moloc::image {

/// The mapping plus the view structures built over it.  One heap
/// object owns everything; the public shared_ptrs alias into it, so
/// the refcount of this Core is the keep-alive for every view.
struct VenueImage::Core {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  void* mapBase = nullptr;
  std::size_t mapLength = 0;
  std::vector<std::uint8_t> heap;

  radio::FingerprintDatabase db;
  core::MotionDatabase adjacency;

  Core() = default;
  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;
  ~Core() {
    if (mapBase != nullptr) ::munmap(mapBase, mapLength);
  }
};

namespace {

struct FdGuard {
  int fd = -1;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

[[noreturn]] void fail(const std::string& what) { throw ImageError(what); }

const char* sectionName(SectionId id) {
  switch (id) {
    case SectionId::kMeta: return "meta";
    case SectionId::kLocationIds: return "location_ids";
    case SectionId::kFlatBlocked: return "flat_blocked";
    case SectionId::kAdjacencyRowStart: return "adjacency_row_start";
    case SectionId::kAdjacencyEdges: return "adjacency_edges";
    case SectionId::kIndexShards: return "index_shards";
    case SectionId::kIndexActiveAps: return "index_active_aps";
    case SectionId::kIndexMinBuckets: return "index_min_buckets";
    case SectionId::kIndexMaxBuckets: return "index_max_buckets";
    case SectionId::kIndexSignatures: return "index_signatures";
    case SectionId::kIndexVaryingColumns: return "index_varying_columns";
    case SectionId::kIndexColumnValues: return "index_column_values";
  }
  return "unknown";
}

bool knownSection(std::uint32_t id) {
  constexpr std::uint32_t kRetiredRowValues = 3;
  return id >= static_cast<std::uint32_t>(SectionId::kMeta) &&
         id <= static_cast<std::uint32_t>(SectionId::kIndexColumnValues) &&
         id != kRetiredRowValues;
}

/// Bulk sections: their CRC check is what VerifyMode::kBulkUnverified
/// skips (and their content scans with it).  Everything else is
/// metadata-sized and always verified.
bool bulkSection(SectionId id) {
  return id == SectionId::kFlatBlocked || id == SectionId::kAdjacencyEdges ||
         id == SectionId::kIndexSignatures;
}

struct SectionRef {
  const std::uint8_t* data = nullptr;
  std::uint64_t length = 0;
  bool present = false;
};

ImageMeta decodeMeta(const std::uint8_t* data, std::uint64_t length) {
  ImageMeta meta;
  try {
    store::detail::Cursor cursor(data, static_cast<std::size_t>(length));
    meta.locationCount = cursor.readU64();
    meta.apCount = cursor.readU64();
    meta.adjacencyLocationCount = cursor.readU64();
    meta.edgeCount = cursor.readU64();
    meta.generation = cursor.readU64();
    meta.intakeRecords = cursor.readU64();
    meta.hasIndex = cursor.readU8() != 0;
    meta.shardCount = cursor.readU64();
    meta.index.quantizer.floorDbm = cursor.readF64();
    meta.index.quantizer.bucketWidthDb = cursor.readF64();
    meta.index.quantizer.bucketCount =
        static_cast<int>(cursor.readU32());
    meta.index.maxShardEntries = cursor.readU64();
    meta.index.minShortlist = cursor.readU64();
    meta.index.marginBuckets = cursor.readU32();
    if (cursor.remaining() != 0)
      fail("meta section has trailing bytes");
  } catch (const store::CorruptionError& e) {
    fail(std::string("meta section damaged: ") + e.what());
  }
  return meta;
}

/// a * b * c with overflow detection (hostile counts must not wrap
/// into a small product that passes the length check).
bool mulFits(std::uint64_t a, std::uint64_t b, std::uint64_t c,
             std::uint64_t* out) {
  std::uint64_t ab = 0;
  if (__builtin_mul_overflow(a, b, &ab)) return false;
  return !__builtin_mul_overflow(ab, c, out);
}

void expectLength(const SectionRef& section, SectionId id,
                  std::uint64_t count, std::uint64_t elemSize) {
  std::uint64_t expected = 0;
  if (!mulFits(count, elemSize, 1, &expected) ||
      section.length != expected)
    fail(std::string(sectionName(id)) +
         " section length does not match the meta counts");
}

}  // namespace

VenueImage VenueImage::load(std::shared_ptr<Core> core,
                            VerifyMode verify) {
  const std::uint8_t* base = core->data;
  const std::size_t size = core->size;

  // ---- Header -------------------------------------------------------
  if (size < sizeof(FileHeader)) fail("truncated header");
  FileHeader header{};
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0)
    fail("bad magic (not a venue image)");
  if (header.version != kFormatVersion)
    fail("unsupported format version " + std::to_string(header.version));
  if (header.layoutTag != kLayoutTag)
    fail("layout tag mismatch: image was written by an incompatible "
         "host ABI");
  if (header.fileSize != size)
    fail("file size mismatch: header says " +
         std::to_string(header.fileSize) + ", have " +
         std::to_string(size));
  if (header.sectionCount == 0 || header.sectionCount > kMaxSections)
    fail("section count " + std::to_string(header.sectionCount) +
         " out of range");

  // ---- Section table ------------------------------------------------
  const std::uint64_t tableBytes =
      static_cast<std::uint64_t>(header.sectionCount) *
      sizeof(SectionEntry);
  if (tableBytes > size - sizeof(FileHeader)) fail("truncated section table");
  const std::uint8_t* tableBase = base + sizeof(FileHeader);
  if (store::crc32c(tableBase, static_cast<std::size_t>(tableBytes)) !=
      header.tableCrc)
    fail("section table CRC mismatch");
  std::vector<SectionEntry> table(header.sectionCount);
  std::memcpy(table.data(), tableBase,
              static_cast<std::size_t>(tableBytes));

  const std::uint64_t contentStart = sizeof(FileHeader) + tableBytes;
  SectionRef sections[static_cast<std::uint32_t>(
                          SectionId::kIndexColumnValues) +
                      1] = {};
  for (const SectionEntry& entry : table) {
    if (!knownSection(entry.id))
      fail("unknown section id " + std::to_string(entry.id));
    if (entry.reserved != 0) fail("nonzero reserved section field");
    if (entry.offset % kSectionAlignment != 0)
      fail("misaligned section offset");
    if (entry.offset < contentStart || entry.offset > size ||
        entry.length > size - entry.offset)
      fail(std::string(sectionName(static_cast<SectionId>(entry.id))) +
           " section out of file bounds");
    SectionRef& ref = sections[entry.id];
    if (ref.present)
      fail(std::string("duplicate ") +
           sectionName(static_cast<SectionId>(entry.id)) + " section");
    ref.data = base + entry.offset;
    ref.length = entry.length;
    ref.present = true;
  }

  // No two sections may overlap (a crafted table could alias one
  // validated section's bytes into another's).
  {
    std::vector<SectionEntry> byOffset(table);
    std::sort(byOffset.begin(), byOffset.end(),
              [](const SectionEntry& a, const SectionEntry& b) {
                return a.offset < b.offset;
              });
    std::uint64_t end = contentStart;
    for (const SectionEntry& entry : byOffset) {
      if (entry.offset < end) fail("overlapping sections");
      end = entry.offset + entry.length;
    }
  }

  const auto section = [&sections](SectionId id) -> const SectionRef& {
    return sections[static_cast<std::uint32_t>(id)];
  };
  for (const SectionId required :
       {SectionId::kMeta, SectionId::kLocationIds, SectionId::kFlatBlocked,
        SectionId::kAdjacencyRowStart, SectionId::kAdjacencyEdges})
    if (!section(required).present)
      fail(std::string("missing ") + sectionName(required) + " section");

  // ---- CRCs ---------------------------------------------------------
  for (const SectionEntry& entry : table) {
    const SectionId id = static_cast<SectionId>(entry.id);
    if (verify == VerifyMode::kBulkUnverified && bulkSection(id))
      continue;
    if (store::crc32c(base + entry.offset,
                      static_cast<std::size_t>(entry.length)) != entry.crc)
      fail(std::string(sectionName(id)) + " section CRC mismatch");
  }

  // ---- Meta + cross-section geometry --------------------------------
  const ImageMeta meta =
      decodeMeta(section(SectionId::kMeta).data,
                 section(SectionId::kMeta).length);
  const std::uint64_t n = meta.locationCount;
  const std::uint64_t apCount = meta.apCount;
  const std::uint64_t adjLocs = meta.adjacencyLocationCount;
  if (n > 0 && apCount == 0) fail("entries without APs");
  if (n == 0 && apCount != 0) fail("APs without entries");

  expectLength(section(SectionId::kLocationIds), SectionId::kLocationIds,
               n, sizeof(env::LocationId));
  {
    std::uint64_t expected = 0;
    if (!mulFits(paddedRowCount(n), apCount, sizeof(double), &expected) ||
        section(SectionId::kFlatBlocked).length != expected)
      fail("flat_blocked section length does not match the meta counts");
  }
  if (adjLocs >
      std::numeric_limits<std::uint64_t>::max() / sizeof(std::size_t) - 1)
    fail("adjacency location count out of range");
  expectLength(section(SectionId::kAdjacencyRowStart),
               SectionId::kAdjacencyRowStart, adjLocs + 1,
               sizeof(std::size_t));
  expectLength(section(SectionId::kAdjacencyEdges),
               SectionId::kAdjacencyEdges, meta.edgeCount,
               sizeof(kernel::PairWindow));

  // ---- Content invariants the views rely on -------------------------
  const auto* rowStart = reinterpret_cast<const std::size_t*>(
      section(SectionId::kAdjacencyRowStart).data);
  if (rowStart[0] != 0) fail("adjacency row starts must begin at 0");
  for (std::uint64_t row = 0; row < adjLocs; ++row)
    if (rowStart[row + 1] < rowStart[row])
      fail("adjacency row starts must be non-decreasing");
  if (rowStart[adjLocs] != meta.edgeCount)
    fail("adjacency row starts do not cover the edge array");

  const auto* ids = reinterpret_cast<const env::LocationId*>(
      section(SectionId::kLocationIds).data);
  for (std::uint64_t r = 0; r < n; ++r)
    if (ids[r] < 0 || static_cast<std::uint64_t>(ids[r]) >= adjLocs)
      fail("location id " + std::to_string(ids[r]) +
           " outside the adjacency's rows");

  const auto* edges = reinterpret_cast<const kernel::PairWindow*>(
      section(SectionId::kAdjacencyEdges).data);
  if (verify == VerifyMode::kFull) {
    // Edge destinations only ever feed comparisons (binary search and
    // candidate matching), so this is a sanity check, not a safety
    // requirement — which is why kBulkUnverified may skip the scan.
    for (std::uint64_t e = 0; e < meta.edgeCount; ++e)
      if (edges[e].to < 0 ||
          static_cast<std::uint64_t>(edges[e].to) >= adjLocs)
        fail("adjacency edge destination outside the adjacency's rows");
  }

  // ---- Index geometry -----------------------------------------------
  std::vector<index::ShardView> shardViews;
  constexpr SectionId kIndexSections[] = {
      SectionId::kIndexShards,         SectionId::kIndexActiveAps,
      SectionId::kIndexMinBuckets,     SectionId::kIndexMaxBuckets,
      SectionId::kIndexSignatures,     SectionId::kIndexVaryingColumns,
      SectionId::kIndexColumnValues};
  for (const SectionId id : kIndexSections)
    if (section(id).present != meta.hasIndex)
      fail("index sections do not match the meta hasIndex flag");

  if (meta.hasIndex) {
    try {
      index::validateQuantizer(meta.index.quantizer);
    } catch (const std::invalid_argument& e) {
      fail(std::string("bad quantizer config: ") + e.what());
    }
    expectLength(section(SectionId::kIndexShards), SectionId::kIndexShards,
                 meta.shardCount, sizeof(ShardRecord));
    std::uint64_t columnValueCount = 0;
    if (!mulFits(meta.shardCount, apCount, 1, &columnValueCount))
      fail("index shard count out of range");
    expectLength(section(SectionId::kIndexColumnValues),
                 SectionId::kIndexColumnValues, columnValueCount,
                 sizeof(double));
    const SectionRef& activeSec = section(SectionId::kIndexActiveAps);
    const SectionRef& minSec = section(SectionId::kIndexMinBuckets);
    const SectionRef& maxSec = section(SectionId::kIndexMaxBuckets);
    const SectionRef& signatureSec = section(SectionId::kIndexSignatures);
    const SectionRef& varyingSec = section(SectionId::kIndexVaryingColumns);
    if (activeSec.length % sizeof(std::uint32_t) != 0 ||
        varyingSec.length % sizeof(std::uint32_t) != 0)
      fail("index table sections not a whole number of elements");
    const std::uint64_t activeTotal =
        activeSec.length / sizeof(std::uint32_t);
    const std::uint64_t varyingTotal =
        varyingSec.length / sizeof(std::uint32_t);
    const std::uint64_t signatureTotal = signatureSec.length;
    if (minSec.length != activeTotal || maxSec.length != activeTotal)
      fail("index bucket-range sections do not match active AP count");

    const auto* records = reinterpret_cast<const ShardRecord*>(
        section(SectionId::kIndexShards).data);
    const auto* activeAps =
        reinterpret_cast<const std::uint32_t*>(activeSec.data);
    const auto* minBuckets = minSec.data;
    const auto* maxBuckets = maxSec.data;
    const auto* signatures = signatureSec.data;
    const auto* varying =
        reinterpret_cast<const std::uint32_t*>(varyingSec.data);
    const auto* columnValues = reinterpret_cast<const double*>(
        section(SectionId::kIndexColumnValues).data);

    shardViews.reserve(static_cast<std::size_t>(meta.shardCount));
    std::uint64_t activeAt = 0;
    std::uint64_t signatureAt = 0;
    std::uint64_t varyingAt = 0;
    for (std::uint64_t s = 0; s < meta.shardCount; ++s) {
      const ShardRecord& record = records[s];
      if (record.rowEnd <= record.rowBegin || record.rowEnd > n)
        fail("shard row range out of bounds");
      const std::uint64_t count = record.rowEnd - record.rowBegin;
      // Shards are packed back to back, so the element offsets are
      // fully determined — any other value is damage.
      if (record.activeApsStart != activeAt ||
          record.activeApCount > activeTotal - activeAt)
        fail("shard active-AP range out of bounds");
      std::uint64_t expectedBytes = 0;
      if (!mulFits(count,
                   index::signatureStride(
                       static_cast<std::size_t>(record.activeApCount)),
                   1, &expectedBytes) ||
          record.signatureBytes != expectedBytes)
        fail("shard signature size does not match its shape");
      if (record.signatureStart != signatureAt ||
          record.signatureBytes > signatureTotal - signatureAt)
        fail("shard signature range out of bounds");
      if (record.varyingStart != varyingAt ||
          record.varyingCount > varyingTotal - varyingAt)
        fail("shard varying-column range out of bounds");

      index::ShardView view;
      view.rowBegin = static_cast<std::size_t>(record.rowBegin);
      view.rowEnd = static_cast<std::size_t>(record.rowEnd);
      view.activeAps = {activeAps + activeAt,
                        static_cast<std::size_t>(record.activeApCount)};
      view.minBucket = {minBuckets + activeAt,
                        static_cast<std::size_t>(record.activeApCount)};
      view.maxBucket = {maxBuckets + activeAt,
                        static_cast<std::size_t>(record.activeApCount)};
      view.signatures = {signatures + signatureAt,
                         static_cast<std::size_t>(record.signatureBytes)};
      view.varyingColumns = {varying + varyingAt,
                             static_cast<std::size_t>(record.varyingCount)};
      view.columnValues = {columnValues + s * apCount,
                           static_cast<std::size_t>(apCount)};
      shardViews.push_back(view);
      activeAt += record.activeApCount;
      signatureAt += record.signatureBytes;
      varyingAt += record.varyingCount;
    }
    if (activeAt != activeTotal || signatureAt != signatureTotal ||
        varyingAt != varyingTotal)
      fail("index tables have unreferenced trailing elements");
  }

  // ---- Build the zero-copy views ------------------------------------
  const auto* flatData = reinterpret_cast<const double*>(
      section(SectionId::kFlatBlocked).data);
  try {
    core->db = radio::FingerprintDatabase::fromImageView(
        {ids, static_cast<std::size_t>(n)},
        kernel::FlatMatrix::view(flatData, static_cast<std::size_t>(n),
                                 static_cast<std::size_t>(apCount)));
  } catch (const std::invalid_argument& e) {
    fail(std::string("fingerprint sections rejected: ") + e.what());
  }
  core->adjacency = core::MotionDatabase::view(
      {rowStart, static_cast<std::size_t>(adjLocs) + 1},
      {edges, static_cast<std::size_t>(meta.edgeCount)});

  VenueImage image;
  image.meta_ = meta;
  image.mapped_ = core->mapBase != nullptr;
  std::shared_ptr<const Core> owned = std::move(core);
  image.fingerprints_ = std::shared_ptr<const radio::FingerprintDatabase>(
      owned, &owned->db);
  image.adjacency_ = std::shared_ptr<const core::MotionDatabase>(
      owned, &owned->adjacency);
  if (meta.hasIndex) {
    index::IndexConfig config = meta.index;
    config.exhaustiveCheck = false;
    try {
      image.index_ = std::make_shared<const index::TieredIndex>(
          index::TieredIndex::fromImageViews(image.fingerprints_, config,
                                             shardViews));
    } catch (const std::invalid_argument& e) {
      fail(std::string("index sections rejected: ") + e.what());
    }
  }
  image.core_ = std::move(owned);
  return image;
}

VenueImage VenueImage::open(const std::string& path, VerifyMode verify) {
  auto core = std::make_shared<Core>();
  FdGuard fd;
  fd.fd = util::retryEintr(
      [&] { return ::open(path.c_str(), O_RDONLY | O_CLOEXEC); });
  if (fd.fd < 0)
    throw store::StoreError("open failed for " + path + ": " +
                            util::errnoMessage(errno));
  struct stat st{};
  if (::fstat(fd.fd, &st) != 0)
    throw store::StoreError("fstat failed for " + path + ": " +
                            util::errnoMessage(errno));
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < sizeof(FileHeader))
    fail("truncated header");
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd.fd, 0);
  if (mapped == MAP_FAILED)
    throw store::StoreError("mmap failed for " + path + ": " +
                            util::errnoMessage(errno));
  core->mapBase = mapped;
  core->mapLength = size;
  core->data = static_cast<const std::uint8_t*>(mapped);
  core->size = size;
  return load(std::move(core), verify);
}

VenueImage VenueImage::fromBuffer(std::span<const std::uint8_t> bytes,
                                  VerifyMode verify) {
  auto core = std::make_shared<Core>();
  core->heap.assign(bytes.begin(), bytes.end());
  core->data = core->heap.data();
  core->size = core->heap.size();
  return load(std::move(core), verify);
}

}  // namespace moloc::image
