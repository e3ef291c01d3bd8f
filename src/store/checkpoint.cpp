#include "store/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <vector>

#include "store/crc32c.hpp"
#include "util/checked_cast.hpp"
#include "store/format.hpp"
#include "store/posix_file.hpp"
#include "util/error.hpp"

namespace moloc::store {

namespace {

constexpr char kMagic[8] = {'M', 'O', 'L', 'O', 'C', 'K', 'P', 'T'};
/// v2 dropped v1's published-entry and radio-map blocks: a checkpoint
/// holds the intake state and nothing derived from it.
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kCrcBytes = 4;
/// Smallest possible encoding: magic(8) + version(4) + throughSeq(8) +
/// config(46) + capacity/locationCount(16) + rng(32) + counters(48) +
/// zero reservoir count(8) + CRC(4).
constexpr std::size_t kMinFileBytes =
    8 + 4 + 8 + 46 + 16 + 32 + 48 + 8 + kCrcBytes;

std::string checkpointFileName(std::uint64_t throughSeq) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "checkpoint-%020llu.ckpt",
                static_cast<unsigned long long>(throughSeq));
  return buffer;
}

bool parseCheckpointSeq(const std::string& name, std::uint64_t& seq) {
  // checkpoint-<20 digits>.ckpt
  if (name.size() != 36 || name.compare(0, 11, "checkpoint-") != 0 ||
      name.compare(31, 5, ".ckpt") != 0)
    return false;
  seq = 0;
  for (int i = 11; i < 31; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    const auto digit = static_cast<std::uint64_t>(name[i] - '0');
    // 20 digits can exceed uint64; a wrapped sequence would silently
    // mis-order checkpoints, so reject the name instead.
    if (seq > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
      return false;
    seq = seq * 10 + digit;
  }
  return true;
}

void encodeSnapshot(std::string& out,
                    const core::OnlineMotionDatabase::Snapshot& s) {
  detail::putF64(out, s.config.coarseDirectionThresholdDeg);
  detail::putF64(out, s.config.coarseOffsetThresholdMeters);
  detail::putF64(out, s.config.fineSigmaMultiplier);
  detail::putI32(out, s.config.minSamplesPerPair);
  detail::putF64(out, s.config.minDirectionSigmaDeg);
  detail::putF64(out, s.config.minOffsetSigmaMeters);
  detail::putU8(out, s.config.enableCoarseFilter ? 1 : 0);
  detail::putU8(out, s.config.enableFineFilter ? 1 : 0);

  detail::putU64(out, s.capacity);
  detail::putU64(out, s.locationCount);
  for (const std::uint64_t word : s.rngState) detail::putU64(out, word);

  detail::putU64(out, s.counters.observations);
  detail::putU64(out, s.counters.accepted);
  detail::putU64(out, s.counters.rejectedCoarse);
  detail::putU64(out, s.counters.droppedSelfPairs);
  detail::putU64(out, s.counters.rejectedFine);
  detail::putU64(out, s.counters.staleInvalidations);

  detail::putU64(out, s.reservoirs.size());
  for (const auto& pair : s.reservoirs) {
    detail::putI32(out, pair.i);
    detail::putI32(out, pair.j);
    detail::putU64(out, pair.seen);
    detail::putU32(
        out, util::checkedU32(pair.samples.size(), "reservoir sample count"));
    for (const auto& sample : pair.samples) {
      detail::putF64(out, sample.directionDeg);
      detail::putF64(out, sample.offsetMeters);
    }
  }
}

/// Guards a count field against allocation bombs: a corrupt count must
/// not reserve gigabytes before the Cursor notices the buffer ended.
std::uint64_t checkedCount(detail::Cursor& in, std::size_t minEntryBytes) {
  const std::uint64_t count = in.readU64();
  if (count > in.remaining() / minEntryBytes)
    throw CorruptionError("count " + std::to_string(count) +
                          " exceeds remaining data");
  return count;
}

core::OnlineMotionDatabase::Snapshot decodeSnapshot(detail::Cursor& in) {
  core::OnlineMotionDatabase::Snapshot s;
  s.config.coarseDirectionThresholdDeg = in.readF64();
  s.config.coarseOffsetThresholdMeters = in.readF64();
  s.config.fineSigmaMultiplier = in.readF64();
  s.config.minSamplesPerPair = in.readI32();
  s.config.minDirectionSigmaDeg = in.readF64();
  s.config.minOffsetSigmaMeters = in.readF64();
  s.config.enableCoarseFilter = in.readU8() != 0;
  s.config.enableFineFilter = in.readU8() != 0;

  s.capacity = in.readU64();
  s.locationCount = in.readU64();
  for (auto& word : s.rngState) word = in.readU64();

  s.counters.observations = in.readU64();
  s.counters.accepted = in.readU64();
  s.counters.rejectedCoarse = in.readU64();
  s.counters.droppedSelfPairs = in.readU64();
  s.counters.rejectedFine = in.readU64();
  s.counters.staleInvalidations = in.readU64();

  const std::uint64_t pairCount = checkedCount(in, 4 + 4 + 8 + 4);
  s.reservoirs.reserve(pairCount);
  for (std::uint64_t p = 0; p < pairCount; ++p) {
    core::OnlineMotionDatabase::Snapshot::PairState pair;
    pair.i = in.readI32();
    pair.j = in.readI32();
    pair.seen = in.readU64();
    const std::uint32_t sampleCount = in.readU32();
    if (sampleCount > in.remaining() / 16)
      throw CorruptionError("sample count " + std::to_string(sampleCount) +
                            " exceeds remaining data");
    pair.samples.reserve(sampleCount);
    for (std::uint32_t k = 0; k < sampleCount; ++k) {
      core::OnlineMotionDatabase::ReservoirSample sample;
      sample.directionDeg = in.readF64();
      sample.offsetMeters = in.readF64();
      pair.samples.push_back(sample);
    }
    s.reservoirs.push_back(std::move(pair));
  }
  return s;
}

struct CheckpointFile {
  std::uint64_t seq = 0;
  std::string path;
};

std::vector<CheckpointFile> listCheckpoints(const std::string& dir) {
  std::vector<CheckpointFile> files;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return files;
  for (const auto& entry : it) {
    std::uint64_t seq = 0;
    if (!entry.is_regular_file()) continue;
    if (!parseCheckpointSeq(entry.path().filename().string(), seq))
      continue;
    files.push_back({seq, entry.path().string()});
  }
  std::sort(files.begin(), files.end(),
            [](const CheckpointFile& a, const CheckpointFile& b) {
              return a.seq > b.seq;  // Newest first.
            });
  return files;
}

CheckpointData decodeCheckpoint(const std::string& buffer,
                                const std::string& path) {
  if (buffer.size() < kMinFileBytes)
    throw CorruptionError("checkpoint '" + path + "' is too short");
  const std::size_t bodyBytes = buffer.size() - kCrcBytes;
  detail::Cursor trailer(buffer.data() + bodyBytes, kCrcBytes);
  if (crc32c(buffer.data(), bodyBytes) != trailer.readU32())
    throw CorruptionError("checkpoint '" + path +
                          "' failed its CRC32C check");

  detail::Cursor in(buffer.data(), bodyBytes);
  char magic[sizeof kMagic];
  in.readBytes(magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    throw CorruptionError("bad checkpoint magic in '" + path + "'");
  const std::uint32_t version = in.readU32();
  if (version != kVersion)
    throw CorruptionError("unsupported checkpoint version " +
                          std::to_string(version) + " in '" + path + "'");

  CheckpointData data;
  data.throughSeq = in.readU64();
  data.snapshot = decodeSnapshot(in);
  if (in.remaining() != 0)
    throw CorruptionError("trailing garbage in checkpoint '" + path + "'");
  return data;
}

}  // namespace

std::string writeCheckpointFile(
    const std::string& dir, std::uint64_t throughSeq,
    const core::OnlineMotionDatabase::Snapshot& snapshot) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    throw StoreError("cannot create directory '" + dir +
                     "': " + ec.message());

  std::string body;
  body.reserve(1024);
  body.append(kMagic, sizeof kMagic);
  detail::putU32(body, kVersion);
  detail::putU64(body, throughSeq);
  encodeSnapshot(body, snapshot);
  detail::putU32(body, crc32c(body.data(), body.size()));

  const std::string path = dir + "/" + checkpointFileName(throughSeq);
  detail::atomicWriteFile(path, body);
  return path;
}

std::optional<CheckpointLoadResult> loadNewestCheckpoint(
    const std::string& dir) {
  CheckpointLoadResult result;
  for (const auto& file : listCheckpoints(dir)) {
    std::string buffer;
    if (!detail::readFile(file.path, buffer)) {
      ++result.skippedInvalid;
      continue;
    }
    try {
      result.data = decodeCheckpoint(buffer, file.path);
    } catch (const CorruptionError&) {
      ++result.skippedInvalid;
      continue;
    } catch (const std::exception&) {
      // Structurally invalid contents: same treatment as a CRC
      // failure — skip, keep looking.
      ++result.skippedInvalid;
      continue;
    }
    if (result.data.throughSeq != file.seq) {
      // The name is the compaction key; a file whose contents disagree
      // with its own name is not trustworthy.
      ++result.skippedInvalid;
      continue;
    }
    result.path = file.path;
    return result;
  }
  return std::nullopt;
}

std::size_t pruneCheckpoints(const std::string& dir, std::size_t keep) {
  if (keep == 0)
    throw util::ConfigError(
        "pruneCheckpoints: keep must be >= 1 (the newest checkpoint is "
        "never removed)");
  const auto files = listCheckpoints(dir);  // Newest first.
  std::size_t removed = 0;
  for (std::size_t f = keep; f < files.size(); ++f) {
    detail::removeFileDurably(files[f].path, dir);
    ++removed;
  }
  return removed;
}

}  // namespace moloc::store
