// Micro-benchmark of the durable state subsystem (src/store) and the
// venue-image cold-start path (src/image):
//
//   1. WAL append throughput under each fsync policy.  every_record is
//      bounded by device sync latency, every_n amortizes it over a
//      window, none measures the pure write() + CRC path.  Record
//      counts are scaled per policy so each run takes comparable wall
//      time.
//   2. Recovery time vs WAL length: a log of N accepted observations
//      is replayed through the normal OnlineMotionDatabase intake (the
//      bit-identical path store::recover uses), with and without a
//      checkpoint covering the full log — the difference is what a
//      checkpoint buys at restart.
//   3. Checkpoint capture vs venue size: an intake holding four
//      accepted observations per map leg of a generated campus venue
//      is captured (OnlineMotionDatabase::snapshot()), written
//      (store::writeCheckpointFile), and restored into fresh intakes,
//      each then read twice: the first database() after restore()
//      fits every reservoir, and the second, every fit cached, is what
//      a publish costs when no pair changed.  Every figure is the best
//      of kCaptureReps cycles.  Capture must stay O(retained samples):
//      the run exits non-zero when snapshot() time per retained sample
//      at the largest venue exceeds 4x that at campus-1k, or when a
//      restored read differs bitwise from the live database.
//   4. Cold start vs venue size (campus-1k .. campus-64k): time from
//      "venue image on disk" to "the serving world is ready"
//      (FingerprintDatabase + MotionDatabase + coordinates +
//      TieredIndex),
//      along three paths:
//        binary_deserialize — whole-file read into a heap buffer, then
//                             VenueImage::fromBuffer: full CRC + views
//                             over the private heap copy
//        mmap_image_full    — VenueImage::open: mmap + CRC every
//                             section
//        mmap_image_bulk    — mmap + metadata-only CRC (the
//                             millisecond cold-attach path)
//      Every loaded variant answers one probe query bitwise-identical
//      to the generator's own database before its time is accepted.
//      Times are process cold start with a warm page cache — the
//      restart/failover case the image format exists for.
//
// Output: tables on stdout plus the machine-readable snapshot
// bench_results/BENCH_micro_store.json (schema in
// docs/performance.md), gated by tools/check_bench_json.py in CI.
//
// Modes: the no-arg default sweeps checkpoint capture and cold start
// at 1k/4k/16k; --full adds the 64k cold start the acceptance numbers
// quote; --smoke is the minimal perf-smoke run (capture at 1k and
// 16k, cold start at 1k only, shortened append/recovery loops).

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/online_motion_database.hpp"
#include "core/world_snapshot.hpp"
#include "env/floor_plan.hpp"
#include "image/image_loader.hpp"
#include "image/image_writer.hpp"
#include "index/tiered_index.hpp"
#include "radio/fingerprint_database.hpp"
#include "store/checkpoint.hpp"
#include "store/posix_file.hpp"
#include "store/state_store.hpp"
#include "store/wal.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "worldgen/generated_venue.hpp"
#include "worldgen/venue_spec.hpp"

namespace {

using namespace moloc;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kProbeTopK = 8;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string scratchDir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("moloc_micro_store_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// A corridor with three reference locations; every benchmark record
/// is an accepted observation on it.
env::FloorPlan benchPlan() {
  env::FloorPlan plan(12.0, 4.0);
  plan.addReferenceLocation({2.0, 2.0});
  plan.addReferenceLocation({6.0, 2.0});
  plan.addReferenceLocation({10.0, 2.0});
  return plan;
}

struct AppendRow {
  std::string policy;
  std::uint64_t records = 0;
  double seconds = 0.0;
  std::uint64_t fsyncs = 0;
  std::uint64_t bytes = 0;
};

AppendRow benchAppend(const std::string& name, store::WalConfig config,
                      std::uint64_t records) {
  const std::string dir = scratchDir("append_" + name);
  AppendRow row;
  row.policy = name;
  row.records = records;
  {
    store::WalWriter writer(dir, config);
    const auto start = Clock::now();
    for (std::uint64_t k = 0; k < records; ++k)
      writer.append(static_cast<env::LocationId>(k % 2),
                    static_cast<env::LocationId>(1 + k % 2),
                    88.0 + 0.2 * static_cast<double>(k % 9),
                    3.7 + 0.02 * static_cast<double>(k % 11));
    writer.sync();
    row.seconds = secondsSince(start);
    row.fsyncs = writer.stats().fsyncs;
    row.bytes = writer.stats().bytes;
  }
  std::filesystem::remove_all(dir);
  return row;
}

struct RecoveryRow {
  std::uint64_t walRecords = 0;
  bool checkpointed = false;
  double seconds = 0.0;
  std::uint64_t replayed = 0;
};

/// Builds a store holding `records` accepted observations, optionally
/// checkpointing at the end, then times a cold recover().
RecoveryRow benchRecovery(const env::FloorPlan& plan,
                          std::uint64_t records, bool checkpointed) {
  const std::string dir = scratchDir(
      "recover_" + std::to_string(records) +
      (checkpointed ? "_ckpt" : "_wal"));
  {
    core::OnlineMotionDatabase db(plan.positions(), {},
                                  /*reservoirCapacity=*/64, /*seed=*/7);
    store::StoreConfig config;
    config.wal.fsync = store::FsyncPolicy::kNone;
    store::StateStore store(dir, config);
    db.setSink(&store);
    for (std::uint64_t k = 0; k < records; ++k)
      db.addObservation(static_cast<env::LocationId>(k % 2),
                        static_cast<env::LocationId>(1 + k % 2),
                        88.0 + 0.2 * static_cast<double>(k % 9),
                        3.7 + 0.02 * static_cast<double>(k % 11));
    if (checkpointed) store.checkpoint(db);
  }

  RecoveryRow row;
  row.walRecords = records;
  row.checkpointed = checkpointed;
  core::OnlineMotionDatabase db(plan.positions(), {}, 64, 7);
  const auto start = Clock::now();
  const auto result = store::recover(dir, db);
  row.seconds = secondsSince(start);
  row.replayed = result.replayedRecords;
  std::filesystem::remove_all(dir);
  return row;
}

// ---- Checkpoint capture vs venue size -----------------------------

struct CaptureRow {
  std::size_t locations = 0;
  std::size_t pairs = 0;    ///< Reservoirs (map legs) in the snapshot.
  std::size_t samples = 0;  ///< Retained samples across them.
  // Each figure is the best of kCaptureReps.
  double snapshotSeconds = 0.0;
  double writeSeconds = 0.0;
  double restoreSeconds = 0.0;  ///< restore(): fits nothing.
  double readSeconds = 0.0;     ///< First database(): fits every pair.
  double rereadSeconds = 0.0;   ///< Second database(): every fit cached.
  std::uint64_t bytes = 0;
};

constexpr std::size_t kCaptureReps = 5;

/// Every entry of `motion` in forEachEntry order as raw bits: both
/// ids, the four moments and the sample count.  Equal vectors are
/// bitwise-equal databases.
std::vector<std::uint64_t> entryBits(const core::MotionDatabase& motion) {
  std::vector<std::uint64_t> bits;
  motion.forEachEntry([&](env::LocationId i, env::LocationId j,
                          const core::RlmStats& stats) {
    bits.insert(bits.end(),
                {static_cast<std::uint64_t>(i),
                 static_cast<std::uint64_t>(j),
                 std::bit_cast<std::uint64_t>(stats.muDirectionDeg),
                 std::bit_cast<std::uint64_t>(stats.sigmaDirectionDeg),
                 std::bit_cast<std::uint64_t>(stats.muOffsetMeters),
                 std::bit_cast<std::uint64_t>(stats.sigmaOffsetMeters),
                 static_cast<std::uint64_t>(stats.sampleCount)});
  });
  return bits;
}

CaptureRow benchCapture(std::size_t locations) {
  const worldgen::GeneratedVenue venue(
      worldgen::venueSpecForLocations(locations));
  const env::FloorPlan& plan = venue.site().plan;
  core::OnlineMotionDatabase db(plan.positions());
  // Four accepted observations per map leg, jittered well inside the
  // coarse filter, so every leg publishes an entry.
  constexpr double kJitter[4][2] = {
      {-1.0, -0.05}, {-0.3, 0.02}, {0.4, -0.01}, {1.1, 0.04}};
  venue.motion().forEachEntry([&](env::LocationId i, env::LocationId j,
                                  const core::RlmStats& stats) {
    if (i > j) return;  // Each leg once, from its mirror-free side.
    for (const auto& jitter : kJitter)
      db.addObservation(i, j, stats.muDirectionDeg + jitter[0],
                        stats.muOffsetMeters + jitter[1]);
  });

  CaptureRow row;
  row.locations = venue.locationCount();
  const std::string dir = scratchDir("capture_" + std::to_string(locations));
  core::OnlineMotionDatabase::Snapshot snapshot;
  row.snapshotSeconds = row.writeSeconds = 1e30;
  for (std::size_t r = 0; r < kCaptureReps; ++r) {
    auto start = Clock::now();
    snapshot = db.snapshot();
    row.snapshotSeconds = std::min(row.snapshotSeconds, secondsSince(start));
    start = Clock::now();
    const std::string path = store::writeCheckpointFile(dir, 1, snapshot);
    row.writeSeconds = std::min(row.writeSeconds, secondsSince(start));
    row.bytes = std::filesystem::file_size(path);
  }
  row.pairs = snapshot.reservoirs.size();
  for (const auto& pair : snapshot.reservoirs)
    row.samples += pair.samples.size();

  // Correctness guard, outside the timed regions: every leg has an
  // entry, and every restored read is the live database bit for bit.
  const core::MotionDatabase live = db.database();
  const std::vector<std::uint64_t> liveBits = entryBits(live);
  bool identical = live.entryCount() == 2 * row.pairs;
  row.restoreSeconds = row.readSeconds = row.rereadSeconds = 1e30;
  for (std::size_t r = 0; r < kCaptureReps; ++r) {
    core::OnlineMotionDatabase restored(plan.positions());
    auto start = Clock::now();
    restored.restore(snapshot);
    row.restoreSeconds = std::min(row.restoreSeconds, secondsSince(start));
    start = Clock::now();
    const core::MotionDatabase read = restored.database();
    row.readSeconds = std::min(row.readSeconds, secondsSince(start));
    start = Clock::now();
    const core::MotionDatabase reread = restored.database();
    row.rereadSeconds = std::min(row.rereadSeconds, secondsSince(start));
    identical = identical && entryBits(read) == liveBits &&
                entryBits(reread) == liveBits;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: restore at %zu locations read entries "
                 "differing from the live database\n",
                 row.locations);
    std::exit(EXIT_FAILURE);
  }
  std::filesystem::remove_all(dir);
  return row;
}

// ---- Cold start: binary deserialize vs mmap ------------------------

struct ColdVariant {
  std::string name;
  double seconds = 0.0;      ///< Best of `reps` runs.
  double meanSeconds = 0.0;
};

struct ColdStartRow {
  std::size_t locations = 0;
  std::size_t apCount = 0;
  std::uint64_t imageBytes = 0;
  double imageWriteSeconds = 0.0;
  /// binary_deserialize, mmap_image_full, mmap_image_bulk.
  std::vector<ColdVariant> variants;
};

bool matchesBitwise(const std::vector<radio::Match>& a,
                    const std::vector<radio::Match>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].location != b[i].location ||
        a[i].dissimilarity != b[i].dissimilarity ||
        a[i].probability != b[i].probability)
      return false;
  return true;
}

/// Times `loadOnce`, which must produce the serving world (radio map,
/// CSR adjacency, coordinates, index) before its clock stops.
ColdVariant timeColdVariant(
    const std::string& name, std::size_t reps,
    const radio::Fingerprint& probe,
    const std::vector<radio::Match>& expected,
    const std::function<image::VenueImage()>& loadOnce) {
  ColdVariant variant;
  variant.name = name;
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    const image::VenueImage loaded = loadOnce();
    samples.push_back(secondsSince(start));

    // Correctness guard, outside the timed region: a load path that
    // got faster by serving different bytes is not a data point.
    const core::WorldSnapshot& world = *loaded.world();
    std::vector<radio::Match> got;
    world.fingerprints()->queryInto(probe, kProbeTopK, got);
    if (!matchesBitwise(got, expected)) {
      std::fprintf(stderr,
                   "FAIL: %s served a probe query differing from the "
                   "generator's database\n",
                   name.c_str());
      std::exit(EXIT_FAILURE);
    }
    if (world.positions() == nullptr || world.tieredIndex() == nullptr) {
      std::fprintf(stderr, "FAIL: %s produced an incomplete world\n",
                   name.c_str());
      std::exit(EXIT_FAILURE);
    }
  }
  double best = samples.front();
  double sum = 0.0;
  for (const double s : samples) {
    best = std::min(best, s);
    sum += s;
  }
  variant.seconds = best;
  variant.meanSeconds = sum / static_cast<double>(samples.size());
  return variant;
}

ColdStartRow benchColdStart(std::size_t locations, std::size_t reps) {
  const std::string dir =
      scratchDir("cold_" + std::to_string(locations));
  const std::string imagePath = dir + "/venue.img";

  // Setup (untimed): generate the venue, build the index once, publish
  // the venue image.
  worldgen::VenueSpec spec = worldgen::venueSpecForLocations(locations);
  const worldgen::GeneratedVenue venue(spec);
  const std::shared_ptr<const radio::FingerprintDatabase> db =
      venue.sharedFingerprints();
  const auto index = std::make_shared<const index::TieredIndex>(
      db, index::IndexConfig{}, venue.shardStarts());
  const core::WorldSnapshot world(
      db, venue.sharedMotion(), /*generation=*/1, /*intakeRecords=*/0,
      index,
      std::make_shared<const std::vector<geometry::Vec2>>(
          venue.site().plan.positions()));

  ColdStartRow row;
  row.locations = venue.locationCount();
  row.apCount = venue.apCount();
  {
    const auto start = Clock::now();
    row.imageBytes = image::writeVenueImage(imagePath, world).bytes;
    row.imageWriteSeconds = secondsSince(start);
  }

  // The probe every variant must answer identically (drawn outside the
  // timed region, fixed across variants).
  util::Rng rng(spec.seed * 6151 + locations);
  const radio::Fingerprint probe = venue.scanAt(
      static_cast<env::LocationId>(rng.uniformIndex(row.locations)), 0.0,
      rng);
  std::vector<radio::Match> expected;
  db->queryInto(probe, kProbeTopK, expected);

  const auto variant = [&](const char* name,
                           const std::function<image::VenueImage()>& load) {
    row.variants.push_back(
        timeColdVariant(name, reps, probe, expected, load));
  };
  variant("binary_deserialize", [&] {
    std::string bytes;
    if (!store::detail::readFile(imagePath, bytes))
      throw store::StoreError("open failed for " + imagePath);
    return image::VenueImage::fromBuffer(
        {reinterpret_cast<const std::uint8_t*>(bytes.data()),
         bytes.size()});
  });
  variant("mmap_image_full",
          [&] { return image::VenueImage::open(imagePath); });
  variant("mmap_image_bulk", [&] {
    return image::VenueImage::open(imagePath,
                                   image::VerifyMode::kBulkUnverified);
  });

  std::filesystem::remove_all(dir);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "Durable-store and venue-image cold-start benchmark "
      "(emits bench_results/BENCH_micro_store.json)");
  args.addSwitch("smoke",
                 "minimal fast run for CI (1k cold start, short loops)");
  args.addSwitch("full",
                 "full acceptance sweep including the 64k venue");
  try {
    if (!args.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "micro_store: %s\n%s", e.what(),
                 args.usage().c_str());
    return 2;
  }
  const bool smoke = args.getSwitch("smoke");
  const bool full = args.getSwitch("full");

  std::printf("== micro_store: WAL append throughput ==\n");
  std::printf("%-14s %10s %10s %14s %10s %8s\n", "policy", "records",
              "seconds", "records/s", "MB/s", "fsyncs");

  std::vector<AppendRow> appendRows;
  {
    store::WalConfig everyRecord;
    everyRecord.fsync = store::FsyncPolicy::kEveryRecord;
    appendRows.push_back(
        benchAppend("every_record", everyRecord, smoke ? 100 : 500));

    store::WalConfig everyN;
    everyN.fsync = store::FsyncPolicy::kEveryN;
    everyN.fsyncEveryN = 64;
    appendRows.push_back(
        benchAppend("every_n_64", everyN, smoke ? 4000 : 20000));

    store::WalConfig none;
    none.fsync = store::FsyncPolicy::kNone;
    appendRows.push_back(
        benchAppend("none", none, smoke ? 40000 : 200000));
  }
  for (const auto& row : appendRows) {
    const double rps = static_cast<double>(row.records) / row.seconds;
    const double mbps = static_cast<double>(row.bytes) / row.seconds /
                        (1024.0 * 1024.0);
    std::printf("%-14s %10llu %10.4f %14.0f %10.2f %8llu\n",
                row.policy.c_str(),
                static_cast<unsigned long long>(row.records), row.seconds,
                rps, mbps, static_cast<unsigned long long>(row.fsyncs));
  }

  std::printf("\n== micro_store: recovery time vs WAL length ==\n");
  std::printf("%-12s %12s %10s %14s\n", "wal_records", "checkpointed",
              "seconds", "replayed/s");
  const auto plan = benchPlan();
  std::vector<RecoveryRow> recoveryRows;
  std::vector<std::uint64_t> recoverySizes{1000, 5000};
  if (!smoke) {
    recoverySizes.push_back(20000);
    recoverySizes.push_back(50000);
  }
  for (const std::uint64_t records : recoverySizes) {
    recoveryRows.push_back(benchRecovery(plan, records, false));
    recoveryRows.push_back(benchRecovery(plan, records, true));
  }
  for (const auto& row : recoveryRows) {
    const double rps =
        row.replayed == 0
            ? 0.0
            : static_cast<double>(row.replayed) / row.seconds;
    std::printf("%-12llu %12s %10.4f %14.0f\n",
                static_cast<unsigned long long>(row.walRecords),
                row.checkpointed ? "yes" : "no", row.seconds, rps);
  }

  std::printf("\n== micro_store: checkpoint capture vs venue size ==\n");
  std::printf("  %9s %8s %9s %12s %12s %12s %12s %12s %10s\n",
              "locations", "pairs", "samples", "snapshot_s", "write_s",
              "restore_s", "read_s", "reread_s", "ckpt_mb");
  const std::vector<std::size_t> captureSizes =
      smoke ? std::vector<std::size_t>{1024, 16384}
            : std::vector<std::size_t>{1024, 4096, 16384};
  std::vector<CaptureRow> captureRows;
  for (const std::size_t locations : captureSizes) {
    captureRows.push_back(benchCapture(locations));
    const CaptureRow& r = captureRows.back();
    std::printf("  %9zu %8zu %9zu %12.6f %12.6f %12.6f %12.6f %12.6f "
                "%10.2f\n",
                r.locations, r.pairs, r.samples, r.snapshotSeconds,
                r.writeSeconds, r.restoreSeconds, r.readSeconds,
                r.rereadSeconds,
                static_cast<double>(r.bytes) / (1024.0 * 1024.0));
  }
  const auto perSample = [](const CaptureRow& r) {
    return r.snapshotSeconds / static_cast<double>(r.samples);
  };
  const double captureRatio =
      perSample(captureRows.back()) / perSample(captureRows.front());
  std::printf("  snapshot() per retained sample, %zu vs %zu locations: "
              "%.2fx (gate: <= 4x)\n",
              captureRows.back().locations, captureRows.front().locations,
              captureRatio);
  if (captureRatio > 4.0) {
    std::fprintf(stderr,
                 "FAIL: snapshot() cost per retained sample grew %.2fx "
                 "from %zu to %zu locations\n",
                 captureRatio, captureRows.front().locations,
                 captureRows.back().locations);
    return EXIT_FAILURE;
  }

  std::printf("\n== micro_store: cold start vs venue size ==\n");
  std::printf("  %9s %5s %10s %12s %12s %12s\n", "locations", "aps",
              "image_mb", "binary_s", "mmap_full_s", "mmap_bulk_s");

  std::vector<std::size_t> coldSizes{1024};
  if (!smoke) {
    coldSizes.push_back(4096);
    coldSizes.push_back(16384);
  }
  if (full) coldSizes.push_back(65536);

  std::vector<ColdStartRow> coldRows;
  for (const std::size_t locations : coldSizes) {
    // One rep at campus-64k, whose ~900 MB image binary_deserialize
    // holds twice in memory; best-of-3 elsewhere to smooth noise.
    const std::size_t reps = locations >= 65536 ? 1 : 3;
    coldRows.push_back(benchColdStart(locations, reps));
    const ColdStartRow& r = coldRows.back();
    std::printf("  %9zu %5zu %10.1f %12.4f %12.4f %12.4f\n", r.locations,
                r.apCount,
                static_cast<double>(r.imageBytes) / (1024.0 * 1024.0),
                r.variants[0].seconds, r.variants[1].seconds,
                r.variants[2].seconds);
  }
  {
    const ColdStartRow& r = coldRows.back();
    const double binary = r.variants[0].seconds;
    const double bulk = r.variants[2].seconds;
    std::printf("  at %zu locations: mmap_image_bulk %.1fx faster than "
                "binary_deserialize (%.4fs vs %.4fs)\n",
                r.locations, bulk > 0.0 ? binary / bulk : 0.0, bulk,
                binary);
  }
  std::printf("  determinism: every load path answered the probe query "
              "bitwise-identical to the generator's database\n");

  bench::JsonWriter json;
  json.beginObject()
      .field("bench", "micro_store")
      .field("schema_version", 1.0);
  json.beginObject("config")
      .field("smoke", smoke)
      .field("full", full)
      .endObject();

  json.beginArray("append");
  for (const auto& row : appendRows) {
    json.beginObject()
        .field("policy", row.policy)
        .field("records", static_cast<double>(row.records))
        .field("seconds", row.seconds)
        .field("records_per_sec",
               static_cast<double>(row.records) / row.seconds)
        .field("mb_per_sec", static_cast<double>(row.bytes) /
                                 row.seconds / (1024.0 * 1024.0))
        .field("fsyncs", static_cast<double>(row.fsyncs))
        .endObject();
  }
  json.endArray();

  json.beginArray("recovery");
  for (const auto& row : recoveryRows) {
    json.beginObject()
        .field("wal_records", static_cast<double>(row.walRecords))
        .field("checkpointed", row.checkpointed)
        .field("seconds", row.seconds)
        .field("records_per_sec",
               row.replayed == 0
                   ? 0.0
                   : static_cast<double>(row.replayed) / row.seconds)
        .endObject();
  }
  json.endArray();

  json.beginArray("checkpoint_capture");
  for (const CaptureRow& r : captureRows) {
    json.beginObject()
        .field("locations", static_cast<double>(r.locations))
        .field("pairs", static_cast<double>(r.pairs))
        .field("samples", static_cast<double>(r.samples))
        .field("snapshot_seconds", r.snapshotSeconds)
        .field("write_seconds", r.writeSeconds)
        .field("restore_seconds", r.restoreSeconds)
        .field("read_seconds", r.readSeconds)
        .field("reread_seconds", r.rereadSeconds)
        .field("checkpoint_bytes", static_cast<double>(r.bytes))
        .endObject();
  }
  json.endArray();

  json.beginArray("cold_start");
  for (const ColdStartRow& r : coldRows) {
    const double binary = r.variants[0].seconds;
    json.beginObject()
        .field("locations", static_cast<double>(r.locations))
        .field("ap_count", static_cast<double>(r.apCount))
        .field("image_bytes", static_cast<double>(r.imageBytes))
        .field("image_write_seconds", r.imageWriteSeconds);
    json.beginArray("variants");
    for (const ColdVariant& v : r.variants) {
      json.beginObject()
          .field("name", v.name)
          .field("seconds", v.seconds)
          .field("mean_seconds", v.meanSeconds)
          .field("speedup_vs_binary",
                 v.seconds > 0.0 ? binary / v.seconds : 0.0)
          .endObject();
    }
    json.endArray();
    json.endObject();
  }
  json.endArray();

  // Flat acceptance summary: the headline figure at the largest venue
  // measured, so the trajectory (and CI) need not walk the sweep.
  {
    const ColdStartRow& r = coldRows.back();
    const double binary = r.variants[0].seconds;
    const double mmapFull = r.variants[1].seconds;
    const double mmapBulk = r.variants[2].seconds;
    json.beginObject("cold_start_summary")
        .field("max_locations", static_cast<double>(r.locations))
        .field("speedup_mmap_full_vs_binary",
               mmapFull > 0.0 ? binary / mmapFull : 0.0)
        .field("speedup_mmap_bulk_vs_binary",
               mmapBulk > 0.0 ? binary / mmapBulk : 0.0)
        .endObject();
  }
  json.field("determinism_bitwise", true).endObject();

  const std::string jsonPath =
      bench::resultsDir() + "/BENCH_micro_store.json";
  if (json.writeTo(jsonPath))
    std::printf("  perf trajectory: %s\n", jsonPath.c_str());
  return EXIT_SUCCESS;
}
