// Scaling benchmark of the tiered candidate index against the exact
// full-scan kernel, swept across generated campus venues (worldgen
// presets campus-1k .. campus-64k).  For each venue size it measures
// per-query latency of FingerprintDatabase::queryInto (exact full
// scan, AVX2 when compiled in) and TieredIndex::queryInto (byte-
// signature prefilter + in-place exact re-rank) over 1000 queries,
// verifies the two return bitwise-identical matches, and audits
// prefilter recall with a separate exhaustive-check pass outside the
// timed region.
//
// Output: paper-style rows on stdout plus the machine-readable sweep
// as bench_results/BENCH_micro_scale.json (schema in
// docs/performance.md) so the index's scaling curve is tracked as a
// perf trajectory across commits.
//
// Modes: the no-arg default sweeps 1k/4k/16k (bounded for the CI step
// that runs every bench binary); --full adds the 64k venue the
// acceptance numbers quote; --smoke is the minimal perf-smoke run.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "index/tiered_index.hpp"
#include "kernel/fingerprint_kernel.hpp"
#include "radio/fingerprint_database.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "worldgen/generated_venue.hpp"
#include "worldgen/venue_spec.hpp"

namespace {

using namespace moloc;

constexpr std::size_t kTopK = 8;

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

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

struct SizeResult {
  std::size_t locations = 0;
  std::size_t apCount = 0;
  std::size_t shardCount = 0;
  double indexBuildSeconds = 0.0;
  bench::LatencySummary exact;
  bench::LatencySummary tiered;
  double shortlistMean = 0.0;
  double scannedEntriesMean = 0.0;
  /// Per shard: APs with signature bytes, and columns the re-rank reads.
  double activeApsMean = 0.0;
  double varyingColumnsMean = 0.0;
  double recall = 0.0;
  double speedupBest = 0.0;
  double speedupP50 = 0.0;
};

SizeResult runSize(std::size_t locations, std::size_t queryCount) {
  worldgen::VenueSpec spec = worldgen::venueSpecForLocations(locations);
  const worldgen::GeneratedVenue venue(spec);
  const std::shared_ptr<const radio::FingerprintDatabase> db =
      venue.sharedFingerprints();

  SizeResult result;
  result.locations = venue.locationCount();
  result.apCount = venue.apCount();

  index::IndexConfig config;
  const auto buildStart = std::chrono::steady_clock::now();
  const index::TieredIndex index(db, config, venue.shardStarts());
  result.indexBuildSeconds = secondsSince(buildStart);
  result.shardCount = index.shardCount();
  for (std::size_t s = 0; s < index.shardCount(); ++s) {
    const index::ShardInfo info = index.shardInfo(s);
    result.activeApsMean += static_cast<double>(info.activeApCount);
    result.varyingColumnsMean +=
        static_cast<double>(info.varyingColumnCount);
  }
  result.activeApsMean /= static_cast<double>(result.shardCount);
  result.varyingColumnsMean /= static_cast<double>(result.shardCount);

  // Pre-generate the query stream: serving-epoch scans at random
  // locations, identical across the exact and tiered passes.
  util::Rng rng(spec.seed * 7919 + locations);
  std::vector<radio::Fingerprint> queries;
  queries.reserve(queryCount);
  for (std::size_t q = 0; q < queryCount; ++q) {
    const auto loc = static_cast<env::LocationId>(
        rng.uniformIndex(venue.locationCount()));
    queries.push_back(venue.scanAt(loc, 0.0, rng));
  }

  std::vector<radio::Match> exactOut;
  std::vector<radio::Match> tieredOut;
  // Warm both paths (page-in, thread-local workspace growth) before
  // the timed samples.
  db->queryInto(queries.front(), kTopK, exactOut);
  index.queryInto(queries.front(), kTopK, tieredOut);

  std::vector<double> exactNs;
  std::vector<double> tieredNs;
  exactNs.reserve(queryCount);
  tieredNs.reserve(queryCount);
  double shortlistSum = 0.0;
  double scannedSum = 0.0;
  for (const radio::Fingerprint& query : queries) {
    auto start = std::chrono::steady_clock::now();
    db->queryInto(query, kTopK, exactOut);
    exactNs.push_back(secondsSince(start) * 1e9);

    index::QueryStats stats;
    start = std::chrono::steady_clock::now();
    index.queryInto(query, kTopK, tieredOut, &stats);
    tieredNs.push_back(secondsSince(start) * 1e9);
    shortlistSum += static_cast<double>(stats.shortlistSize);
    scannedSum += static_cast<double>(stats.scannedEntries);

    if (!matchesBitwise(exactOut, tieredOut)) {
      std::fprintf(stderr,
                   "FAIL: tiered matches differ from the exact scan "
                   "(locations=%zu)\n",
                   result.locations);
      std::exit(EXIT_FAILURE);
    }
  }
  result.exact = bench::summarizeNs(std::move(exactNs));
  result.tiered = bench::summarizeNs(std::move(tieredNs));
  const auto n = static_cast<double>(queryCount);
  result.shortlistMean = shortlistSum / n;
  result.scannedEntriesMean = scannedSum / n;
  result.speedupBest = result.tiered.bestNs > 0.0
                           ? result.exact.bestNs / result.tiered.bestNs
                           : 0.0;
  result.speedupP50 = result.tiered.p50Ns > 0.0
                          ? result.exact.p50Ns / result.tiered.p50Ns
                          : 0.0;

  // Recall audit outside the timed region: the exhaustive-check index
  // full-scans every query and counts true top-k rows the shortlist
  // dropped (and throws, which we tally rather than propagate).
  index::IndexConfig auditConfig = config;
  auditConfig.exhaustiveCheck = true;
  const index::TieredIndex audit(db, auditConfig, venue.shardStarts());
  std::size_t missed = 0;
  for (const radio::Fingerprint& query : queries) {
    index::QueryStats stats;
    try {
      audit.queryInto(query, kTopK, tieredOut, &stats);
    } catch (const std::logic_error&) {
      // stats.missedTopK was populated before the throw.
    }
    missed += stats.missedTopK;
  }
  result.recall =
      1.0 - static_cast<double>(missed) /
                (static_cast<double>(queryCount) * kTopK);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "Tiered-index scaling sweep over generated campus venues "
      "(emits bench_results/BENCH_micro_scale.json)");
  args.addSwitch("smoke", "minimal fast run for CI (1k/4k venues)");
  args.addSwitch("full",
                 "full acceptance sweep including the 64k venue");
  try {
    if (!args.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "micro_scale: %s\n%s", e.what(),
                 args.usage().c_str());
    return 2;
  }
  const bool smoke = args.getSwitch("smoke");
  const bool full = args.getSwitch("full");

  std::vector<std::size_t> sizes{1024, 4096};
  if (!smoke) sizes.push_back(16384);
  if (full) sizes.push_back(65536);
  // Enough queries per size that p99 is a percentile, not the maximum.
  const std::size_t queryCount = moloc::bench::envRounds(1000);

  std::printf("Tiered index vs exact scan (k=%zu, %zu queries/size,"
              " simd=%s, latencies in ns)\n",
              kTopK, queryCount,
              kernel::simdLevelName(kernel::activeSimdLevel()));
  std::printf("  %9s %5s %6s %10s %10s %10s %10s %10s %8s %9s %6s\n",
              "locations", "aps", "shards", "exact_p50", "tiered_p50",
              "tiered_p90", "tiered_p99", "tiered_min", "p50_gain",
              "shortlist", "recall");

  std::vector<SizeResult> results;
  for (const std::size_t locations : sizes) {
    results.push_back(runSize(locations, queryCount));
    const SizeResult& r = results.back();
    std::printf(
        "  %9zu %5zu %6zu %10.0f %10.0f %10.0f %10.0f %10.0f %7.2fx %9.1f"
        " %6.4f\n",
        r.locations, r.apCount, r.shardCount, r.exact.p50Ns, r.tiered.p50Ns,
        r.tiered.p90Ns, r.tiered.p99Ns, r.tiered.bestNs, r.speedupP50,
        r.shortlistMean, r.recall);
  }
  std::printf("  determinism: tiered matches bitwise-identical to the"
              " exact scan at every size\n");

  bench::JsonWriter json;
  json.beginObject()
      .field("bench", "micro_scale")
      .field("schema_version", 1.0);
  json.beginObject("config")
      .field("k", static_cast<double>(kTopK))
      .field("queries", static_cast<double>(queryCount))
      .field("smoke", smoke)
      .field("full", full)
      .field("simd_compiled", static_cast<bool>(MOLOC_SIMD_ENABLED))
      .field("simd_active",
             kernel::simdLevelName(kernel::activeSimdLevel()))
      .field("cpu_model", bench::cpuModel())
      .field("build_type", MOLOC_BUILD_TYPE)
      .endObject();
  json.beginArray("sweep");
  for (const SizeResult& r : results) {
    json.beginObject()
        .field("locations", static_cast<double>(r.locations))
        .field("ap_count", static_cast<double>(r.apCount))
        .field("shard_count", static_cast<double>(r.shardCount))
        .field("index_build_seconds", r.indexBuildSeconds)
        .field("shortlist_mean", r.shortlistMean)
        .field("scanned_entries_mean", r.scannedEntriesMean)
        .field("active_aps_mean", r.activeApsMean)
        .field("varying_columns_mean", r.varyingColumnsMean)
        .field("recall", r.recall)
        .field("speedup_best", r.speedupBest)
        .field("speedup_p50", r.speedupP50);
    json.beginArray("variants");
    bench::writeVariant(json, "exact_scan", r.exact);
    bench::writeVariant(json, "tiered_index", r.tiered);
    json.endArray();
    json.endObject();
  }
  json.endArray();

  // Flat scaling summary: measured cost growth smallest -> largest
  // venue, so CI (and the perf trajectory) can assert sublinearity
  // without walking the sweep array.
  {
    const SizeResult& lo = results.front();
    const SizeResult& hi = results.back();
    const double sizeRatio = static_cast<double>(hi.locations) /
                             static_cast<double>(lo.locations);
    const double exactRatio =
        lo.exact.bestNs > 0.0 ? hi.exact.bestNs / lo.exact.bestNs : 0.0;
    const double tieredRatio = lo.tiered.bestNs > 0.0
                                   ? hi.tiered.bestNs / lo.tiered.bestNs
                                   : 0.0;
    json.beginObject("scaling")
        .field("size_ratio", sizeRatio)
        .field("exact_cost_ratio", exactRatio)
        .field("tiered_cost_ratio", tieredRatio)
        .field("tiered_sublinear",
               tieredRatio > 0.0 && tieredRatio < sizeRatio)
        .field("speedup_at_max", results.back().speedupBest)
        .endObject();
    std::printf("  scaling %zu -> %zu: exact %.1fx cost, tiered %.1fx"
                " cost (size %.0fx)\n",
                lo.locations, hi.locations, exactRatio, tieredRatio,
                sizeRatio);
  }
  json.field("determinism_bitwise", true).endObject();

  const std::string jsonPath =
      moloc::bench::resultsDir() + "/BENCH_micro_scale.json";
  if (json.writeTo(jsonPath))
    std::printf("  perf trajectory: %s\n", jsonPath.c_str());
  return EXIT_SUCCESS;
}
