// Micro-benchmarks backing the paper's efficiency claims (Sec. V.C):
// MoLoc "minimizes the computational complexity so as to save energy",
// and the related-work HMM carries "high computational overhead".
// Measures the per-query cost of each pipeline stage and of the
// full-state HMM comparator on the paper-scale world.
//
// Besides the google-benchmark suite, the binary always runs a JSON
// perf-trajectory harness (bench_results/BENCH_micro_engine.json, see
// docs/performance.md) comparing the pre-kernel reference
// implementations against the src/kernel paths — scalar-forced and
// runtime-dispatched — so kernel speedups are tracked as data across
// commits.  `--smoke` skips the google-benchmark suite and shortens
// the harness for CI; MOLOC_BENCH_ROUNDS overrides the sample count.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/hmm_localizer.hpp"
#include "baseline/particle_filter.hpp"
#include "bench/common.hpp"
#include "core/localization_session.hpp"
#include "core/online_motion_database.hpp"
#include "baseline/wifi_fingerprinting.hpp"
#include "eval/experiment_world.hpp"
#include "kernel/fingerprint_kernel.hpp"

namespace {

using namespace moloc;

/// One world shared by all benchmarks (construction is not measured).
eval::ExperimentWorld& world() {
  static eval::ExperimentWorld instance{eval::WorldConfig{}};
  return instance;
}

radio::Fingerprint probeScan() {
  static const radio::Fingerprint scan = [] {
    util::Rng rng(77);
    return world().radio().scan({20.4, 8.0}, 90.0, rng);
  }();
  return scan;
}

void BM_FingerprintNearest(benchmark::State& state) {
  const baseline::WifiFingerprinting wifi(world().fingerprintDb());
  const auto scan = probeScan();
  for (auto _ : state) benchmark::DoNotOptimize(wifi.localize(scan));
}
BENCHMARK(BM_FingerprintNearest);

void BM_CandidateQuery(benchmark::State& state) {
  const auto scan = probeScan();
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(world().fingerprintDb().query(scan, k));
}
BENCHMARK(BM_CandidateQuery)->Arg(1)->Arg(5)->Arg(12)->Arg(28);

void BM_MotionPairProbability(benchmark::State& state) {
  const core::MotionMatcher matcher(
      std::make_shared<const core::MotionDatabase>(world().motionDb()));
  const sensors::MotionMeasurement motion{90.0, 5.7};
  for (auto _ : state)
    benchmark::DoNotOptimize(matcher.pairProbability(0, 1, motion));
}
BENCHMARK(BM_MotionPairProbability);

void BM_MoLocLocalize(benchmark::State& state) {
  auto engine = world().makeEngine();
  const auto scan = probeScan();
  engine.localize(scan, std::nullopt);
  const sensors::MotionMeasurement motion{90.0, 5.7};
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.localize(scan, motion));
}
BENCHMARK(BM_MoLocLocalize);

void BM_HmmUpdate(benchmark::State& state) {
  baseline::HmmLocalizer hmm(world().fingerprintDb(),
                             world().hall().graph);
  const auto scan = probeScan();
  hmm.update(scan, std::nullopt);
  for (auto _ : state) benchmark::DoNotOptimize(hmm.update(scan, 5.7));
}
BENCHMARK(BM_HmmUpdate);

void BM_MotionDbLookup(benchmark::State& state) {
  const auto& db = world().motionDb();
  for (auto _ : state) benchmark::DoNotOptimize(db.entry(0, 1));
}
BENCHMARK(BM_MotionDbLookup);

void BM_MotionDbBuild(benchmark::State& state) {
  // The sanitation pipeline end to end: a synthetic intake of the given
  // size fed into a fresh intake sized to hold all of it, the way
  // ExperimentWorld builds its motion database.
  struct Observation {
    env::LocationId from;
    env::LocationId to;
    double directionDeg;
    double offsetMeters;
  };
  std::vector<Observation> observations;
  util::Rng rng(5);
  const auto& graph = world().hall().graph;
  for (long i = 0; i < state.range(0); ++i) {
    const auto from = static_cast<env::LocationId>(
        rng.uniformInt(0, static_cast<int>(graph.nodeCount()) - 1));
    const auto neighbors = graph.neighbors(from);
    if (neighbors.empty()) continue;
    const auto& edge = neighbors[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<int>(neighbors.size()) - 1))];
    observations.push_back({from, edge.to,
                            edge.headingDeg + rng.normal(0.0, 4.0),
                            edge.length + rng.normal(0.0, 0.2)});
  }
  for (auto _ : state) {
    core::OnlineMotionDatabase intake(world().hall().plan, {},
                                      observations.size());
    for (const auto& obs : observations)
      intake.addObservation(obs.from, obs.to, obs.directionDeg,
                            obs.offsetMeters);
    benchmark::DoNotOptimize(intake.database());
  }
}
BENCHMARK(BM_MotionDbBuild)->Arg(300)->Arg(3000);

void BM_WifiScanSimulation(benchmark::State& state) {
  util::Rng rng(9);
  for (auto _ : state)
    benchmark::DoNotOptimize(world().radio().scan({20.4, 8.0}, 90.0, rng));
}
BENCHMARK(BM_WifiScanSimulation);

void BM_ParticleFilterUpdate(benchmark::State& state) {
  baseline::ParticleFilter filter(world().hall().plan,
                                  world().fingerprintDb());
  const auto scan = probeScan();
  filter.update(scan, std::nullopt);
  const sensors::MotionMeasurement motion{90.0, 5.7};
  for (auto _ : state)
    benchmark::DoNotOptimize(filter.update(scan, motion));
}
BENCHMARK(BM_ParticleFilterUpdate);

void BM_SessionOnScanWithImu(benchmark::State& state) {
  // The full phone-side cost: motion processing over a 3 s IMU trace
  // plus one engine round.
  core::LocalizationSession session(world().fingerprintDb(),
                                    world().motionDb(), 0.72);
  const auto scan = probeScan();
  util::Rng rng(11);
  sensors::AccelerometerModel accel;
  const auto accelSeries = accel.walkingSamples(150, 1.8, rng);
  const sensors::CompassModel compassModel;
  const auto compassSeries = compassModel.readings(90.0, 0.0, 150, rng);
  sensors::ImuTrace imu(50.0);
  for (std::size_t i = 0; i < 150; ++i)
    imu.append({i / 50.0, accelSeries[i], compassSeries[i]});
  session.onScan(scan, sensors::ImuTrace(50.0));
  for (auto _ : state)
    benchmark::DoNotOptimize(session.onScan(scan, imu));
}
BENCHMARK(BM_SessionOnScanWithImu);

// ---- JSON perf-trajectory harness ----------------------------------

/// Times `fn` over `rounds` samples of `reps` calls each (plus warmup)
/// and returns per-operation statistics; `opsPerCall` spreads one
/// call's cost over the logical operations it performs (e.g. a batch
/// of 64 queries).
template <typename Fn>
bench::LatencySummary measureOp(std::size_t rounds, std::size_t reps,
                                double opsPerCall, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  for (int warm = 0; warm < 3; ++warm) fn();
  std::vector<double> ns;
  ns.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto start = clock::now();
    for (std::size_t i = 0; i < reps; ++i) fn();
    const double elapsedNs =
        std::chrono::duration<double, std::nano>(clock::now() - start)
            .count();
    ns.push_back(elapsedNs / (static_cast<double>(reps) * opsPerCall));
  }
  return bench::summarizeNs(std::move(ns));
}

/// A fingerprint database copied back into the pre-kernel layout (one
/// owning fingerprint, with its own heap vector, per entry in insertion
/// order), so the reference implementations below pay the same memory
/// layout the old code did and nothing else.
struct ReferenceView {
  std::vector<env::LocationId> ids;
  std::vector<radio::Fingerprint> entries;
};

ReferenceView referenceView(const radio::FingerprintDatabase& db) {
  ReferenceView view;
  view.ids = db.locationIds();
  view.entries.reserve(view.ids.size());
  for (const auto id : view.ids) view.entries.push_back(db.entry(id));
  return view;
}

/// The pre-kernel queryInto, kept verbatim as the perf baseline: one
/// sqrt-bearing dissimilarity per entry, a materialized size-L match
/// vector, and a partial_sort.
void referenceQuery(const ReferenceView& view,
                    const radio::Fingerprint& query, std::size_t k,
                    std::vector<radio::Match>& out) {
  constexpr double kMinDissimilarity = 0.5;
  out.clear();
  out.reserve(view.entries.size());
  for (std::size_t i = 0; i < view.entries.size(); ++i)
    out.push_back(
        {view.ids[i], radio::dissimilarity(query, view.entries[i]), 0.0});
  const std::size_t kept = std::min(k, out.size());
  std::partial_sort(out.begin(), out.begin() + static_cast<long>(kept),
                    out.end(), [](const radio::Match& a,
                                  const radio::Match& b) {
                      return a.dissimilarity < b.dissimilarity;
                    });
  out.resize(kept);
  double invSum = 0.0;
  for (const auto& m : out)
    invSum += 1.0 / std::max(m.dissimilarity, kMinDissimilarity);
  for (auto& m : out)
    m.probability =
        (1.0 / std::max(m.dissimilarity, kMinDissimilarity)) / invSum;
}

/// The pre-kernel nearest (including its first-entry double
/// evaluation).
env::LocationId referenceNearest(const ReferenceView& view,
                                 const radio::Fingerprint& query) {
  std::size_t best = 0;
  double bestDis = radio::squaredDissimilarity(query, view.entries[0]);
  for (std::size_t i = 0; i < view.entries.size(); ++i) {
    const double dis =
        radio::squaredDissimilarity(query, view.entries[i]);
    if (dis < bestDis) {
      bestDis = dis;
      best = i;
    }
  }
  return view.ids[best];
}

/// The pre-kernel Eq. 6: one dense-matrix pairProbability per
/// (previous candidate, target) pair.
double referenceSetProbability(
    const core::MotionMatcher& matcher,
    std::span<const core::WeightedCandidate> prev, env::LocationId j,
    const sensors::MotionMeasurement& motion) {
  double acc = 0.0;
  for (const auto& candidate : prev)
    acc += candidate.probability *
           matcher.pairProbability(candidate.location, j, motion);
  return acc;
}

radio::FingerprintDatabase makeSyntheticDb(std::size_t locations,
                                           std::size_t aps) {
  radio::FingerprintDatabase db;
  util::Rng rng(123);
  std::vector<double> values(aps);
  for (std::size_t i = 0; i < locations; ++i) {
    for (auto& v : values) v = rng.uniform(-95.0, -35.0);
    db.addLocation(static_cast<env::LocationId>(i),
                   radio::Fingerprint(values));
  }
  return db;
}

std::vector<radio::Fingerprint> makeQueries(
    const radio::FingerprintDatabase& db, std::size_t count,
    std::uint64_t seed) {
  util::Rng rng(seed);
  const auto ids = db.locationIds();
  std::vector<radio::Fingerprint> queries;
  queries.reserve(count);
  for (std::size_t q = 0; q < count; ++q) {
    const auto& base = db.entry(
        ids[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<int>(ids.size()) - 1))]);
    std::vector<double> values(base.size());
    for (std::size_t i = 0; i < base.size(); ++i)
      values[i] = base[i] + rng.normal(0.0, 2.0);
    queries.emplace_back(values);
  }
  return queries;
}

struct SectionSpeedup {
  std::string section;
  double bestSpeedupVsReference = 0.0;
};

/// One fingerprint-matching section: reference vs forced-scalar kernel
/// vs dispatched kernel, rotating over a pool of queries.
SectionSpeedup emitQuerySection(bench::JsonWriter& json, const char* name,
                                const radio::FingerprintDatabase& db,
                                std::size_t k, std::size_t rounds) {
  const auto view = referenceView(db);
  const auto queries = makeQueries(db, 32, 7u);
  std::vector<radio::Match> matches;
  std::size_t next = 0;
  const auto rotate = [&]() -> const radio::Fingerprint& {
    return queries[next++ % queries.size()];
  };

  const auto reference = measureOp(rounds, 8, 1.0, [&] {
    referenceQuery(view, rotate(), k, matches);
    benchmark::DoNotOptimize(matches.data());
  });
  kernel::setForceScalar(true);
  const auto kernelScalar = measureOp(rounds, 8, 1.0, [&] {
    db.queryInto(rotate(), k, matches);
    benchmark::DoNotOptimize(matches.data());
  });
  kernel::setForceScalar(false);
  const auto kernelDispatch = measureOp(rounds, 8, 1.0, [&] {
    db.queryInto(rotate(), k, matches);
    benchmark::DoNotOptimize(matches.data());
  });

  json.beginObject()
      .field("name", name)
      .field("unit", "ns_per_query")
      .field("entries", static_cast<double>(db.size()))
      .field("ap_count", static_cast<double>(db.apCount()))
      .field("k", static_cast<double>(k));
  json.beginArray("variants");
  bench::writeVariant(json, "reference", reference);
  bench::writeVariant(json, "kernel_scalar", kernelScalar);
  bench::writeVariant(json, "kernel", kernelDispatch);
  json.endArray();
  const double speedup = kernelDispatch.bestNs > 0.0
                             ? reference.bestNs / kernelDispatch.bestNs
                             : 0.0;
  json.field("speedup_best_vs_reference", speedup).endObject();
  return {name, speedup};
}

void runPerfTrajectory(bool smoke) {
  const std::size_t rounds = bench::envRounds(smoke ? 60 : 400);
  const auto& db = world().fingerprintDb();
  bench::JsonWriter json;
  json.beginObject()
      .field("bench", "micro_engine")
      .field("schema_version", 1.0);
  json.beginObject("config")
      .field("simd_compiled", static_cast<bool>(MOLOC_SIMD_ENABLED))
      .field("simd_active",
             kernel::simdLevelName(kernel::activeSimdLevel()))
      .field("rounds", static_cast<double>(rounds))
      .field("smoke", smoke)
      .field("world_locations", static_cast<double>(db.size()))
      .field("ap_count", static_cast<double>(db.apCount()))
      .endObject();
  json.beginArray("sections");

  std::vector<SectionSpeedup> speedups;

  // Single-query candidate matching at the paper's k, on the
  // paper-scale radio map and on a larger synthetic one (where the
  // flat-matrix layout has more rows to stream).
  speedups.push_back(
      emitQuerySection(json, "fingerprint_query_world", db, 12, rounds));
  const auto largeDb = makeSyntheticDb(1024, 6);
  speedups.push_back(emitQuerySection(json, "fingerprint_query_1k",
                                      largeDb, 12, rounds));

  // Eq. 2 nearest (the plain WiFi baseline's inner loop).
  {
    const auto view = referenceView(db);
    const auto queries = makeQueries(db, 32, 11u);
    std::size_t next = 0;
    const auto rotate = [&]() -> const radio::Fingerprint& {
      return queries[next++ % queries.size()];
    };
    const auto reference = measureOp(rounds, 16, 1.0, [&] {
      benchmark::DoNotOptimize(referenceNearest(view, rotate()));
    });
    const auto kernelPath = measureOp(rounds, 16, 1.0, [&] {
      benchmark::DoNotOptimize(db.nearest(rotate()));
    });
    json.beginObject()
        .field("name", "fingerprint_nearest_world")
        .field("unit", "ns_per_query");
    json.beginArray("variants");
    bench::writeVariant(json, "reference", reference);
    bench::writeVariant(json, "kernel", kernelPath);
    json.endArray();
    const double speedup = kernelPath.bestNs > 0.0
                               ? reference.bestNs / kernelPath.bestNs
                               : 0.0;
    json.field("speedup_best_vs_reference", speedup).endObject();
    speedups.push_back({"fingerprint_nearest_world", speedup});
  }

  // The serving layer's batch entry point vs a per-query loop over the
  // same scans (ns normalized per query in both variants).
  {
    constexpr std::size_t kBatch = 64;
    const auto queries = makeQueries(db, kBatch, 13u);
    std::vector<const radio::Fingerprint*> pointers;
    for (const auto& q : queries) pointers.push_back(&q);
    std::vector<radio::Match> matches;
    std::vector<std::vector<radio::Match>> batchOut;
    const auto perQuery = measureOp(
        rounds, 2, static_cast<double>(kBatch), [&] {
          for (const auto* q : pointers) {
            db.queryInto(*q, 12, matches);
            benchmark::DoNotOptimize(matches.data());
          }
        });
    const auto batched = measureOp(
        rounds, 2, static_cast<double>(kBatch), [&] {
          db.queryBatchInto(pointers, 12, batchOut);
          benchmark::DoNotOptimize(batchOut.data());
        });
    json.beginObject()
        .field("name", "fingerprint_batch_world")
        .field("unit", "ns_per_query")
        .field("batch_size", static_cast<double>(kBatch));
    json.beginArray("variants");
    bench::writeVariant(json, "per_query_loop", perQuery);
    bench::writeVariant(json, "batch", batched);
    json.endArray();
    json.field("speedup_best_vs_reference",
               batched.bestNs > 0.0 ? perQuery.bestNs / batched.bestNs
                                    : 0.0)
        .endObject();
  }

  // Eq. 6 motion scoring over a candidate set: dense per-pair lookups
  // (reference) vs the CSR adjacency path, per-candidate ns.
  {
    const auto& motionDb = world().motionDb();
    const core::MotionMatcher matcher(
        std::make_shared<const core::MotionDatabase>(motionDb));
    const std::size_t m = std::min<std::size_t>(
        12, motionDb.locationCount());
    std::vector<core::WeightedCandidate> prev;
    std::vector<env::LocationId> targets;
    for (std::size_t i = 0; i < m; ++i) {
      prev.push_back({static_cast<env::LocationId>(i),
                      1.0 / static_cast<double>(m)});
      targets.push_back(static_cast<env::LocationId>(i));
    }
    const sensors::MotionMeasurement motion{90.0, 5.7};
    std::vector<double> scores;
    const auto ops = static_cast<double>(m);
    const auto reference = measureOp(rounds, 4, ops, [&] {
      for (const auto j : targets)
        benchmark::DoNotOptimize(
            referenceSetProbability(matcher, prev, j, motion));
    });
    const auto setProb = measureOp(rounds, 4, ops, [&] {
      for (const auto j : targets)
        benchmark::DoNotOptimize(matcher.setProbability(prev, j, motion));
    });
    const auto batch = measureOp(rounds, 4, ops, [&] {
      matcher.scoreCandidates(prev, targets, motion, scores);
      benchmark::DoNotOptimize(scores.data());
    });
    json.beginObject()
        .field("name", "motion_set_probability")
        .field("unit", "ns_per_candidate")
        .field("candidates", static_cast<double>(m))
        .field("motion_entries", static_cast<double>(motionDb.entryCount()));
    json.beginArray("variants");
    bench::writeVariant(json, "reference", reference);
    bench::writeVariant(json, "set_probability", setProb);
    bench::writeVariant(json, "score_candidates", batch);
    json.endArray();
    const double speedup =
        batch.bestNs > 0.0 ? reference.bestNs / batch.bestNs : 0.0;
    json.field("speedup_best_vs_reference", speedup).endObject();
    speedups.push_back({"motion_set_probability", speedup});
  }

  // One full engine round (fingerprint + motion + fusion), for the
  // end-to-end trajectory.
  {
    auto engine = world().makeEngine();
    const auto queries = makeQueries(db, 32, 17u);
    std::size_t next = 0;
    engine.localize(queries[0], std::nullopt);
    const sensors::MotionMeasurement motion{90.0, 5.7};
    const auto localize = measureOp(rounds, 4, 1.0, [&] {
      benchmark::DoNotOptimize(
          engine.localize(queries[next++ % queries.size()], motion));
    });
    json.beginObject()
        .field("name", "engine_localize")
        .field("unit", "ns_per_round");
    json.beginArray("variants");
    bench::writeVariant(json, "kernel", localize);
    json.endArray();
    json.endObject();
  }

  json.endArray().endObject();

  const std::string path =
      bench::resultsDir() + "/BENCH_micro_engine.json";
  if (!json.writeTo(path)) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    return;
  }
  std::printf("\nperf trajectory: %s (simd=%s, rounds=%zu)\n",
              path.c_str(),
              kernel::simdLevelName(kernel::activeSimdLevel()), rounds);
  for (const auto& s : speedups)
    std::printf("  %-28s best-of speedup vs reference: %.2fx\n",
                s.section.c_str(), s.bestSpeedupVsReference);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filteredArgc = static_cast<int>(args.size());
  benchmark::Initialize(&filteredArgc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filteredArgc, args.data()))
    return 1;
  if (!smoke) benchmark::RunSpecifiedBenchmarks();
  runPerfTrajectory(smoke);
  benchmark::Shutdown();
  return 0;
}
