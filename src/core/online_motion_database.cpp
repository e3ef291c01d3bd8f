#include "core/online_motion_database.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geometry/angles.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace moloc::core {

OnlineMotionDatabase::OnlineMotionDatabase(const env::FloorPlan& plan,
                                           BuilderConfig config,
                                           std::size_t reservoirCapacity,
                                           std::uint64_t seed,
                                           obs::MetricsRegistry* metrics)
    : plan_(plan),
      config_(config),
      capacity_(reservoirCapacity),
      rng_(seed) {
  if (reservoirCapacity <
      static_cast<std::size_t>(std::max(config.minSamplesPerPair, 1)))
    throw util::ConfigError(
        "OnlineMotionDatabase: reservoir smaller than the per-pair "
        "sample minimum");
  if (metrics) {
    const obs::Labels source{{"source", "online"}};
    metrics_.observations = &metrics->counter(
        "moloc_intake_observations_total",
        "Crowdsourced RLM observations offered to the intake", source);
    metrics_.accepted = &metrics->counter(
        "moloc_intake_accepted_total",
        "Observations accepted into a reservoir", source);
    metrics_.rejectedCoarse = &metrics->counter(
        "moloc_intake_rejected_total",
        "Observations or samples rejected by a sanitation filter",
        {{"source", "online"}, {"filter", "coarse"}});
    metrics_.rejectedFine = &metrics->counter(
        "moloc_intake_rejected_total",
        "Observations or samples rejected by a sanitation filter",
        {{"source", "online"}, {"filter", "fine"}});
    metrics_.selfPairs = &metrics->counter(
        "moloc_intake_self_pairs_total",
        "Observations dropped because start == end", source);
  }
}

namespace {

void checkMeasurement(double directionDeg, double offsetMeters) {
  // Validate the measurement before the location lookups: a corrupt
  // (direction, offset) must report invalid_argument even when the
  // ids are bad too, so callers can tell poisoned measurements from
  // stale/unknown location ids.
  if (!std::isfinite(directionDeg) || !std::isfinite(offsetMeters) ||
      offsetMeters < 0.0)
    throw util::ConfigError(
        "OnlineMotionDatabase: non-finite or negative measurement");
}

}  // namespace

OnlineMotionDatabase::Decision OnlineMotionDatabase::decideLocked(
    env::LocationId start, env::LocationId end, geometry::Vec2 posStart,
    geometry::Vec2 posEnd, double directionDeg,
    double offsetMeters) const {
  if (start == end) return Decision::kSelfPair;

  // Reassemble onto the smaller-ID endpoint.
  double d = geometry::normalizeDeg(directionDeg);
  geometry::Vec2 posI = posStart;
  geometry::Vec2 posJ = posEnd;
  if (start > end) {
    std::swap(posI, posJ);
    d = geometry::reverseHeadingDeg(d);
  }

  // Coarse filter at intake (vs the straight-line map RLM).
  if (config_.enableCoarseFilter) {
    const double mapDirection = geometry::headingBetweenDeg(posI, posJ);
    const double mapOffset = geometry::distance(posI, posJ);
    const bool directionOk =
        geometry::angularDistDeg(d, mapDirection) <=
        config_.coarseDirectionThresholdDeg;
    const bool offsetOk = std::abs(offsetMeters - mapOffset) <=
                          config_.coarseOffsetThresholdMeters;
    if (!directionOk || !offsetOk) return Decision::kRejectedCoarse;
  }
  return Decision::kAccepted;
}

bool OnlineMotionDatabase::classify(env::LocationId estimatedStart,
                                    env::LocationId estimatedEnd,
                                    double directionDeg,
                                    double offsetMeters) {
  checkMeasurement(directionDeg, offsetMeters);
  const auto& startLoc = plan_.location(estimatedStart);
  const auto& endLoc = plan_.location(estimatedEnd);
  const util::MutexLock lock(mu_);
  ++counters_.observations;
  if (metrics_.observations) metrics_.observations->inc();
  switch (decideLocked(estimatedStart, estimatedEnd, startLoc.pos,
                       endLoc.pos, directionDeg, offsetMeters)) {
    case Decision::kSelfPair:
      ++counters_.droppedSelfPairs;
      if (metrics_.selfPairs) metrics_.selfPairs->inc();
      return false;
    case Decision::kRejectedCoarse:
      ++counters_.rejectedCoarse;
      if (metrics_.rejectedCoarse) metrics_.rejectedCoarse->inc();
      return false;
    case Decision::kAccepted:
      return true;
  }
  return false;  // Unreachable; keeps -Wreturn-type quiet.
}

void OnlineMotionDatabase::applyAccepted(env::LocationId estimatedStart,
                                         env::LocationId estimatedEnd,
                                         double directionDeg,
                                         double offsetMeters) {
  checkMeasurement(directionDeg, offsetMeters);
  const auto& startLoc = plan_.location(estimatedStart);
  const auto& endLoc = plan_.location(estimatedEnd);
  const util::MutexLock writeLock(writeMu_);
  ObservationSink* sink = nullptr;
  {
    const util::MutexLock lock(mu_);
    if (decideLocked(estimatedStart, estimatedEnd, startLoc.pos,
                     endLoc.pos, directionDeg, offsetMeters) !=
        Decision::kAccepted)
      throw util::StateError(
          "OnlineMotionDatabase::applyAccepted: observation was not "
          "accepted by classify()");
    sink = sink_;
  }

  // Write-ahead hook: log the observation (with its original, pre-
  // reassembly arguments) before any state mutates.  A sink that
  // throws — disk full, I/O error — aborts the update here, so the
  // database never holds an observation its log is missing.  Only the
  // write mutex is held across this call: readers and classifying
  // producers proceed through the state mutex while the log fsyncs.
  if (sink)
    sink->onAccepted(estimatedStart, estimatedEnd, directionDeg,
                     offsetMeters);

  // Reassemble onto the smaller-ID endpoint.
  env::LocationId i = estimatedStart;
  env::LocationId j = estimatedEnd;
  double d = geometry::normalizeDeg(directionDeg);
  if (i > j) {
    std::swap(i, j);
    d = geometry::reverseHeadingDeg(d);
  }

  const util::MutexLock lock(mu_);
  auto& reservoir = reservoirs_[{i, j}];
  reservoir.fit.reset();
  ++reservoir.seen;
  if (reservoir.samples.size() < capacity_) {
    reservoir.samples.push_back({d, offsetMeters});
  } else {
    // Uniform reservoir sampling (Algorithm R): keep the newcomer with
    // probability capacity / seen.  The slot draw is a full-width
    // 64-bit index — `seen` outgrows int long before a busy pair's
    // stream ends, and truncating it would first skew the draw and
    // then (past 2^63) hand uniformInt a negative bound.
    const std::uint64_t slot = rng_.uniformIndex(reservoir.seen);
    if (slot < capacity_)
      reservoir.samples[static_cast<std::size_t>(slot)] = {d,
                                                           offsetMeters};
  }
  ++counters_.accepted;
  if (metrics_.accepted) metrics_.accepted->inc();
}

bool OnlineMotionDatabase::addObservation(env::LocationId estimatedStart,
                                          env::LocationId estimatedEnd,
                                          double directionDeg,
                                          double offsetMeters) {
  if (!classify(estimatedStart, estimatedEnd, directionDeg, offsetMeters))
    return false;
  applyAccepted(estimatedStart, estimatedEnd, directionDeg, offsetMeters);
  return true;
}

OnlineMotionDatabase::PairFit OnlineMotionDatabase::fitReservoir(
    const BuilderConfig& config, const Reservoir& reservoir) {
  PairFit result;
  if (static_cast<int>(reservoir.samples.size()) < config.minSamplesPerPair)
    return result;

  auto fit = [](const std::vector<double>& directions,
                const std::vector<double>& offsets) {
    RlmStats stats;
    stats.sampleCount = static_cast<int>(directions.size());
    stats.muDirectionDeg = geometry::circularMeanDeg(directions);
    std::vector<double> devs;
    devs.reserve(directions.size());
    for (double d : directions)
      devs.push_back(
          geometry::signedAngularDiffDeg(stats.muDirectionDeg, d));
    stats.sigmaDirectionDeg = util::stddev(devs);
    stats.muOffsetMeters = util::mean(offsets);
    stats.sigmaOffsetMeters = util::stddev(offsets);
    return stats;
  };

  std::vector<double> directions;
  std::vector<double> offsets;
  directions.reserve(reservoir.samples.size());
  offsets.reserve(reservoir.samples.size());
  for (const auto& s : reservoir.samples) {
    directions.push_back(s.directionDeg);
    offsets.push_back(s.offsetMeters);
  }

  RlmStats stats = fit(directions, offsets);

  if (config.enableFineFilter) {
    const double dirLimit =
        config.fineSigmaMultiplier *
        std::max(stats.sigmaDirectionDeg, config.minDirectionSigmaDeg);
    const double offLimit =
        config.fineSigmaMultiplier *
        std::max(stats.sigmaOffsetMeters, config.minOffsetSigmaMeters);
    std::vector<double> keptDirections;
    std::vector<double> keptOffsets;
    for (std::size_t s = 0; s < directions.size(); ++s) {
      if (geometry::angularDistDeg(directions[s],
                                   stats.muDirectionDeg) <= dirLimit &&
          std::abs(offsets[s] - stats.muOffsetMeters) <= offLimit) {
        keptDirections.push_back(directions[s]);
        keptOffsets.push_back(offsets[s]);
      }
    }
    result.excludedFine = directions.size() - keptDirections.size();
    if (static_cast<int>(keptDirections.size()) <
        config.minSamplesPerPair)
      return result;
    stats = fit(keptDirections, keptOffsets);
  }

  stats.sigmaDirectionDeg =
      std::max(stats.sigmaDirectionDeg, config.minDirectionSigmaDeg);
  stats.sigmaOffsetMeters =
      std::max(stats.sigmaOffsetMeters, config.minOffsetSigmaMeters);
  result.stats = stats;
  return result;
}

const OnlineMotionDatabase::PairFit& OnlineMotionDatabase::cachedFit(
    const Reservoir& reservoir) const {
  if (!reservoir.fit) {
    reservoir.fit = fitReservoir(config_, reservoir);
    if (metrics_.rejectedFine && reservoir.fit->excludedFine > 0)
      metrics_.rejectedFine->inc(
          static_cast<double>(reservoir.fit->excludedFine));
  }
  return *reservoir.fit;
}

MotionDatabase OnlineMotionDatabase::database() const {
  std::vector<MotionEntry> entries;
  {
    const util::MutexLock lock(mu_);
    entries.reserve(2 * reservoirs_.size());
    for (const auto& [key, reservoir] : reservoirs_)
      if (const auto& stats = cachedFit(reservoir).stats)
        appendWithMirror(entries, key.first, key.second, *stats);
  }
  return MotionDatabase(plan_.locationCount(), entries);
}

BuilderReport OnlineMotionDatabase::report() const {
  const util::MutexLock lock(mu_);
  BuilderReport report;
  report.observations = counters_.observations;
  report.droppedSelfPairs = counters_.droppedSelfPairs;
  report.rejectedCoarse = counters_.rejectedCoarse;
  for (const auto& [key, reservoir] : reservoirs_) {
    const PairFit& fit = cachedFit(reservoir);
    report.rejectedFine += fit.excludedFine;
    if (fit.stats) ++report.pairsStored;
  }
  return report;
}

OnlineMotionDatabase::ReservoirStats
OnlineMotionDatabase::reservoirStats() const {
  const util::MutexLock lock(mu_);
  ReservoirStats stats;
  stats.capacity = capacity_;
  stats.trackedPairs = reservoirs_.size();
  for (const auto& [key, reservoir] : reservoirs_) {
    stats.totalSamples += reservoir.samples.size();
    stats.totalSeen += reservoir.seen;
    if (reservoir.samples.size() >= capacity_) ++stats.pairsAtCapacity;
  }
  return stats;
}

OnlineMotionDatabase::Snapshot OnlineMotionDatabase::snapshot() const {
  const util::MutexLock lock(mu_);
  Snapshot snap;
  snap.config = config_;
  snap.capacity = capacity_;
  snap.locationCount = plan_.locationCount();
  snap.rngState = rng_.state();
  snap.counters = counters_;
  snap.reservoirs.reserve(reservoirs_.size());
  for (const auto& [key, reservoir] : reservoirs_) {
    Snapshot::PairState pair;
    pair.i = key.first;
    pair.j = key.second;
    pair.seen = reservoir.seen;
    pair.samples.reserve(reservoir.samples.size());
    for (const auto& s : reservoir.samples)
      pair.samples.push_back({s.directionDeg, s.offsetMeters});
    snap.reservoirs.push_back(std::move(pair));
  }
  return snap;
}

void OnlineMotionDatabase::restore(const Snapshot& snapshot) {
  if (snapshot.locationCount != plan_.locationCount())
    throw util::ConfigError(
        "OnlineMotionDatabase::restore: snapshot covers " +
        std::to_string(snapshot.locationCount) +
        " locations, plan has " +
        std::to_string(plan_.locationCount()));
  if (snapshot.capacity <
      static_cast<std::size_t>(
          std::max(snapshot.config.minSamplesPerPair, 1)))
    throw util::ConfigError(
        "OnlineMotionDatabase::restore: snapshot capacity below the "
        "per-pair sample minimum");

  // Validate and build into locals first, so a malformed snapshot
  // leaves the live database untouched.
  std::map<PairKey, Reservoir> reservoirs;
  for (const auto& pair : snapshot.reservoirs) {
    if (!plan_.isValid(pair.i) || !plan_.isValid(pair.j) ||
        pair.i >= pair.j)
      throw util::ConfigError(
          "OnlineMotionDatabase::restore: invalid reservoir pair key");
    if (pair.samples.size() > snapshot.capacity)
      throw util::ConfigError(
          "OnlineMotionDatabase::restore: reservoir larger than "
          "capacity");
    if (pair.seen < pair.samples.size())
      throw util::ConfigError(
          "OnlineMotionDatabase::restore: seen-count below retained "
          "samples");
    Reservoir reservoir;
    reservoir.seen = pair.seen;
    reservoir.samples.reserve(pair.samples.size());
    for (const auto& s : pair.samples)
      reservoir.samples.push_back({s.directionDeg, s.offsetMeters});
    if (!reservoirs.emplace(PairKey{pair.i, pair.j},
                            std::move(reservoir))
             .second)
      throw util::ConfigError(
          "OnlineMotionDatabase::restore: duplicate reservoir pair");
  }
  util::Rng rng(0);
  rng.setState(snapshot.rngState);  // Throws on the all-zero state.

  const util::MutexLock writeLock(writeMu_);
  const util::MutexLock lock(mu_);
  config_ = snapshot.config;
  capacity_ = snapshot.capacity;
  rng_ = rng;
  reservoirs_ = std::move(reservoirs);
  counters_ = snapshot.counters;
}

std::vector<OnlineMotionDatabase::ReservoirSample>
OnlineMotionDatabase::reservoirSamples(env::LocationId i,
                                       env::LocationId j) const {
  (void)plan_.location(i);  // Validate ids like the write path does.
  (void)plan_.location(j);
  const util::MutexLock lock(mu_);
  const PairKey key = i <= j ? PairKey{i, j} : PairKey{j, i};
  const auto it = reservoirs_.find(key);
  std::vector<ReservoirSample> samples;
  if (it == reservoirs_.end()) return samples;
  samples.reserve(it->second.samples.size());
  for (const auto& s : it->second.samples)
    samples.push_back({s.directionDeg, s.offsetMeters});
  return samples;
}

}  // namespace moloc::core
