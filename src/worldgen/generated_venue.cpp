#include "worldgen/generated_venue.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "env/walk_graph.hpp"
#include "geometry/angles.hpp"
#include "geometry/segment.hpp"

namespace moloc::worldgen {

namespace {

/// Strip layout: floors sit side by side in the global plan, separated
/// by a dead gap no walk edge crosses (stairs and bridges are explicit
/// edges with their own lengths).
constexpr double kStripGapMeters = 8.0;
/// Vertical legs: one storey of stairs / one inter-building bridge.
constexpr double kStairLengthMeters = 5.0;
constexpr double kBridgeLengthMeters = 10.0;
/// Partition walls split each floor into bands this many rows tall.
constexpr int kBandRows = 8;
/// Door gap (one cell wide) in every band wall, this many columns
/// apart.
constexpr int kDoorEveryCols = 16;
/// Map-derived RLM uncertainty assigned to every walkable leg; the
/// fixed sigmas mirror the office world's survey-derived spread.
constexpr double kRlmSigmaDirectionDeg = 10.0;
constexpr double kRlmSigmaOffsetMeters = 0.3;
constexpr int kRlmSampleCount = 12;

constexpr double kCardinal[4] = {0.0, 90.0, 180.0, 270.0};

/// Independent deterministic sub-streams of the venue seed.  The
/// per-location stream matches the loadgen idiom (seed * 1000003 +
/// salt); the offsets keep the streams from colliding below
/// kMaxVenueLocations.
std::uint64_t locationSeed(std::uint64_t seed, std::size_t location) {
  return seed * 1000003ULL + location;
}
std::uint64_t floorSeed(std::uint64_t seed, std::size_t strip) {
  return seed * 1000003ULL + 0x40000000ULL + strip;
}

}  // namespace

geometry::Vec2 GeneratedVenue::localCellPos(int col, int row) const {
  const double s = spec_.spacingMeters;
  return {s + (col + 0.5) * s, s + (row + 0.5) * s};
}

GeneratedVenue::GeneratedVenue(VenueSpec spec)
    : spec_(spec),
      site_{env::FloorPlan(1.0, 1.0), env::WalkGraph{}, {}},
      fingerprints_(std::make_shared<radio::FingerprintDatabase>()) {
  validateVenueSpec(spec_);

  const int cols = spec_.gridCols;
  const int rows = spec_.gridRows;
  const double s = spec_.spacingMeters;
  const double margin = s;
  const double floorW = 2.0 * margin + cols * s;
  const double floorH = 2.0 * margin + rows * s;
  const std::size_t stripCount =
      static_cast<std::size_t>(spec_.buildings) *
      static_cast<std::size_t>(spec_.floorsPerBuilding);
  const std::size_t locsPerFloor =
      static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows);
  const std::size_t n = worldgen::locationCount(spec_);

  env::FloorPlan globalPlan(
      stripCount * (floorW + kStripGapMeters) - kStripGapMeters, floorH);

  // Door-gap columns of the band walls; every band keeps at least one
  // doorway so each floor stays connected.
  std::vector<int> doorCols;
  for (int c = kDoorEveryCols / 2; c < cols; c += kDoorEveryCols)
    doorCols.push_back(c);
  if (doorCols.empty()) doorCols.push_back(cols / 2);

  floorData_.reserve(stripCount);
  floors_.reserve(stripCount);
  for (std::size_t strip = 0; strip < stripCount; ++strip) {
    const geometry::Vec2 origin{
        static_cast<double>(strip) * (floorW + kStripGapMeters), 0.0};

    Floor floor;
    floor.localPlan = std::make_unique<env::FloorPlan>(floorW, floorH);

    // Banded partition walls with one-cell door gaps.
    for (int bandRow = kBandRows; bandRow < rows; bandRow += kBandRows) {
      const double y = margin + bandRow * s;
      double segStart = 0.0;
      for (const int door : doorCols) {
        const double gapLo = margin + door * s;
        const double gapHi = margin + (door + 1) * s;
        if (gapLo > segStart)
          floor.localPlan->addWall({{segStart, y}, {gapLo, y}});
        segStart = gapHi;
      }
      if (segStart < floorW)
        floor.localPlan->addWall({{segStart, y}, {floorW, y}});
    }

    // Jittered-grid AP placement: full coverage without regularity.
    const int apCols = static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(spec_.apsPerFloor))));
    const int apRows = (spec_.apsPerFloor + apCols - 1) / apCols;
    const double apCellW = floorW / apCols;
    const double apCellH = floorH / apRows;
    util::Rng apRng(floorSeed(spec_.seed, strip));
    floor.aps.reserve(static_cast<std::size_t>(spec_.apsPerFloor));
    for (int a = 0; a < spec_.apsPerFloor; ++a) {
      const int apCol = a % apCols;
      const int apRow = a / apCols;
      const geometry::Vec2 pos{
          (apCol + 0.5) * apCellW + apRng.uniform(-0.25, 0.25) * apCellW,
          (apRow + 0.5) * apCellH + apRng.uniform(-0.25, 0.25) * apCellH};
      radio::AccessPoint ap;
      ap.id = static_cast<int>(strip) * spec_.apsPerFloor + a;
      ap.pos = pos;
      floor.aps.push_back(ap);
    }

    floor.model = std::make_unique<radio::LogDistanceModel>(
        spec_.propagation, *floor.localPlan);

    // Mirror the strip into the global plan: outline, walls,
    // reference locations (floor-major id order), global AP list.
    globalPlan.addWall({origin, origin + geometry::Vec2{floorW, 0.0}});
    globalPlan.addWall({origin + geometry::Vec2{0.0, floorH},
                        origin + geometry::Vec2{floorW, floorH}});
    globalPlan.addWall({origin, origin + geometry::Vec2{0.0, floorH}});
    globalPlan.addWall({origin + geometry::Vec2{floorW, 0.0},
                        origin + geometry::Vec2{floorW, floorH}});
    for (const auto& wall : floor.localPlan->walls())
      globalPlan.addWall({origin + wall.a, origin + wall.b});

    FloorInfo info;
    info.building = static_cast<int>(
        strip / static_cast<std::size_t>(spec_.floorsPerBuilding));
    info.floor = static_cast<int>(
        strip % static_cast<std::size_t>(spec_.floorsPerBuilding));
    info.firstLocation = strip * locsPerFloor;
    info.locationCount = locsPerFloor;
    info.firstAp = strip * static_cast<std::size_t>(spec_.apsPerFloor);
    info.apCount = static_cast<std::size_t>(spec_.apsPerFloor);
    info.origin = origin;
    floors_.push_back(info);

    for (int row = 0; row < rows; ++row)
      for (int col = 0; col < cols; ++col)
        globalPlan.addReferenceLocation(origin + localCellPos(col, row));
    for (const auto& ap : floor.aps) {
      radio::AccessPoint globalAp = ap;
      globalAp.pos = origin + ap.pos;
      aps_.push_back(globalAp);
    }

    floorData_.push_back(std::move(floor));
    shardStarts_.push_back(info.firstLocation);
  }

  // Analytic walk edges: grid legs (dropped when a partition blocks
  // them), stairs between consecutive floors, ground-floor bridges
  // between consecutive buildings.  All-pairs WalkGraph::build is
  // O(n^2) and intractable here.
  std::vector<env::UndirectedEdge> edges;
  edges.reserve(n * 2);
  const auto globalLocs = globalPlan.locations();
  const auto cellId = [&](std::size_t strip, int col,
                          int row) -> env::LocationId {
    return static_cast<env::LocationId>(
        strip * locsPerFloor +
        static_cast<std::size_t>(row) * static_cast<std::size_t>(cols) +
        static_cast<std::size_t>(col));
  };
  const auto addEdge = [&](env::LocationId a, env::LocationId b,
                           double length) {
    edges.push_back({a, b, length,
                     geometry::headingBetweenDeg(globalLocs[a].pos,
                                                 globalLocs[b].pos)});
  };

  for (std::size_t strip = 0; strip < stripCount; ++strip) {
    const env::FloorPlan& local = *floorData_[strip].localPlan;
    for (int row = 0; row < rows; ++row) {
      for (int col = 0; col < cols; ++col) {
        const geometry::Vec2 here = localCellPos(col, row);
        if (col + 1 < cols &&
            !local.lineBlocked(here, localCellPos(col + 1, row)))
          addEdge(cellId(strip, col, row), cellId(strip, col + 1, row),
                  s);
        if (row + 1 < rows &&
            !local.lineBlocked(here, localCellPos(col, row + 1)))
          addEdge(cellId(strip, col, row), cellId(strip, col, row + 1),
                  s);
      }
    }
  }
  for (int b = 0; b < spec_.buildings; ++b) {
    const std::size_t base =
        static_cast<std::size_t>(b) *
        static_cast<std::size_t>(spec_.floorsPerBuilding);
    for (int f = 0; f + 1 < spec_.floorsPerBuilding; ++f)
      addEdge(cellId(base + f, 0, 0), cellId(base + f + 1, 0, 0),
              kStairLengthMeters);
    if (b + 1 < spec_.buildings)
      addEdge(cellId(base, cols - 1, 0),
              cellId(base + static_cast<std::size_t>(
                                spec_.floorsPerBuilding),
                     0, 0),
              kBridgeLengthMeters);
  }

  site_.plan = std::move(globalPlan);
  site_.graph = env::WalkGraph::fromEdges(n, edges);
  site_.apPositions.reserve(aps_.size());
  for (const auto& ap : aps_) site_.apPositions.push_back(ap.pos);

  // Sparse visibility: a location hears only same-floor APs within the
  // spec radius.
  visibleStart_.reserve(n + 1);
  visibleStart_.push_back(0);
  for (std::size_t loc = 0; loc < n; ++loc) {
    const std::size_t strip = loc / locsPerFloor;
    const std::size_t cell = loc % locsPerFloor;
    const geometry::Vec2 pos = localCellPos(
        static_cast<int>(cell % static_cast<std::size_t>(cols)),
        static_cast<int>(cell / static_cast<std::size_t>(cols)));
    const auto& floorAps = floorData_[strip].aps;
    for (std::size_t a = 0; a < floorAps.size(); ++a)
      if (geometry::distance(pos, floorAps[a].pos) <=
          spec_.apVisibilityRadiusMeters)
        visibleAps_.push_back(static_cast<std::uint16_t>(a));
    visibleStart_.push_back(
        static_cast<std::uint32_t>(visibleAps_.size()));
  }

  // Site survey: trainSamples noisy kSurvey scans per location,
  // cycling the four cardinal facings (the paper's quarter-split
  // protocol), averaged per AP into the radio-map entry.  Unheard APs
  // read exactly the detection floor, keeping the dense fingerprint
  // dimensionality the matching pipeline expects.
  const std::size_t totalAps = aps_.size();
  std::vector<double> values(totalAps);
  std::vector<double> sums;
  for (std::size_t loc = 0; loc < n; ++loc) {
    const std::size_t strip = loc / locsPerFloor;
    const std::size_t cell = loc % locsPerFloor;
    const geometry::Vec2 pos = localCellPos(
        static_cast<int>(cell % static_cast<std::size_t>(cols)),
        static_cast<int>(cell / static_cast<std::size_t>(cols)));
    const Floor& floor = floorData_[strip];
    util::Rng rng(locationSeed(spec_.seed, loc));

    const std::uint32_t visBegin = visibleStart_[loc];
    const std::uint32_t visEnd = visibleStart_[loc + 1];
    sums.assign(visEnd - visBegin, 0.0);
    for (int sample = 0; sample < spec_.trainSamples; ++sample) {
      const double orientation = kCardinal[sample % 4];
      for (std::uint32_t v = visBegin; v < visEnd; ++v)
        sums[v - visBegin] += floor.model->sampleRssDbm(
            floor.aps[visibleAps_[v]], pos, orientation, rng,
            radio::Epoch::kSurvey);
    }
    values.assign(totalAps, spec_.propagation.detectionFloorDbm);
    for (std::uint32_t v = visBegin; v < visEnd; ++v)
      values[floors_[strip].firstAp + visibleAps_[v]] =
          sums[v - visBegin] / spec_.trainSamples;
    fingerprints_->addLocation(static_cast<env::LocationId>(loc),
                               radio::Fingerprint(values));
  }

  // Map-derived motion database: one RLM pair (and its mirror) per
  // walk edge.
  std::vector<core::MotionEntry> entries;
  entries.reserve(2 * edges.size());
  for (const auto& edge : edges) {
    core::RlmStats stats;
    stats.muDirectionDeg = edge.headingDeg;
    stats.sigmaDirectionDeg = kRlmSigmaDirectionDeg;
    stats.muOffsetMeters = edge.length;
    stats.sigmaOffsetMeters = kRlmSigmaOffsetMeters;
    stats.sampleCount = kRlmSampleCount;
    core::appendWithMirror(entries, edge.a, edge.b, stats);
  }
  motion_ = std::make_shared<const core::MotionDatabase>(n, entries);
}

void GeneratedVenue::fillScan(env::LocationId location,
                              double orientationDeg, util::Rng& rng,
                              radio::Epoch epoch,
                              std::vector<double>& values) const {
  const std::size_t locsPerFloor =
      static_cast<std::size_t>(spec_.gridCols) *
      static_cast<std::size_t>(spec_.gridRows);
  const std::size_t loc = static_cast<std::size_t>(location);
  const std::size_t strip = loc / locsPerFloor;
  const std::size_t cell = loc % locsPerFloor;
  const geometry::Vec2 pos = localCellPos(
      static_cast<int>(cell % static_cast<std::size_t>(spec_.gridCols)),
      static_cast<int>(cell / static_cast<std::size_t>(spec_.gridCols)));
  const Floor& floor = floorData_[strip];
  values.assign(aps_.size(), spec_.propagation.detectionFloorDbm);
  for (std::uint32_t v = visibleStart_[loc]; v < visibleStart_[loc + 1];
       ++v)
    values[floors_[strip].firstAp + visibleAps_[v]] =
        floor.model->sampleRssDbm(floor.aps[visibleAps_[v]], pos,
                                  orientationDeg, rng, epoch);
}

radio::Fingerprint GeneratedVenue::scanAt(env::LocationId location,
                                          double orientationDeg,
                                          util::Rng& rng,
                                          radio::Epoch epoch) const {
  if (!site_.plan.isValid(location))
    throw std::out_of_range("GeneratedVenue: bad location id " +
                            std::to_string(location));
  std::vector<double> values;
  fillScan(location, orientationDeg, rng, epoch, values);
  return radio::Fingerprint(std::move(values));
}

const FloorInfo& GeneratedVenue::floorOf(env::LocationId location) const {
  if (!site_.plan.isValid(location))
    throw std::out_of_range("GeneratedVenue: bad location id " +
                            std::to_string(location));
  const std::size_t locsPerFloor =
      static_cast<std::size_t>(spec_.gridCols) *
      static_cast<std::size_t>(spec_.gridRows);
  return floors_[static_cast<std::size_t>(location) / locsPerFloor];
}

}  // namespace moloc::worldgen
