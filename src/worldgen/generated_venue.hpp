#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/motion_database.hpp"
#include "env/site.hpp"
#include "geometry/vec2.hpp"
#include "radio/access_point.hpp"
#include "radio/fingerprint_database.hpp"
#include "radio/propagation.hpp"
#include "util/rng.hpp"
#include "worldgen/venue_spec.hpp"

namespace moloc::worldgen {

/// One floor strip of the generated campus.
struct FloorInfo {
  int building = 0;
  int floor = 0;
  std::size_t firstLocation = 0;   ///< Global LocationId of cell (0,0).
  std::size_t locationCount = 0;   ///< gridCols * gridRows.
  std::size_t firstAp = 0;         ///< Global id of the floor's first AP.
  std::size_t apCount = 0;
  geometry::Vec2 origin;           ///< Strip offset in the global plan.
};

/// A deterministic, seeded campus-scale venue: the city-scale world of
/// ROADMAP item 2.
///
/// Every floor of every building is one strip of the global FloorPlan
/// (location ids are floor-major, so per-floor row ranges are
/// contiguous — exactly the shard boundaries the tiered index wants,
/// exposed as shardStarts()).  Radio is modeled per floor: each floor
/// carries its own wall set and its own radio::LogDistanceModel over
/// its own APs, and a location hears only same-floor APs within the
/// spec's visibility radius — everything else reports the detection
/// floor.  That sparse visibility is both physically motivated
/// (cross-floor attenuation) and what keeps a 64k x 192 survey
/// tractable: the full RadioEnvironment would evaluate every AP at
/// every location.
///
/// The construction composes the existing pipeline pieces: per-floor
/// grids with banded partition walls -> analytic WalkGraph edges
/// (grid legs dropped when a partition blocks them, stairs between
/// floors, ground-floor bridges between buildings) via
/// WalkGraph::fromEdges; a survey-protocol radio map (trainSamples
/// noisy kSurvey scans per location, cycling N/E/S/W facings,
/// averaged per AP) into a radio::FingerprintDatabase; and
/// map-derived RLM entries for every walk edge into a
/// core::MotionDatabase.  The result plugs into
/// LocalizationService / molocd unchanged.
class GeneratedVenue {
 public:
  /// Generates the venue; cost is O(locations * (visible APs +
  /// walls-per-floor)).  Throws std::invalid_argument on a bad spec.
  explicit GeneratedVenue(VenueSpec spec);

  const VenueSpec& spec() const { return spec_; }
  const env::Site& site() const { return site_; }
  std::span<const FloorInfo> floors() const { return floors_; }
  std::size_t locationCount() const { return site_.plan.locationCount(); }
  std::size_t apCount() const { return aps_.size(); }

  /// The surveyed radio map (row order == location id order).
  const radio::FingerprintDatabase& fingerprints() const {
    return *fingerprints_;
  }
  /// Shared handle for consumers that keep the database alive past the
  /// venue (index::TieredIndex, WorldSnapshot).
  std::shared_ptr<const radio::FingerprintDatabase> sharedFingerprints()
      const {
    return fingerprints_;
  }

  /// Map-derived motion database (one RLM pair per walk edge).
  const core::MotionDatabase& motion() const { return motion_; }

  /// Per-floor first rows — natural shard boundaries for the index.
  const std::vector<std::size_t>& shardStarts() const {
    return shardStarts_;
  }

  /// One serving-epoch scan at a reference location: noisy samples of
  /// the location's visible APs, detection floor everywhere else.
  /// Deterministic in (venue, rng state); throws std::out_of_range on
  /// a bad id.
  radio::Fingerprint scanAt(env::LocationId location,
                            double orientationDeg, util::Rng& rng,
                            radio::Epoch epoch =
                                radio::Epoch::kServing) const;

  /// The floor strip containing `location`.
  const FloorInfo& floorOf(env::LocationId location) const;

  /// Global APs (strip coordinates), id order.
  std::span<const radio::AccessPoint> accessPoints() const {
    return aps_;
  }

 private:
  struct Floor {
    /// Walls in strip-local coordinates; the propagation model holds a
    /// pointer to this plan, so it lives behind a stable allocation.
    std::unique_ptr<env::FloorPlan> localPlan;
    std::unique_ptr<radio::LogDistanceModel> model;
    /// The floor's APs in strip-local coordinates, global ids.
    std::vector<radio::AccessPoint> aps;
  };

  geometry::Vec2 localCellPos(int col, int row) const;
  void fillScan(env::LocationId location, double orientationDeg,
                util::Rng& rng, radio::Epoch epoch,
                std::vector<double>& values) const;

  VenueSpec spec_;
  std::vector<Floor> floorData_;
  std::vector<FloorInfo> floors_;
  env::Site site_;
  std::vector<radio::AccessPoint> aps_;
  std::shared_ptr<radio::FingerprintDatabase> fingerprints_;
  core::MotionDatabase motion_;
  std::vector<std::size_t> shardStarts_;
  /// Flattened per-location visible-AP lists (indices into the
  /// location's floor's `aps`): visibleAps_[visibleStart_[l] ..
  /// visibleStart_[l + 1]).
  std::vector<std::uint32_t> visibleStart_;
  std::vector<std::uint16_t> visibleAps_;
};

}  // namespace moloc::worldgen
