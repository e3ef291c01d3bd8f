#pragma once

#include <span>
#include <vector>

#include "geometry/segment.hpp"
#include "geometry/vec2.hpp"

namespace moloc::env {

/// Index of a reference location within a floor plan (0-based).
///
/// The paper numbers the 28 office-hall locations 1..28 (Fig. 5); we use
/// 0-based ids internally, so paper location n is id n-1.
using LocationId = int;

/// A surveyed reference location: a point for which the fingerprint
/// database holds RSS samples and between which the motion database
/// stores relative location measurements.
struct ReferenceLocation {
  LocationId id = 0;
  geometry::Vec2 pos;
};

/// Static description of an indoor environment: outer bounds, walls and
/// partitions (as segments), and the set of reference locations.
///
/// The plan is consumed by three subsystems: the radio model (each wall
/// crossed attenuates a signal), the walk graph (a leg crossing a wall is
/// not walkable), and the evaluation harness (ground-truth coordinates).
class FloorPlan {
 public:
  /// An empty rectangular plan of the given size in metres.
  /// Bounds must be strictly positive; throws std::invalid_argument.
  FloorPlan(double width, double height);

  double width() const { return width_; }
  double height() const { return height_; }

  /// Registers a wall or partition segment.
  void addWall(const geometry::Segment& wall);

  /// Registers a reference location and returns its id (assigned
  /// sequentially).  Throws std::invalid_argument if `pos` lies outside
  /// the plan bounds.
  LocationId addReferenceLocation(geometry::Vec2 pos);

  std::span<const geometry::Segment> walls() const { return walls_; }
  std::span<const ReferenceLocation> locations() const { return locations_; }

  std::size_t locationCount() const { return locations_.size(); }

  /// The reference coordinates indexed by location id — all the
  /// crowdsourcing intake reads of a plan (core::OnlineMotionDatabase).
  std::vector<geometry::Vec2> positions() const;

  /// Bounds-checked access; throws std::out_of_range for a bad id.
  const ReferenceLocation& location(LocationId id) const;

  /// True iff `id` names a registered reference location.
  bool isValid(LocationId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < locations_.size();
  }

  /// Number of walls crossed by the straight segment a -> b.
  int wallCrossings(geometry::Vec2 a, geometry::Vec2 b) const;

  /// True when the straight segment a -> b crosses at least one wall.
  bool lineBlocked(geometry::Vec2 a, geometry::Vec2 b) const;

 private:
  double width_;
  double height_;
  std::vector<geometry::Segment> walls_;
  std::vector<ReferenceLocation> locations_;
};

}  // namespace moloc::env
