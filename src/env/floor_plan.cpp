#include "env/floor_plan.hpp"

#include <stdexcept>
#include <string>

#include "util/error.hpp"

namespace moloc::env {

FloorPlan::FloorPlan(double width, double height)
    : width_(width), height_(height) {
  if (width <= 0.0 || height <= 0.0)
    throw util::ConfigError("FloorPlan: bounds must be positive");
}

void FloorPlan::addWall(const geometry::Segment& wall) {
  walls_.push_back(wall);
}

LocationId FloorPlan::addReferenceLocation(geometry::Vec2 pos) {
  if (pos.x < 0.0 || pos.x > width_ || pos.y < 0.0 || pos.y > height_)
    throw util::ConfigError("FloorPlan: location outside bounds");
  const auto id = static_cast<LocationId>(locations_.size());
  locations_.push_back({id, pos});
  return id;
}

const ReferenceLocation& FloorPlan::location(LocationId id) const {
  if (!isValid(id))
    throw std::out_of_range("FloorPlan: bad location id " +
                            std::to_string(id));
  return locations_[static_cast<std::size_t>(id)];
}

std::vector<geometry::Vec2> FloorPlan::positions() const {
  std::vector<geometry::Vec2> out;
  out.reserve(locations_.size());
  for (const ReferenceLocation& location : locations_)
    out.push_back(location.pos);
  return out;
}

int FloorPlan::wallCrossings(geometry::Vec2 a, geometry::Vec2 b) const {
  return geometry::countCrossings(a, b, walls_);
}

bool FloorPlan::lineBlocked(geometry::Vec2 a, geometry::Vec2 b) const {
  const geometry::Segment path{a, b};
  for (const auto& wall : walls_)
    if (geometry::segmentsIntersect(path, wall)) return true;
  return false;
}

}  // namespace moloc::env
