#include "core/construction_methods.hpp"

#include <vector>

#include "geometry/angles.hpp"

namespace moloc::core {

MotionDatabase buildMotionDatabaseManually(const env::WalkGraph& graph,
                                           ComputedRlmSpread spread) {
  std::vector<MotionEntry> entries;
  for (env::LocationId i = 0;
       i < static_cast<env::LocationId>(graph.nodeCount()); ++i) {
    for (const auto& edge : graph.neighbors(i)) {
      if (edge.to < i) continue;  // Each undirected leg once.
      appendWithMirror(entries, i, edge.to,
                       {edge.headingDeg, spread.sigmaDirectionDeg,
                        edge.length, spread.sigmaOffsetMeters, 0});
    }
  }
  return MotionDatabase(graph.nodeCount(), entries);
}

MotionDatabase buildMotionDatabaseFromMap(const env::FloorPlan& plan,
                                          double maxAdjacencyDist,
                                          ComputedRlmSpread spread) {
  const auto locations = plan.locations();
  std::vector<MotionEntry> entries;
  for (std::size_t i = 0; i < locations.size(); ++i) {
    for (std::size_t j = i + 1; j < locations.size(); ++j) {
      const auto a = locations[i].pos;
      const auto b = locations[j].pos;
      const double dist = geometry::distance(a, b);
      if (dist > maxAdjacencyDist) continue;
      // Deliberately no wall test: the map method cannot see walls.
      appendWithMirror(
          entries, locations[i].id, locations[j].id,
          {geometry::headingBetweenDeg(a, b), spread.sigmaDirectionDeg,
           dist, spread.sigmaOffsetMeters, 0});
    }
  }
  return MotionDatabase(locations.size(), entries);
}

std::size_t countUnwalkableEntries(const MotionDatabase& db,
                                   const env::WalkGraph& graph) {
  std::size_t violations = 0;
  db.forEachEntry(
      [&](env::LocationId i, env::LocationId j, const RlmStats&) {
        if (i < j && !graph.adjacent(i, j)) ++violations;
      });
  return violations;
}

}  // namespace moloc::core
