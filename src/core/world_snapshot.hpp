#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/motion_database.hpp"
#include "index/tiered_index.hpp"
#include "radio/fingerprint_database.hpp"
#include "util/error.hpp"

namespace moloc::core {

/// One immutable, internally consistent serving world: the radio map,
/// its optional tiered index, and the motion database of a publish
/// point.  A LocalizationService and every session it creates are
/// built from a snapshot and nothing else.
///
/// Snapshots are the unit of the serving stack's epoch/RCU-style read
/// path (docs/serving.md).  The intake writer thread builds one from
/// its private OnlineMotionDatabase, then publishes it behind an
/// atomic shared_ptr; readers load the pointer and score against the
/// snapshot with no lock and no further coordination.  Nothing in a
/// published snapshot ever mutates, so a reader pinning an old
/// generation keeps a bitwise-stable world until it drops its
/// reference — reclamation is the shared_ptr refcount, no epochs or
/// grace periods to track.
///
/// The fingerprint database and the index are shared (they do not
/// change online), so a publish builds only a new motion database,
/// which every session adopting the snapshot then shares.
class WorldSnapshot {
 public:
  /// `fingerprints` may be null for motion-only worlds (tests);
  /// `adjacency` — e.g. a non-owning view into an mmap'd venue image
  /// (src/image), kept alive by whatever its control block owns — must
  /// be non-null (throws std::invalid_argument).  `generation` is the
  /// publish sequence number, `intakeRecords` the number of accepted
  /// observations folded into this world (staleness accounting).
  /// `tieredIndex`, when non-null, is the prefilter built over
  /// `fingerprints`.
  WorldSnapshot(std::shared_ptr<const radio::FingerprintDatabase> fingerprints,
                std::shared_ptr<const MotionDatabase> adjacency,
                std::uint64_t generation, std::uint64_t intakeRecords,
                std::shared_ptr<const index::TieredIndex> tieredIndex =
                    nullptr)
      : fingerprints_(std::move(fingerprints)),
        tieredIndex_(std::move(tieredIndex)),
        adjacency_(std::move(adjacency)),
        generation_(generation),
        intakeRecords_(intakeRecords),
        publishedAt_(std::chrono::steady_clock::now()) {
    if (!adjacency_)
      throw util::ConfigError("WorldSnapshot: null adjacency");
  }

  WorldSnapshot(const WorldSnapshot&) = delete;
  WorldSnapshot& operator=(const WorldSnapshot&) = delete;

  /// The shared radio map; null when the world was built motion-only.
  const std::shared_ptr<const radio::FingerprintDatabase>& fingerprints()
      const {
    return fingerprints_;
  }

  /// The tiered candidate index over fingerprints(), when the serving
  /// layer built one; null otherwise.  Built once before the snapshot
  /// is published, never mutated after — the same immutability
  /// contract as the motion database.
  const std::shared_ptr<const index::TieredIndex>& tieredIndex() const {
    return tieredIndex_;
  }

  /// The motion database sessions score against.
  const MotionDatabase& adjacency() const { return *adjacency_; }

  /// Monotonic publish sequence number (the boot world is 0).
  std::uint64_t generation() const { return generation_; }

  /// Accepted intake observations folded into this world.
  std::uint64_t intakeRecords() const { return intakeRecords_; }

  /// When this snapshot was built (steady clock; staleness metrics).
  std::chrono::steady_clock::time_point publishedAt() const {
    return publishedAt_;
  }

  /// The snapshot's motion database as a handle that *pins the
  /// snapshot*: an aliasing shared_ptr whose control block owns the
  /// whole WorldSnapshot.  Sessions hold only this — the motion world they
  /// score against cannot be reclaimed out from under them even after
  /// the service publishes ten newer generations.
  static std::shared_ptr<const MotionDatabase> adjacencyOf(
      std::shared_ptr<const WorldSnapshot> snapshot) {
    if (!snapshot) return nullptr;
    const MotionDatabase* adjacency = &snapshot->adjacency();
    return std::shared_ptr<const MotionDatabase>(std::move(snapshot),
                                                 adjacency);
  }

 private:
  std::shared_ptr<const radio::FingerprintDatabase> fingerprints_;
  std::shared_ptr<const index::TieredIndex> tieredIndex_;
  std::shared_ptr<const MotionDatabase> adjacency_;
  std::uint64_t generation_ = 0;
  std::uint64_t intakeRecords_ = 0;
  std::chrono::steady_clock::time_point publishedAt_;
};

}  // namespace moloc::core
