#pragma once

// Workload definitions for the load generator (load.cpp): which world
// molocd serves, how its users walk it, and when each request is due.
// Everything derives from the --seed argument, so one seed always
// yields the same inputs.  Also the program's argument and result
// plumbing.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/experiment_world.hpp"
#include "traj/trace_simulator.hpp"
#include "traj/user_profile.hpp"
#include "util/rng.hpp"
#include "worldgen/generated_venue.hpp"
#include "worldgen/venue_spec.hpp"

namespace servebench {

using namespace moloc;

/// molocd's default --seed and --venue-seed: the world it serves.  The
/// workload seed varies only the walks and the schedule.
inline constexpr std::uint64_t kWorldSeed = 42;

/// A population of walking users.  A user scans on arrival at each
/// reference location of its walk, so its request rate is set by the
/// simulated legs (walking time between locations), not chosen; the
/// offered load is the number of users walking at once times that
/// per-user rate.
struct WorkloadSpec {
  std::string name;
  /// Generated campus venue preset ("" = the paper's office hall).
  std::string venue;
  /// TCP connections (gateways) the users are spread over.
  std::size_t connections = 0;
  /// Users walking at any moment.
  std::size_t users = 0;
  /// 0: long walks, every user already tracked when the measured phase
  /// starts.  Otherwise users arrive (Poisson), take this many scans
  /// and leave, so one scan in this many opens a session.
  std::size_t scansPerUser = 0;
  /// Scans per request: a connection's gateway sends LocalizeBatch once
  /// it holds this many scans; 1 sends each scan as a Localize.
  std::size_t batch = 1;
  /// Upper bound on the mean localization error (metres) over the
  /// measured scans, a little above what the server achieves; served
  /// answers are checked bitwise, this guards the world itself.
  double maxMeanErrorMeters = 0.0;
};

/// Users spread over 16 connections, the shape moloc_loadgen replays by
/// default.  Each user count puts the offered load at a fifth to a
/// quarter of the workload's saturation throughput: its requests sent
/// closed-loop, 16 in flight per connection, to molocd with default
/// threads on a 4-vCPU x86 host (hall walks ~40k scans/s, hall crowd
/// ~53k scans/s, campus ~5.5k scans/s in batches of 4).  Hall legs last
/// ~3.9 s, campus legs ~2.4 s.
inline const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"hall-walk", "", 16, 32768, 0, 1, 2.2},
      {"hall-crowd", "", 16, 32768, 4, 1, 2.3},
      {"campus16k-batch", "campus-16k", 16, 3072, 0, 4, 8.8},
  };
  return specs;
}

inline const WorkloadSpec& findWorkload(const std::string& name) {
  for (const auto& spec : workloads())
    if (spec.name == name) return spec;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// One scan as the phone sends it, plus its ground truth.
struct Scan {
  radio::Fingerprint fingerprint;
  sensors::ImuTrace imu;  ///< Empty for a first fix or fingerprint-only.
  env::LocationId truth = 0;
  /// Walking time from the previous scan's location (0 for the first).
  double legSeconds = 0.0;
};

/// Scan `scan` of user `user`'s walk.
struct Item {
  std::uint32_t user = 0;
  std::uint32_t scan = 0;
};

/// One request on the wire: scans of one or more users.
struct Request {
  double at = 0.0;  ///< Due time, seconds from the measured phase start.
  std::uint32_t conn = 0;
  std::vector<Item> items;
};

/// Users walk one of a pool of pre-simulated walks, which bounds the
/// generator's memory however many users there are.  Each user is its
/// own session on the server, so sharing a walk shares no server state.
inline constexpr std::size_t kWalkScans = 32;
inline constexpr std::size_t kWalkPool = 256;
/// Users of the unloaded round-trip probe, four scans each.
inline constexpr std::size_t kProbeUsers = 100;
inline constexpr std::uint32_t kProbeScans = 4;

/// Every request of a run.  A user's scans are only ever sent in order
/// on one connection, which molocd answers in order, so each session
/// sees the same scan sequence as an in-process service fed the
/// phases in order.
struct Schedule {
  std::vector<std::vector<Scan>> walks;
  std::vector<std::uint32_t> userWalk;
  /// Due before the measured phase: opens the sessions of the users
  /// already walking at its start.  Sent closed-loop.
  std::vector<Request> warmup;
  /// Due in [0, seconds), sent open-loop at their due times.
  std::vector<Request> measured;
  /// Fresh users, sent one at a time (unloaded round trip).
  std::vector<Request> probe;

  const Scan& scan(const Item& item) const {
    return walks[userWalk[item.user]][item.scan];
  }
};

/// The serving world, built exactly as molocd builds it.
class World {
 public:
  explicit World(const WorkloadSpec& spec) {
    if (spec.venue.empty()) {
      eval::WorldConfig config;
      config.seed = kWorldSeed;
      hall_ = std::make_unique<eval::ExperimentWorld>(config);
    } else {
      worldgen::VenueSpec venueSpec = worldgen::parseVenueSpec(spec.venue);
      venueSpec.seed = kWorldSeed;
      venue_ = std::make_unique<worldgen::GeneratedVenue>(venueSpec);
    }
  }

  const worldgen::GeneratedVenue* venue() const { return venue_.get(); }

  const radio::FingerprintDatabase& fingerprints() const {
    return venue_ ? venue_->fingerprints() : hall_->fingerprintDb();
  }
  const core::MotionDatabase& motion() const {
    return venue_ ? venue_->motion() : hall_->motionDb();
  }

  double distance(env::LocationId a, env::LocationId b) const {
    const env::FloorPlan& plan =
        venue_ ? venue_->site().plan : hall_->hall().plan;
    const auto pa = plan.location(a).pos;
    const auto pb = plan.location(b).pos;
    return std::hypot(pa.x - pb.x, pa.y - pb.y);
  }

  /// A walk of `count` scans by walker `index` (one of the paper's four
  /// user profiles, which set its pace).  In the hall the scans carry
  /// the IMU recording of each leg (server-side motion processing) and
  /// a leg lasts as long as its recording; in a venue the walk stays on
  /// one floor and is fingerprint-only, as the intake's
  /// map-consistency rules require, and a leg lasts its length over
  /// the walker's speed.
  std::vector<Scan> walk(std::size_t index, std::size_t count,
                         util::Rng& rng) const {
    std::vector<Scan> scans;
    if (count == 0) return scans;
    if (hall_) {
      const auto& profile = hall_->users()[index % hall_->users().size()];
      const traj::Trace trace = hall_->makeTrace(
          profile, static_cast<int>(count - 1), rng);
      scans.push_back({trace.initialScan, sensors::ImuTrace(),
                       trace.startTruth, 0.0});
      for (const auto& interval : trace.intervals)
        scans.push_back({interval.scanAtArrival, interval.imu,
                         interval.toTruth,
                         static_cast<double>(interval.imu.samples().size()) /
                             interval.imu.sampleRateHz()});
      if (scans.size() != count)
        throw std::logic_error("trace has an unexpected leg count");
      return scans;
    }
    static const std::vector<traj::UserProfile> walkers =
        traj::makeDefaultUsers();
    const double speed = walkers[index % walkers.size()].speedMps();
    const env::WalkGraph& graph = venue_->site().graph;
    auto loc = static_cast<env::LocationId>(
        rng.uniformIndex(venue_->locationCount()));
    double heading = 0.0;
    double legSeconds = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      if (i > 0) {
        // Without a same-floor neighbour the walker lingers, for as long
        // as the trace simulator's pauses last.
        legSeconds = traj::TraceSimulatorParams{}.pauseDurationSec;
        const auto neighbors = graph.neighbors(loc);
        for (int attempt = 0; attempt < 8; ++attempt) {
          const auto& edge = neighbors[static_cast<std::size_t>(
              rng.uniformIndex(neighbors.size()))];
          if (&venue_->floorOf(edge.to) != &venue_->floorOf(loc)) continue;
          loc = edge.to;
          heading = edge.headingDeg;
          legSeconds = edge.length / speed;
          break;
        }
      }
      scans.push_back({venue_->scanAt(loc, heading, rng), sensors::ImuTrace(),
                       loc, legSeconds});
    }
    return scans;
  }

 private:
  std::unique_ptr<eval::ExperimentWorld> hall_;
  std::unique_ptr<worldgen::GeneratedVenue> venue_;
};

/// The value following `name` on the command line, else `fallback`
/// (throws when there is neither).
inline std::string argValue(int argc, char** argv, const char* name,
                            const char* fallback = nullptr) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  if (fallback == nullptr)
    throw std::invalid_argument(std::string("missing ") + name);
  return fallback;
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
inline double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank > 0 ? rank - 1 : 0)];
}

/// `metrics` as the members of a JSON object, every digit kept.
inline std::string jsonMembers(const std::map<std::string, double>& metrics) {
  std::string json;
  for (const auto& [name, value] : metrics) {
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    json += (json.empty() ? "\"" : ", \"") + name + "\": " + number;
  }
  return json;
}

inline double exponential(util::Rng& rng, double rate) {
  return -std::log(1.0 - rng.uniform(0.0, 1.0)) / rate;
}

/// Mean walking time of a leg over the walk pool.
inline double meanLegSeconds(const std::vector<std::vector<Scan>>& walks,
                             std::size_t scansPerWalk) {
  double sum = 0.0;
  std::size_t legs = 0;
  for (const auto& walk : walks)
    for (std::size_t s = 1; s < std::min(scansPerWalk, walk.size()); ++s) {
      sum += walk[s].legSeconds;
      ++legs;
    }
  return sum / static_cast<double>(std::max<std::size_t>(1, legs));
}

/// Builds the schedule of a run of `seconds` for `spec` from `seed`.
inline Schedule makeSchedule(const WorkloadSpec& spec, const World& world,
                             std::uint64_t seed, double seconds) {
  Schedule schedule;
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EB5);
  for (std::size_t w = 0; w < kWalkPool; ++w) {
    util::Rng walkRng = rng.split();
    schedule.walks.push_back(world.walk(w, kWalkScans, walkRng));
  }

  // Every scan of every user with its time, then grouped into requests.
  struct Timed {
    double at;
    std::uint32_t user;
    std::uint32_t scan;
  };
  std::vector<Timed> timed;
  const auto randomWalk = [&] {
    return static_cast<std::uint32_t>(rng.uniformIndex(kWalkPool));
  };
  // Adds a user walking `walk` whose first scan is at `start` and who
  // takes up to `count` scans; returns the time of its last scan.
  const auto addUser = [&](std::uint32_t walk, double start,
                           std::size_t count) {
    const auto user = static_cast<std::uint32_t>(schedule.userWalk.size());
    schedule.userWalk.push_back(walk);
    double at = start;
    for (std::uint32_t s = 0; s < count; ++s) {
      at += schedule.walks[walk][s].legSeconds;
      if (at >= seconds) break;
      timed.push_back({at, user, s});
    }
    return at;
  };
  if (spec.scansPerUser == 0) {
    // Long walks: each user took its first scan during its first leg
    // before the phase starts, so the users' scans are spread evenly
    // over the phase.  A user whose walk ends is replaced by a new one.
    for (std::size_t slot = 0; slot < spec.users; ++slot) {
      const std::uint32_t walk = randomWalk();
      double start = addUser(
          walk, -rng.uniform(0.0, schedule.walks[walk][1].legSeconds),
          kWalkScans);
      while (start < seconds) start = addUser(randomWalk(), start, kWalkScans);
    }
  } else {
    // Short walks: arrivals at the rate that keeps `users` walking
    // (Little's law), starting early enough for the population to have
    // reached that level when the measured phase starts.
    const double lifetime =
        static_cast<double>(spec.scansPerUser - 1) *
        meanLegSeconds(schedule.walks, spec.scansPerUser);
    const double arrivalRate = static_cast<double>(spec.users) / lifetime;
    for (double at = -2.0 * lifetime + exponential(rng, arrivalRate);
         at < seconds; at += exponential(rng, arrivalRate))
      addUser(randomWalk(), at, spec.scansPerUser);
  }
  std::stable_sort(timed.begin(), timed.end(),
                   [](const Timed& a, const Timed& b) { return a.at < b.at; });

  // Each connection's gateway sends a request once it holds `batch`
  // scans; the request is due when its last scan is taken.  Scans left
  // waiting at the end of the phase are never sent.
  std::vector<std::vector<Item>> pending(spec.connections);
  for (const Timed& t : timed) {
    const auto conn = static_cast<std::uint32_t>(t.user % spec.connections);
    pending[conn].push_back({t.user, t.scan});
    if (pending[conn].size() < spec.batch) continue;
    (t.at < 0.0 ? schedule.warmup : schedule.measured)
        .push_back({t.at, conn, std::move(pending[conn])});
    pending[conn].clear();
  }

  // Probe: fresh users, each walking the start of a pool walk, in
  // rounds so that every user's scans stay in order.
  const auto firstProbeUser =
      static_cast<std::uint32_t>(schedule.userWalk.size());
  for (std::size_t p = 0; p < kProbeUsers * spec.batch; ++p)
    schedule.userWalk.push_back(static_cast<std::uint32_t>(p % kWalkPool));
  for (std::uint32_t s = 0; s < kProbeScans; ++s)
    for (std::size_t g = 0; g < kProbeUsers; ++g) {
      Request request{0.0, 0, {}};
      for (std::size_t m = 0; m < spec.batch; ++m)
        request.items.push_back(
            {firstProbeUser + static_cast<std::uint32_t>(g * spec.batch + m),
             s});
      schedule.probe.push_back(std::move(request));
    }
  return schedule;
}

}  // namespace servebench
