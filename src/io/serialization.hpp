#pragma once

#include <iosfwd>
#include <string>

#include "core/motion_database.hpp"
#include "radio/fingerprint_database.hpp"
#include "radio/probabilistic_database.hpp"

namespace moloc::io {

/// Persistence for the two databases a deployed MoLoc installation
/// carries between sessions: the radio map from the site survey and
/// the crowdsourced motion database.
///
/// The format is a line-oriented text format with a versioned header —
/// diff-friendly, greppable, and stable across platforms:
///
///   moloc-fingerprint-db v1
///   aps <n>
///   location <id> <rss_1> ... <rss_n>
///
///   moloc-motion-db v1
///   locations <n>
///   entry <i> <j> <mu_dir> <sigma_dir> <mu_off> <sigma_off> <samples>
///
/// Readers throw util::ParseError with a line-numbered message on any
/// malformed input; partially-read data is never returned.

void saveFingerprintDatabase(const radio::FingerprintDatabase& db,
                             std::ostream& out);
radio::FingerprintDatabase loadFingerprintDatabase(std::istream& in);

void saveMotionDatabase(const core::MotionDatabase& db,
                        std::ostream& out);
core::MotionDatabase loadMotionDatabase(std::istream& in);

/// Horus-style probabilistic radio map:
///   moloc-probabilistic-db v1
///   aps <n>
///   location <id> mu <mu_1..n> sigma <sigma_1..n>
void saveProbabilisticDatabase(
    const radio::ProbabilisticFingerprintDatabase& db, std::ostream& out);
radio::ProbabilisticFingerprintDatabase loadProbabilisticDatabase(
    std::istream& in);

/// File-path conveniences.  Saves are crash-safe: they render the
/// document, write it to `<path>.tmp`, fsync it, rename onto `path`,
/// and fsync the directory (store::detail::atomicWriteFile), so a
/// crash, power loss, or full disk leaves either the previous file or
/// the complete new one — never a torn half-write.  All failures throw
/// util::IoError naming the path (a save's is a store::StoreError).
void saveFingerprintDatabase(const radio::FingerprintDatabase& db,
                             const std::string& path);
radio::FingerprintDatabase loadFingerprintDatabase(
    const std::string& path);
void saveMotionDatabase(const core::MotionDatabase& db,
                        const std::string& path);
core::MotionDatabase loadMotionDatabase(const std::string& path);

}  // namespace moloc::io
