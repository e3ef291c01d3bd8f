// Replays the committed fuzz corpus (seeds and crash regressions)
// through the fuzz harness bodies as plain gtests, so every input that
// ever crashed a parser keeps running in every CI configuration — the
// default GCC build included, where libFuzzer itself is unavailable.
//
// The harnesses abort the process on a parser-contract violation, so
// a regression here fails loudly rather than with a nice assertion
// message; the file name in the test parameter identifies the input.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "targets/fuzz_targets.hpp"

namespace moloc::fuzz {
namespace {

namespace fs = std::filesystem;

using Harness = int (*)(const std::uint8_t*, std::size_t);

std::vector<std::uint8_t> readBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open corpus input " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Replays every file under corpus subdirectory `surface` (both the
/// seed set and regressions/<surface>) through `harness`.  Returns the
/// number of inputs replayed so an emptied or mislocated corpus cannot
/// silently pass.
std::size_t replaySurface(const std::string& surface, Harness harness) {
  const fs::path root(MOLOC_FUZZ_CORPUS_DIR);
  std::size_t replayed = 0;
  for (const auto& dir :
       {root / surface, root / "regressions" / surface}) {
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      SCOPED_TRACE("corpus input: " + entry.path().string());
      const auto bytes = readBytes(entry.path());
      EXPECT_EQ(0, harness(bytes.data(), bytes.size()));
      ++replayed;
    }
  }
  return replayed;
}

TEST(FuzzRegressions, WalCorpusReplaysClean) {
  EXPECT_GE(replaySurface("wal", runWalReader), 6u);
}

TEST(FuzzRegressions, CheckpointCorpusReplaysClean) {
  EXPECT_GE(replaySurface("checkpoint", runCheckpointLoad), 3u);
}

TEST(FuzzRegressions, CsvCorpusReplaysClean) {
  EXPECT_GE(replaySurface("csv", runCsvParse), 8u);
}

TEST(FuzzRegressions, WireCorpusReplaysClean) {
  EXPECT_GE(replaySurface("wire", runWireDecode), 10u);
}

TEST(FuzzRegressions, ImageCorpusReplaysClean) {
  EXPECT_GE(replaySurface("image", runImageLoad), 8u);
}

// The harness must also accept the empty input (libFuzzer always
// starts there).
TEST(FuzzRegressions, EmptyInputIsCleanEverywhere) {
  const std::uint8_t dummy = 0;
  EXPECT_EQ(0, runWalReader(&dummy, 0));
  EXPECT_EQ(0, runCheckpointLoad(&dummy, 0));
  EXPECT_EQ(0, runCsvParse(&dummy, 0));
  EXPECT_EQ(0, runWireDecode(&dummy, 0));
  EXPECT_EQ(0, runImageLoad(&dummy, 0));
}

}  // namespace
}  // namespace moloc::fuzz
