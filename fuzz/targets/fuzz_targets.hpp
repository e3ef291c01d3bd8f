#pragma once

#include <cstddef>
#include <cstdint>

namespace moloc::fuzz {

/// One fuzz iteration per durable-format parsing surface.  Each
/// function treats `data` as an attacker-controlled input file and must
/// either parse it or reject it with the surface's documented, typed
/// error — anything else (a crash, an unexpected exception type, a
/// violated parser invariant) aborts the process, which is exactly the
/// signal libFuzzer and the regression-replay gtest look for.
///
/// The bodies are plain C++ with no libFuzzer dependency so the same
/// code runs three ways:
///   - coverage-guided under clang -fsanitize=fuzzer (fuzz/*_fuzzer.cpp),
///   - file replay under any compiler (fuzz/standalone_main.cpp),
///   - regression-corpus replay as gtests in every CI configuration
///     (tests/test_fuzz_regressions.cpp).
///
/// The return value is the libFuzzer convention: always 0 (input
/// consumed; never added to a dictionary of rejects).

/// store::WalReader over one segment file's bytes: replay, repair,
/// re-scan.  Checks the reader's contract — delivered sequence numbers
/// strictly increase, and a segment that repair() accepted scans clean
/// afterwards.
int runWalReader(const std::uint8_t* data, std::size_t size);

/// store::loadNewestCheckpoint over one checkpoint file's bytes.  The
/// loader documents that invalid files are skipped, never thrown
/// through; accepted files must decode → re-encode → decode stably.
int runCheckpointLoad(const std::uint8_t* data, std::size_t size);

/// util::parseCsv over one document.  Rejections must be
/// std::invalid_argument; accepted documents must round-trip through
/// RFC 4180 re-serialization to identical rows.
int runCsvParse(const std::uint8_t* data, std::size_t size);

/// net::FrameAssembler + the message decoders over one connection's
/// byte stream, fed in small chunks to exercise reassembly.  Framing
/// and payload rejections must be net::ProtocolError; every accepted
/// payload must re-encode to the identical bytes (the encoding is
/// canonical — fixed little-endian fields and raw f64 bits leave no
/// slack).
int runWireDecode(const std::uint8_t* data, std::size_t size);

/// image::VenueImage::fromBuffer over one venue-image file's bytes, in
/// both verify modes.  Any format damage — hostile section offsets,
/// lengths, overlaps, truncations, CRC flips — must be a typed
/// image::ImageError, never an I/O-class error, a crash, or a read
/// outside the buffer (the backing copy is exactly input-sized, so
/// ASan sees any over-read).  Accepted images must be servable (meta
/// consistent with the views, every CSR row walkable, a probe query
/// answered) and, when they pass full CRC verification, must reach a
/// byte-stable fixed point after one rewrite through the real writer.
int runImageLoad(const std::uint8_t* data, std::size_t size);

}  // namespace moloc::fuzz
