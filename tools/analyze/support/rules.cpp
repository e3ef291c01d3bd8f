#include "support/rules.hpp"

#include <algorithm>

namespace moloc::analyze {

namespace {

bool startsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool underAny(const std::string& path,
              std::initializer_list<const char*> prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](const char* p) { return startsWith(path, p); });
}

}  // namespace

const std::vector<RuleInfo>& allRules() {
  static const std::vector<RuleInfo> rules = {
      {"untrusted-alloc",
       "allocation sized by a decoded value with no dominating cap check",
       "checkpoint AP-count / motion-db `locations` allocation bombs "
       "(PR 5): a CRC-valid header sized terabyte buffers before the "
       "first entry was read"},
      {"typed-errors",
       "throw of bare std::runtime_error/invalid_argument/logic_error "
       "outside src/util/",
       "hostile wire values escaped molocd workers as untyped "
       "std::invalid_argument (PR 7) until retyped to ProtocolError"},
      {"raw-eintr",
       "interruptible syscall not wrapped in util::retryEintr "
       "(::close exempt)",
       "molocd's former wake pipe and WAL appends surfaced SIGTERM-drain "
       "signals as spurious I/O failures (PR 7)"},
      {"narrowing-length",
       "implicit 64->32-bit integer conversion in framing/section "
       "arithmetic (use util::checkedU32)",
       "u32 length fields computed from size_t silently truncate past "
       "4 GiB and reframe as a different, CRC-valid message"},
      {"fp-determinism",
       "std::fma/__builtin_fma* or float ==/!= between computed values "
       "in the bitwise-identity TUs",
       "the AVX2 kernels are bitwise-identical to the reference "
       "formulas only because FMA contraction is banned "
       "(docs/performance.md); an fma call or exact-equality branch "
       "silently forks scalar and SIMD results"},
      {"raw-sync",
       "std::mutex/condition_variable/lock types outside src/util/",
       "locking the thread-safety analysis cannot see: both PR 5 races "
       "(motion-db internals, matcher cache) hid behind unannotated "
       "state"},
      {"naked-new",
       "any `new` expression",
       "ownership is unique_ptr/vector everywhere in this codebase; a "
       "naked new is a leak on the first exception path"},
      {"rand",
       "rand()/srand()",
       "shared-state, non-reproducible RNG; simulations are "
       "seed-deterministic through util::Rng streams (the loadgen "
       "verifies served estimates bitwise against a replay)"},
      {"cout",
       "std::cout/std::cerr in the library",
       "the serving stack reports through obs:: metrics and typed "
       "errors; stray stream writes are unsynchronized and invisible "
       "to operators"},
      {"bad-suppression",
       "lint:allow with a missing/unknown rule name or without a "
       "non-empty reason (emitted by the suppression scanner, not a "
       "cursor walk)",
       "an unexplained suppression is unreviewable and outlives the "
       "code it excused"},
  };
  return rules;
}

bool isKnownRule(const std::string& id) {
  const auto& rules = allRules();
  return std::any_of(rules.begin(), rules.end(),
                     [&](const RuleInfo& r) { return r.id == id; });
}

bool inScope(const std::string& id, const std::string& path) {
  if (!startsWith(path, "src/")) return false;
  const bool inUtil = startsWith(path, "src/util/");
  if (id == "typed-errors" || id == "raw-sync") return !inUtil;
  if (id == "raw-eintr")
    return underAny(path, {"src/store/", "src/net/", "src/image/"});
  if (id == "narrowing-length")
    return underAny(path, {"src/net/", "src/image/", "src/store/"});
  if (id == "fp-determinism")
    return underAny(path, {"src/kernel/", "src/index/", "src/radio/"});
  // untrusted-alloc, naked-new, rand, cout, bad-suppression: all of src/.
  return true;
}

std::string repoRelative(const std::string& path, const std::string& root) {
  // Split, resolve "."/"..", and rejoin with '/'.
  const auto split = [](const std::string& p) {
    std::vector<std::string> parts;
    std::string part;
    for (const char c : p) {
      if (c == '/') {
        if (part == "..") {
          if (!parts.empty()) parts.pop_back();
        } else if (!part.empty() && part != ".") {
          parts.push_back(part);
        }
        part.clear();
      } else {
        part += c;
      }
    }
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
    } else if (!part.empty() && part != ".") {
      parts.push_back(part);
    }
    return parts;
  };
  const std::vector<std::string> p = split(path);
  const std::vector<std::string> r = split(root);
  if (p.size() < r.size() ||
      !std::equal(r.begin(), r.end(), p.begin()))
    return "";
  std::string rel;
  for (std::size_t i = r.size(); i < p.size(); ++i) {
    if (!rel.empty()) rel += '/';
    rel += p[i];
  }
  return rel;
}

}  // namespace moloc::analyze
