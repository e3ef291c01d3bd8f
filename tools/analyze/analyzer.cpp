// moloc_check AST walker: every check lives here, on libclang's
// *stable C API* (clang-c/Index.h) so one binary builds against any
// distro libclang >= 14 without chasing the C++ API across releases.
//
// LLVM-14 compatibility notes (the oldest line we support):
//  - clang_getCursorBinaryOperatorKind is LLVM 17+; binary operators
//    are classified by tokenizing the gap between the two operand
//    extents instead (binaryOperatorToken below).
//  - libclang collapses CXXMemberCallExpr / CXXOperatorCallExpr /
//    CXXConstructExpr into CXCursor_CallExpr; the callee name is the
//    cursor spelling and the implicit object argument is excluded
//    from clang_Cursor_getArgument.
#include "analyzer.hpp"

#include <clang-c/CXCompilationDatabase.h>
#include <clang-c/Index.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "support/rules.hpp"
#include "support/suppressions.hpp"

namespace moloc::analyze {

namespace {

std::string toString(CXString s) {
  const char* c = clang_getCString(s);
  std::string out = c != nullptr ? c : "";
  clang_disposeString(s);
  return out;
}

std::string cursorSpelling(CXCursor c) {
  return toString(clang_getCursorSpelling(c));
}

// ---------------------------------------------------------------------
// Generic traversal helpers
// ---------------------------------------------------------------------

std::vector<CXCursor> childrenOf(CXCursor cursor) {
  std::vector<CXCursor> out;
  clang_visitChildren(
      cursor,
      [](CXCursor c, CXCursor, CXClientData data) {
        static_cast<std::vector<CXCursor>*>(data)->push_back(c);
        return CXChildVisit_Continue;
      },
      &out);
  return out;
}

/// Depth-first walk of a whole subtree; `fn` returns false to prune
/// the subtree below the current node.
template <typename Fn>
void forEachDescendant(CXCursor root, Fn&& fn) {
  for (const CXCursor child : childrenOf(root)) {
    if (fn(child)) forEachDescendant(child, fn);
  }
}

/// Strips parens and libclang's opaque wrapper nodes (implicit casts
/// surface as CXCursor_UnexposedExpr with a single child).
CXCursor unwrapExpr(CXCursor cursor) {
  for (;;) {
    const CXCursorKind kind = clang_getCursorKind(cursor);
    if (kind != CXCursor_UnexposedExpr && kind != CXCursor_ParenExpr)
      return cursor;
    const std::vector<CXCursor> kids = childrenOf(cursor);
    if (kids.size() != 1) return cursor;
    cursor = kids[0];
  }
}

bool isIntegerKind(CXTypeKind kind) {
  switch (kind) {
    case CXType_Char_U:
    case CXType_UChar:
    case CXType_UShort:
    case CXType_UInt:
    case CXType_ULong:
    case CXType_ULongLong:
    case CXType_Char_S:
    case CXType_SChar:
    case CXType_Short:
    case CXType_Int:
    case CXType_Long:
    case CXType_LongLong:
      return true;
    default:
      return false;  // bool, enums, and char16/32 stay out on purpose
  }
}

/// Canonical type of an expression/declaration cursor, with
/// references stripped: a DeclRefExpr to a `std::uint32_t&` variable
/// reports the reference type, but for conversion checks the
/// referred-to integer is what matters.
CXType canonicalType(CXCursor cursor) {
  CXType type = clang_getCanonicalType(clang_getCursorType(cursor));
  if (type.kind == CXType_LValueReference ||
      type.kind == CXType_RValueReference)
    type = clang_getCanonicalType(clang_getPointeeType(type));
  return type;
}

long long intSizeOf(CXType type) { return clang_Type_getSizeOf(type); }

/// True when libclang can fold the expression to an integer at compile
/// time (literals, sizeof, k-constants): a constant length cannot be
/// attacker-controlled and cannot truncate at runtime.
bool isConstantExpr(CXCursor expr) {
  CXEvalResult result = clang_Cursor_Evaluate(expr);
  if (result == nullptr) return false;
  const CXEvalResultKind kind = clang_EvalResult_getKind(result);
  clang_EvalResult_dispose(result);
  return kind == CXEval_Int;
}

bool startsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// `verb` followed by an uppercase letter, digit, underscore, or end
/// of string: readU32 / decodeSnapshot / load yes, readings no.
bool hasVerbPrefix(const std::string& name, const char* verb) {
  if (!startsWith(name, verb)) return false;
  const std::size_t at = std::strlen(verb);
  if (at == name.size()) return true;
  const char next = name[at];
  return (next >= 'A' && next <= 'Z') || (next >= '0' && next <= '9') ||
         next == '_';
}

// ---------------------------------------------------------------------
// Per-TU context: file identity, suppressions, reporting
// ---------------------------------------------------------------------

struct FileInfo {
  std::string absPath;
  std::string repoRel;  // "" when outside the repo
  SuppressionSet suppressions;
  bool suppressionsLoaded = false;
  bool malformedReported = false;
};

struct TuContext {
  const AnalyzeOptions* options = nullptr;
  CXTranslationUnit tu = nullptr;
  std::vector<Finding>* findings = nullptr;
  // Keyed by the CXFile handle, which is stable within one TU.
  std::map<const void*, FileInfo> files;
};

FileInfo& fileInfo(TuContext& ctx, CXFile file) {
  const auto it = ctx.files.find(file);
  if (it != ctx.files.end()) return it->second;
  FileInfo info;
  info.absPath = toString(clang_File_tryGetRealPathName(file));
  if (info.absPath.empty()) info.absPath = toString(clang_getFileName(file));
  info.repoRel = repoRelative(info.absPath, ctx.options->repoRoot);
  return ctx.files.emplace(file, std::move(info)).first->second;
}

void loadSuppressions(TuContext& ctx, CXFile file, FileInfo& info) {
  if (info.suppressionsLoaded) return;
  info.suppressionsLoaded = true;
  std::size_t size = 0;
  const char* contents = clang_getFileContents(ctx.tu, file, &size);
  if (contents != nullptr) {
    info.suppressions = scanSuppressions(std::string_view(contents, size));
    return;
  }
  std::ifstream in(info.absPath, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  info.suppressions = scanSuppressions(text);
}

/// A malformed `lint:allow` is itself a finding; reported once per
/// file, independent of whether any rule fired there.
void reportMalformed(TuContext& ctx, CXFile file) {
  FileInfo& info = fileInfo(ctx, file);
  if (info.repoRel.empty() || !startsWith(info.repoRel, "src/")) return;
  loadSuppressions(ctx, file, info);
  if (info.malformedReported) return;
  info.malformedReported = true;
  for (const MalformedSuppression& m : info.suppressions.malformed()) {
    ctx.findings->push_back(
        {info.repoRel, m.line, 1, "bad-suppression", m.detail});
  }
}

void report(TuContext& ctx, CXCursor cursor, const char* rule,
            std::string message) {
  const CXSourceLocation loc = clang_getCursorLocation(cursor);
  CXFile file = nullptr;
  unsigned line = 0;
  unsigned column = 0;
  clang_getExpansionLocation(loc, &file, &line, &column, nullptr);
  if (file == nullptr) return;
  FileInfo& info = fileInfo(ctx, file);
  if (info.repoRel.empty() || !inScope(rule, info.repoRel)) return;
  loadSuppressions(ctx, file, info);
  if (info.suppressions.allows(line, rule)) return;
  ctx.findings->push_back(
      {info.repoRel, line, column, rule, std::move(message)});
}

/// True when `rule` could apply at this cursor's file — lets checks
/// skip expensive analysis outside their directory scope.
bool cursorInScope(TuContext& ctx, CXCursor cursor, const char* rule) {
  const CXSourceLocation loc = clang_getCursorLocation(cursor);
  CXFile file = nullptr;
  clang_getExpansionLocation(loc, &file, nullptr, nullptr, nullptr);
  if (file == nullptr) return false;
  const FileInfo& info = fileInfo(ctx, file);
  return !info.repoRel.empty() && inScope(rule, info.repoRel);
}

unsigned lineOf(CXCursor cursor) {
  unsigned line = 0;
  clang_getExpansionLocation(clang_getCursorLocation(cursor), nullptr, &line,
                             nullptr, nullptr);
  return line;
}

// ---------------------------------------------------------------------
// Walk state
// ---------------------------------------------------------------------

struct WalkState {
  /// > 0 while inside the argument subtree of a util::retryEintr call;
  /// raw interruptible syscalls are sanctioned there and only there.
  unsigned retryWrapDepth = 0;
  /// Nearest enclosing *named* function/method — the guard-search and
  /// taint-context scope for untrusted-alloc.  Lambdas do not reset it
  /// (a guard above the lambda still dominates an alloc inside it).
  CXCursor namedFunction = clang_getNullCursor();
  std::string namedFunctionName;
  /// Nearest function-like scope of any kind, for return-type checks.
  CXCursor returnScope = clang_getNullCursor();
};

// ---------------------------------------------------------------------
// typed-errors
// ---------------------------------------------------------------------

void checkThrow(TuContext& ctx, CXCursor throwExpr) {
  const std::vector<CXCursor> kids = childrenOf(throwExpr);
  if (kids.empty()) return;  // rethrow: `throw;`
  const std::string type =
      toString(clang_getTypeSpelling(canonicalType(kids[0])));
  static const char* kBare[] = {"std::runtime_error", "std::invalid_argument",
                                "std::logic_error"};
  for (const char* bare : kBare) {
    if (type == bare) {
      report(ctx, throwExpr, "typed-errors",
             "throw the util:: error type for this failure domain instead "
             "of bare " +
                 type + " (src/util/error.hpp)");
      return;
    }
  }
}

// ---------------------------------------------------------------------
// raw-sync
// ---------------------------------------------------------------------

void checkRawSync(TuContext& ctx, CXCursor decl) {
  const std::string type =
      toString(clang_getTypeSpelling(canonicalType(decl)));
  static const char* kBanned[] = {
      "std::mutex",          "std::timed_mutex",
      "std::recursive_mutex", "std::shared_mutex",
      "std::condition_variable", "std::condition_variable_any",
      "std::lock_guard",     "std::unique_lock",
      "std::shared_lock",    "std::scoped_lock"};
  for (const char* banned : kBanned) {
    if (!startsWith(type, banned)) continue;
    const std::size_t at = std::strlen(banned);
    const char next = at < type.size() ? type[at] : '\0';
    if (next == '\0' || next == '<' || next == ' ' || next == '&' ||
        next == '*') {
      report(ctx, decl, "raw-sync",
             "use the TSA-annotated util::Mutex / util::ConditionVariable "
             "wrappers instead of " +
                 type);
      return;
    }
  }
}

// ---------------------------------------------------------------------
// narrowing-length
// ---------------------------------------------------------------------

bool isNarrowing(CXType target, CXCursor valueExpr) {
  const CXType value = canonicalType(valueExpr);
  if (!isIntegerKind(target.kind) || !isIntegerKind(value.kind)) return false;
  if (intSizeOf(value) != 8 || intSizeOf(target) > 4) return false;
  return !isConstantExpr(valueExpr);
}

std::string narrowingMessage(CXType target, const std::string& context) {
  return "implicit 64-bit -> " +
         std::to_string(intSizeOf(target) * 8) + "-bit conversion " +
         context + "; route lengths through util::checkedU32/checkedI32 " +
         "(src/util/checked_cast.hpp) or cast explicitly after a cap check";
}

void checkNarrowingCallArgs(TuContext& ctx, CXCursor call, CXCursor callee,
                            const std::string& calleeName) {
  if (startsWith(calleeName, "checked")) return;  // the sanctioned helpers
  const CXType fnType = clang_getCursorType(callee);
  const int nParams = clang_getNumArgTypes(fnType);
  const int nArgs = clang_Cursor_getNumArguments(call);
  if (nParams <= 0 || nArgs <= 0) return;
  const int n = std::min(nParams, nArgs);
  for (int i = 0; i < n; ++i) {
    const CXType param =
        clang_getCanonicalType(clang_getArgType(fnType, i));
    const CXCursor arg = clang_Cursor_getArgument(call, i);
    if (isNarrowing(param, arg)) {
      report(ctx, arg, "narrowing-length",
             narrowingMessage(param, "in argument " + std::to_string(i + 1) +
                                         " of " + calleeName + "()"));
    }
  }
}

void checkNarrowingVarInit(TuContext& ctx, CXCursor varDecl) {
  const CXType target = canonicalType(varDecl);
  if (!isIntegerKind(target.kind) || intSizeOf(target) > 4) return;
  const std::vector<CXCursor> kids = childrenOf(varDecl);
  for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
    if (clang_isExpression(clang_getCursorKind(*it)) == 0) continue;
    if (isNarrowing(target, *it)) {
      report(ctx, *it, "narrowing-length",
             narrowingMessage(target, "initializing '" +
                                          cursorSpelling(varDecl) + "'"));
    }
    return;  // only the (last) initializer expression
  }
}

void checkNarrowingReturn(TuContext& ctx, CXCursor returnStmt,
                          const WalkState& state) {
  if (clang_Cursor_isNull(state.returnScope)) return;
  const CXType target = clang_getCanonicalType(
      clang_getCursorResultType(state.returnScope));
  if (!isIntegerKind(target.kind) || intSizeOf(target) > 4) return;
  const std::vector<CXCursor> kids = childrenOf(returnStmt);
  if (kids.empty()) return;
  if (isNarrowing(target, kids[0])) {
    report(ctx, kids[0], "narrowing-length",
           narrowingMessage(target, "in return"));
  }
}

// ---------------------------------------------------------------------
// fp-determinism
// ---------------------------------------------------------------------

bool isFloatKind(CXTypeKind kind) {
  return kind == CXType_Float || kind == CXType_Double ||
         kind == CXType_LongDouble;
}

unsigned offsetOf(CXSourceLocation loc) {
  unsigned offset = 0;
  clang_getExpansionLocation(loc, nullptr, nullptr, nullptr, &offset);
  return offset;
}

/// The operator token of a binary expression: the first punctuation
/// token strictly between the two operand extents.  (The C API only
/// grew clang_getCursorBinaryOperatorKind in LLVM 17.)
std::string binaryOperatorToken(CXTranslationUnit tu, CXCursor op,
                                CXCursor lhs, CXCursor rhs) {
  const unsigned lhsEnd = offsetOf(clang_getRangeEnd(clang_getCursorExtent(lhs)));
  const unsigned rhsStart =
      offsetOf(clang_getRangeStart(clang_getCursorExtent(rhs)));
  if (lhsEnd >= rhsStart) return "";  // macro-mangled extents: punt
  CXToken* tokens = nullptr;
  unsigned count = 0;
  clang_tokenize(tu, clang_getCursorExtent(op), &tokens, &count);
  std::string result;
  for (unsigned i = 0; i < count; ++i) {
    const unsigned at = offsetOf(clang_getTokenLocation(tu, tokens[i]));
    if (at < lhsEnd || at >= rhsStart) continue;
    if (clang_getTokenKind(tokens[i]) == CXToken_Punctuation) {
      result = toString(clang_getTokenSpelling(tu, tokens[i]));
      break;
    }
  }
  clang_disposeTokens(tu, tokens, count);
  return result;
}

bool isNumericLiteral(CXCursor expr) {
  const CXCursorKind kind = clang_getCursorKind(unwrapExpr(expr));
  return kind == CXCursor_FloatingLiteral || kind == CXCursor_IntegerLiteral;
}

void checkFloatCompare(TuContext& ctx, CXCursor binOp) {
  if (!cursorInScope(ctx, binOp, "fp-determinism")) return;
  const std::vector<CXCursor> kids = childrenOf(binOp);
  if (kids.size() != 2) return;
  if (!isFloatKind(canonicalType(kids[0]).kind) &&
      !isFloatKind(canonicalType(kids[1]).kind))
    return;
  // A comparison against a literal is a sentinel test, not a
  // computed-value identity check.
  if (isNumericLiteral(kids[0]) || isNumericLiteral(kids[1])) return;
  const std::string op = binaryOperatorToken(ctx.tu, binOp, kids[0], kids[1]);
  if (op != "==" && op != "!=") return;
  report(ctx, binOp, "fp-determinism",
         "floating-point '" + op +
             "' between computed values: the scalar and AVX2 kernels are "
             "bitwise-identical only while results never branch on exact "
             "equality (docs/performance.md)");
}

// ---------------------------------------------------------------------
// untrusted-alloc
// ---------------------------------------------------------------------

bool isTaintSourceName(const std::string& name) {
  return hasVerbPrefix(name, "get") || hasVerbPrefix(name, "read") ||
         hasVerbPrefix(name, "decode") || hasVerbPrefix(name, "parse") ||
         hasVerbPrefix(name, "load") || name == "get" || name == "read" ||
         name == "decode" || name == "parse" || name == "load";
}

bool isGuardName(const std::string& name) {
  return startsWith(name, "check") || startsWith(name, "expect") ||
         startsWith(name, "validate") || startsWith(name, "clamp") ||
         name == "min" || name == "mulFits";
}

bool isParseContextName(const std::string& name) {
  return isTaintSourceName(name);  // load/read/decode/parse + CamelCase
}

bool containsCallMatching(CXCursor root, bool (*pred)(const std::string&)) {
  bool found = false;
  forEachDescendant(root, [&](CXCursor c) {
    if (found) return false;
    if (clang_getCursorKind(c) == CXCursor_CallExpr &&
        pred(cursorSpelling(c)))
      found = true;
    return !found;
  });
  return found;
}

bool containsAnyCall(CXCursor root) {
  bool found = false;
  forEachDescendant(root, [&](CXCursor c) {
    if (found) return false;
    if (clang_getCursorKind(c) == CXCursor_CallExpr) found = true;
    return !found;
  });
  return found;
}

/// First variable (local, param, member base) the size expression
/// reads — the "primary" variable the cap check must mention.
CXCursor primaryVariable(CXCursor sizeExpr) {
  CXCursor result = clang_getNullCursor();
  const auto consider = [&](CXCursor c) {
    if (!clang_Cursor_isNull(result)) return false;
    if (clang_getCursorKind(c) == CXCursor_DeclRefExpr) {
      const CXCursor ref = clang_getCursorReferenced(c);
      const CXCursorKind k = clang_getCursorKind(ref);
      if (k == CXCursor_VarDecl || k == CXCursor_ParmDecl)
        result = clang_getCanonicalCursor(ref);
    }
    return clang_Cursor_isNull(result) != 0;
  };
  consider(sizeExpr);
  if (clang_Cursor_isNull(result)) forEachDescendant(sizeExpr, consider);
  return result;
}

bool referencesDecl(CXCursor root, CXCursor decl) {
  bool found = false;
  const auto consider = [&](CXCursor c) {
    if (found) return false;
    if (clang_getCursorKind(c) == CXCursor_DeclRefExpr &&
        clang_equalCursors(
            clang_getCanonicalCursor(clang_getCursorReferenced(c)), decl))
      found = true;
    return !found;
  };
  consider(root);
  if (!found) forEachDescendant(root, consider);
  return found;
}

/// The definition's initializer expression, or null.
CXCursor initializerOf(CXCursor varDecl) {
  const CXCursor def = clang_getCursorDefinition(varDecl);
  const CXCursor home = clang_Cursor_isNull(def) ? varDecl : def;
  const std::vector<CXCursor> kids = childrenOf(home);
  for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
    if (clang_isExpression(clang_getCursorKind(*it)) != 0) return *it;
  }
  return clang_getNullCursor();
}

/// Cap-dominance: does anything *before* the allocation line, inside
/// the enclosing named function, bound the primary variable?
/// Recognized dominators (each grounded in a real guard in this tree):
///  1. the variable's own initializer calls a check*/expect*/...
///     helper (checkpoint.cpp: `pairCount = checkedCount(in, ...)`)
///  2. an earlier IfStmt whose condition mentions the variable
///     (trace_io.cpp: `if (count > kMaxTraceCount) throw ...`)
///  3. an earlier guard-named call taking the variable as an argument
///     (wire.cpp: `checkCount(cursor, apCount, 8)`)
bool capDominates(CXCursor function, CXCursor var, unsigned allocLine) {
  if (!clang_Cursor_isNull(var)) {
    const CXCursor init = initializerOf(var);
    if (!clang_Cursor_isNull(init) &&
        containsCallMatching(init, isGuardName))
      return true;
  }
  bool dominated = false;
  forEachDescendant(function, [&](CXCursor c) {
    if (dominated) return false;
    const CXCursorKind kind = clang_getCursorKind(c);
    if (kind == CXCursor_IfStmt && !clang_Cursor_isNull(var)) {
      const std::vector<CXCursor> kids = childrenOf(c);
      if (!kids.empty() && lineOf(c) <= allocLine &&
          referencesDecl(kids[0], var))
        dominated = true;
    } else if (kind == CXCursor_CallExpr && lineOf(c) <= allocLine &&
               isGuardName(cursorSpelling(c))) {
      if (clang_Cursor_isNull(var) || referencesDecl(c, var))
        dominated = true;
    }
    return !dominated;
  });
  return dominated;
}

void checkUntrustedAlloc(TuContext& ctx, const WalkState& state,
                         CXCursor allocCursor, CXCursor sizeExpr,
                         const std::string& what) {
  if (!cursorInScope(ctx, allocCursor, "untrusted-alloc")) return;
  if (clang_Cursor_isNull(state.namedFunction)) return;
  if (isConstantExpr(sizeExpr)) return;
  const CXCursor var = primaryVariable(sizeExpr);

  bool suspect = containsCallMatching(sizeExpr, isTaintSourceName);
  if (!suspect && !clang_Cursor_isNull(var)) {
    const CXCursor init = initializerOf(var);
    if (!clang_Cursor_isNull(init))
      suspect = containsCallMatching(init, isTaintSourceName);
  }
  if (!suspect && isParseContextName(state.namedFunctionName) &&
      !clang_Cursor_isNull(var) && !containsAnyCall(sizeExpr))
    suspect = true;
  if (!suspect) return;

  if (capDominates(state.namedFunction, var, lineOf(allocCursor))) return;
  const std::string varName =
      clang_Cursor_isNull(var) ? std::string("the decoded size")
                               : "'" + cursorSpelling(var) + "'";
  report(ctx, allocCursor, "untrusted-alloc",
         what + " sized by " + varName +
             ", which comes from decoded input with no dominating cap "
             "check; compare against a k*Max limit (or a remaining-bytes "
             "bound) before allocating");
}

// ---------------------------------------------------------------------
// Call dispatch
// ---------------------------------------------------------------------

const char* interruptibleSyscall(const std::string& name) {
  static const char* kCalls[] = {
      "read",  "write",    "fsync",   "fdatasync", "recv",   "recvmsg",
      "send",  "sendmsg",  "accept",  "accept4",   "open",   "openat",
      "truncate", "ftruncate", "pread", "pwrite",  "connect",
      "poll",  "ppoll",    "epoll_wait", "epoll_pwait"};
  for (const char* c : kCalls) {
    if (name == c) return c;
  }
  // ::close is deliberately exempt: the fd is released even on EINTR,
  // and a retry can close a descriptor another thread just opened.
  return nullptr;
}

bool isFmaName(const std::string& name) {
  return name == "fma" || name == "fmaf" || name == "fmal" ||
         name == "__builtin_fma" || name == "__builtin_fmaf" ||
         name == "__builtin_fmal";
}

/// Handles one CallExpr.  Returns true when the walker should recurse
/// into the call's children with retryWrapDepth incremented.
bool handleCall(TuContext& ctx, const WalkState& state, CXCursor call) {
  const std::string name = cursorSpelling(call);
  if (name == "retryEintr") return true;

  const CXCursor callee = clang_getCursorReferenced(call);
  const bool calleeValid = !clang_Cursor_isNull(callee) &&
                           clang_isInvalid(clang_getCursorKind(callee)) == 0;
  const bool calleeInSystemHeader =
      calleeValid &&
      clang_Location_isInSystemHeader(clang_getCursorLocation(callee)) != 0;

  if ((name == "rand" || name == "srand") &&
      (!calleeValid || calleeInSystemHeader)) {
    report(ctx, call, "rand",
           name + "() is shared-state and non-reproducible; draw from a "
                  "util::Rng stream (simulations are seed-deterministic)");
  }

  if (isFmaName(name)) {
    report(ctx, call, "fp-determinism",
           name + "() contracts mul+add and forks the scalar and SIMD "
                  "kernels' bitwise results (docs/performance.md bans FMA "
                  "in these TUs)");
  }

  if (const char* syscall = interruptibleSyscall(name);
      syscall != nullptr && state.retryWrapDepth == 0 && calleeValid &&
      clang_getCursorKind(callee) == CXCursor_FunctionDecl &&
      calleeInSystemHeader) {
    report(ctx, call, "raw-eintr",
           std::string("::") + syscall +
               " can fail with EINTR on any signal; wrap the call in "
               "util::retryEintr (src/util/retry_eintr.hpp)");
  }

  if ((name == "resize" || name == "reserve") &&
      clang_Cursor_getNumArguments(call) >= 1) {
    checkUntrustedAlloc(ctx, state, call, clang_Cursor_getArgument(call, 0),
                        "container " + name + "()");
  }
  if (name == "vector" && clang_Cursor_getNumArguments(call) >= 1) {
    const CXCursor arg0 = clang_Cursor_getArgument(call, 0);
    if (isIntegerKind(canonicalType(arg0).kind))
      checkUntrustedAlloc(ctx, state, call, arg0, "vector size-constructor");
  }

  if (calleeValid && !name.empty() &&
      cursorInScope(ctx, call, "narrowing-length")) {
    const CXCursorKind ck = clang_getCursorKind(callee);
    if (ck == CXCursor_FunctionDecl || ck == CXCursor_CXXMethod ||
        ck == CXCursor_Constructor || ck == CXCursor_FunctionTemplate)
      checkNarrowingCallArgs(ctx, call, callee, name);
  }
  return false;
}

// ---------------------------------------------------------------------
// The walker
// ---------------------------------------------------------------------

struct Frame {
  TuContext* ctx;
  WalkState state;
};

void walkChildren(TuContext& ctx, CXCursor cursor, const WalkState& state);

void handleCursor(TuContext& ctx, CXCursor cursor, WalkState state) {
  // Nothing of ours lives below a system-header cursor; pruning here
  // keeps the walk linear in the size of src/, not of <vector>.
  if (clang_Location_isInSystemHeader(clang_getCursorLocation(cursor)) != 0)
    return;

  const CXCursorKind kind = clang_getCursorKind(cursor);
  switch (kind) {
    case CXCursor_FunctionDecl:
    case CXCursor_CXXMethod:
    case CXCursor_Constructor:
    case CXCursor_Destructor:
    case CXCursor_ConversionFunction:
    case CXCursor_FunctionTemplate:
      state.namedFunction = cursor;
      state.namedFunctionName = cursorSpelling(cursor);
      state.returnScope = cursor;
      break;
    case CXCursor_LambdaExpr:
      // Keep namedFunction: guards above the lambda still dominate.
      state.returnScope = cursor;
      break;
    case CXCursor_CallExpr:
      if (handleCall(ctx, state, cursor)) {
        ++state.retryWrapDepth;
      }
      break;
    case CXCursor_CXXThrowExpr:
      checkThrow(ctx, cursor);
      break;
    case CXCursor_CXXNewExpr: {
      report(ctx, cursor, "naked-new",
             "naked new: ownership in this tree is unique_ptr/vector; a "
             "bare allocation leaks on the first exception path");
      for (const CXCursor child : childrenOf(cursor)) {
        if (clang_isExpression(clang_getCursorKind(child)) != 0 &&
            isIntegerKind(canonicalType(child).kind)) {
          checkUntrustedAlloc(ctx, state, cursor, child, "new[] array");
          break;
        }
      }
      break;
    }
    case CXCursor_VarDecl:
    case CXCursor_FieldDecl:
    case CXCursor_ParmDecl:
      checkRawSync(ctx, cursor);
      if (kind == CXCursor_VarDecl &&
          cursorInScope(ctx, cursor, "narrowing-length"))
        checkNarrowingVarInit(ctx, cursor);
      break;
    case CXCursor_DeclRefExpr: {
      const std::string name = cursorSpelling(cursor);
      if (name == "cout" || name == "cerr") {
        const CXCursor ref = clang_getCursorReferenced(cursor);
        const CXCursor parent = clang_getCursorSemanticParent(ref);
        if (clang_getCursorKind(parent) == CXCursor_Namespace &&
            cursorSpelling(parent) == "std") {
          report(ctx, cursor, "cout",
                 "std::" + name +
                     " in library code: report through obs:: metrics or a "
                     "typed error; streams are for tools/ binaries");
        }
      }
      break;
    }
    case CXCursor_ReturnStmt:
      if (cursorInScope(ctx, cursor, "narrowing-length"))
        checkNarrowingReturn(ctx, cursor, state);
      break;
    case CXCursor_BinaryOperator:
      checkFloatCompare(ctx, cursor);
      break;
    case CXCursor_CompoundAssignOperator:
      if (cursorInScope(ctx, cursor, "narrowing-length")) {
        const std::vector<CXCursor> kids = childrenOf(cursor);
        if (kids.size() == 2 && isNarrowing(canonicalType(kids[0]), kids[1]))
          report(ctx, kids[1], "narrowing-length",
                 narrowingMessage(canonicalType(kids[0]),
                                  "in compound assignment"));
      }
      break;
    default:
      break;
  }

  if (kind == CXCursor_BinaryOperator &&
      cursorInScope(ctx, cursor, "narrowing-length")) {
    const std::vector<CXCursor> kids = childrenOf(cursor);
    if (kids.size() == 2 && isNarrowing(canonicalType(kids[0]), kids[1]) &&
        binaryOperatorToken(ctx.tu, cursor, kids[0], kids[1]) == "=") {
      report(ctx, kids[1], "narrowing-length",
             narrowingMessage(canonicalType(kids[0]), "in assignment"));
    }
  }

  walkChildren(ctx, cursor, state);
}

void walkChildren(TuContext& ctx, CXCursor cursor, const WalkState& state) {
  Frame frame{&ctx, state};
  clang_visitChildren(
      cursor,
      [](CXCursor c, CXCursor, CXClientData data) {
        Frame* f = static_cast<Frame*>(data);
        handleCursor(*f->ctx, c, f->state);
        return CXChildVisit_Continue;
      },
      &frame);
}

// ---------------------------------------------------------------------
// TU orchestration
// ---------------------------------------------------------------------

std::string joinPath(const std::string& dir, const std::string& file) {
  if (!file.empty() && file[0] == '/') return file;
  return dir + "/" + file;
}

void analyzeTu(TuContext& ctx, CXIndex index, CXCompileCommand command,
               AnalyzeResult& result) {
  const std::string dir = toString(clang_CompileCommand_getDirectory(command));
  const std::string file = toString(clang_CompileCommand_getFilename(command));
  const std::string absFile = joinPath(dir, file);

  std::vector<std::string> args;
  const unsigned n = clang_CompileCommand_getNumArgs(command);
  for (unsigned i = 1; i < n; ++i) {  // [0] is the compiler itself
    std::string arg = toString(clang_CompileCommand_getArg(command, i));
    if (arg == "-c") continue;
    if (arg == "-o") {
      ++i;
      continue;
    }
    // libclang resolves relative paths against the *process* cwd, not
    // the command's directory — absolutize the source arg.
    if (arg == file) arg = absFile;
    args.push_back(std::move(arg));
  }
  for (const std::string& extra : ctx.options->extraArgs)
    args.push_back(extra);
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const std::string& a : args) argv.push_back(a.c_str());

  CXTranslationUnit tu = nullptr;
  const CXErrorCode rc = clang_parseTranslationUnit2(
      index, nullptr, argv.data(), static_cast<int>(argv.size()), nullptr, 0,
      CXTranslationUnit_KeepGoing, &tu);
  if (rc != CXError_Success || tu == nullptr) {
    result.errors.push_back("failed to parse " + absFile + " (CXErrorCode " +
                            std::to_string(static_cast<int>(rc)) + ")");
    return;
  }

  const unsigned nDiag = clang_getNumDiagnostics(tu);
  for (unsigned i = 0; i < nDiag; ++i) {
    CXDiagnostic diag = clang_getDiagnostic(tu, i);
    const CXDiagnosticSeverity sev = clang_getDiagnosticSeverity(diag);
    if (sev >= CXDiagnostic_Error) {
      result.errors.push_back(
          absFile + ": " +
          toString(clang_formatDiagnostic(
              diag, clang_defaultDiagnosticDisplayOptions())));
    }
    clang_disposeDiagnostic(diag);
  }

  ctx.tu = tu;
  ctx.files.clear();
  handleCursor(ctx, clang_getTranslationUnitCursor(tu), WalkState{});

  // bad-suppression must fire even in files where no rule ran: visit
  // the main file and every include.
  if (CXFile main = clang_getFile(tu, absFile.c_str()); main != nullptr)
    reportMalformed(ctx, main);
  clang_getInclusions(
      tu,
      [](CXFile included, CXSourceLocation*, unsigned, CXClientData data) {
        reportMalformed(*static_cast<TuContext*>(data), included);
      },
      &ctx);

  ++result.translationUnits;
  clang_disposeTranslationUnit(tu);
  ctx.tu = nullptr;
}

}  // namespace

AnalyzeResult runAnalysis(const AnalyzeOptions& options) {
  AnalyzeResult result;

  CXCompilationDatabase_Error dbError = CXCompilationDatabase_NoError;
  CXCompilationDatabase db = clang_CompilationDatabase_fromDirectory(
      options.compileDbDir.c_str(), &dbError);
  if (dbError != CXCompilationDatabase_NoError || db == nullptr) {
    result.errors.push_back("cannot load compile_commands.json from " +
                            options.compileDbDir);
    return result;
  }

  CXIndex index = clang_createIndex(/*excludeDeclarationsFromPCH=*/0,
                                    /*displayDiagnostics=*/0);
  CXCompileCommands commands =
      clang_CompilationDatabase_getAllCompileCommands(db);
  const unsigned count = clang_CompileCommands_getSize(commands);

  TuContext ctx;
  ctx.options = &options;
  ctx.findings = &result.findings;

  std::vector<std::string> matched;
  for (unsigned i = 0; i < count; ++i) {
    CXCompileCommand command = clang_CompileCommands_getCommand(commands, i);
    const std::string dir =
        toString(clang_CompileCommand_getDirectory(command));
    const std::string file =
        toString(clang_CompileCommand_getFilename(command));
    const std::string rel =
        repoRelative(joinPath(dir, file), options.repoRoot);
    if (rel.empty() || rel.rfind("src/", 0) != 0) continue;
    if (!options.onlyFiles.empty() &&
        std::find(options.onlyFiles.begin(), options.onlyFiles.end(), rel) ==
            options.onlyFiles.end())
      continue;
    matched.push_back(rel);
    analyzeTu(ctx, index, command, result);
  }
  for (const std::string& want : options.onlyFiles) {
    if (std::find(matched.begin(), matched.end(), want) == matched.end())
      result.errors.push_back("no compile command for " + want);
  }
  if (result.translationUnits == 0 && options.onlyFiles.empty())
    result.errors.push_back(
        "compilation database matched no src/ translation units");

  clang_CompileCommands_dispose(commands);
  clang_disposeIndex(index);
  clang_CompilationDatabase_dispose(db);

  sortAndDedupe(result.findings);
  return result;
}

}  // namespace moloc::analyze
