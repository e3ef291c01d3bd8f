#!/usr/bin/env bash
# Source-hygiene gate over src/, run in CI next to the clang
# thread-safety build (see docs/static_analysis.md).
#
# Since the moloc_check AST analyzer landed (tools/analyze/, built
# under -DMOLOC_ANALYZE=ON), the rules here split into two tiers:
#
# PRIMARY — grep remains the system of record; these are textual
# properties (a macro token, a path-scoped method-call policy) where
# an AST buys nothing:
#
#   tsa-escape    MOLOC_NO_THREAD_SAFETY_ANALYSIS outside src/util/ —
#                 the escape hatch exists for the Mutex/CondVar
#                 wrappers only; anywhere else it silently disables
#                 the proof.
#   online-mutation
#                 addObservation/applyAccepted calls on an
#                 OnlineMotionDatabase from src/core or src/service
#                 outside the database itself and the intake writer
#                 (service/intake.*) — the serving stack's WAL-order
#                 and publish guarantees hold only while the pipeline's
#                 single writer thread is the sole mutator
#                 (docs/serving.md).  Offline paths (eval, store
#                 recovery) are out of scope: they run before serving.
#
# FALLBACK — superseded by moloc_check, which enforces the same
# invariants on the AST (no comment/string false positives, callee
# resolution, wrapper-argument tracking instead of a two-line text
# window).  Kept here so `tools/lint.sh` still provides coverage on
# machines without libclang; when the analyzer runs (CI `analyze`
# job), invoke `tools/lint.sh --path-rules-only` to skip them:
#
#   raw-sync      std::mutex / condition_variable / lock types outside
#                 src/util/ — locking must go through the annotated
#                 util::Mutex wrappers or the thread-safety analysis
#                 cannot see it.
#   naked-new     `new` expressions — ownership is unique_ptr/vector
#                 everywhere in this codebase.
#   rand          rand()/srand() — a shared-state, non-reproducible
#                 RNG; simulations use util::Rng streams.
#   cout          std::cout/std::cerr in the library — the serving
#                 stack reports through obs:: and typed errors; stray
#                 stream writes are unsynchronized and invisible to
#                 operators.
#   raw-eintr     bare ::read/::write/::fsync/... syscalls in
#                 src/store, src/net and src/image without
#                 util::retryEintr — an interruptible POSIX call on
#                 the durability or serving path that does not retry
#                 EINTR turns any signal (SIGTERM drain included) into
#                 a spurious I/O failure.  The readiness waits
#                 (::poll, ::epoll_wait and their p-variants) count:
#                 a serving thread must not mistake a signal for a
#                 failed wait.  ::close is exempt: it must not be
#                 retried (the fd is gone either way, and a retry can
#                 close a recycled descriptor).  Known window
#                 artifacts of the grep version (wrapped call split
#                 across 3+ lines, raw call on the line after a
#                 wrapped one) are committed as regression fixtures
#                 under tests/analyze_fixtures/
#                 — the AST check gets them right.
#
# A genuine exception gets `// lint:allow(<rule>): <why>` on the same
# line; the reason is mandatory (moloc_check reports a reasonless or
# typo'd marker as a `bad-suppression` finding).

set -u
cd "$(dirname "$0")/.."

path_rules_only=0
if [ "${1:-}" = "--path-rules-only" ]; then
  path_rules_only=1
elif [ -n "${1:-}" ]; then
  echo "usage: tools/lint.sh [--path-rules-only]" >&2
  echo "  --path-rules-only  run only the grep-primary rules" >&2
  echo "                     (tsa-escape, online-mutation); use when" >&2
  echo "                     moloc_check covers the AST rules" >&2
  exit 2
fi

fail=0

# check <rule> <pattern> <path-filter...>
# Scans the named files with // line comments stripped (so prose about
# "a new step" or "the mutex" cannot trip a rule) and reports every
# hit that does not carry a lint:allow for this rule.
check() {
  local rule="$1" pattern="$2"
  shift 2
  local f hits
  for f in "$@"; do
    hits=$(sed 's://.*$::' "$f" |
           grep -nE "$pattern" |
           grep -v "lint:allow($rule)" || true)
    if [ -n "$hits" ]; then
      echo "lint[$rule]: $f"
      echo "$hits" | sed 's/^/    /'
      fail=1
    fi
  done
}

mapfile -t all_src < <(find src -name '*.hpp' -o -name '*.cpp' | sort)
mapfile -t non_util_src < <(printf '%s\n' "${all_src[@]}" | grep -v '^src/util/')

# ----- PRIMARY (always run) ------------------------------------------

check tsa-escape 'MOLOC_NO_THREAD_SAFETY_ANALYSIS' "${non_util_src[@]}"

mapfile -t writer_scope < <(printf '%s\n' "${all_src[@]}" |
  grep -E '^src/(core|service)/' |
  grep -vE '^src/(core/online_motion_database|service/intake)\.')

check online-mutation '(\.|->) *(addObservation|applyAccepted) *\(' \
  "${writer_scope[@]}"

# ----- FALLBACK (superseded by moloc_check) --------------------------

if [ "$path_rules_only" -eq 0 ]; then
  check raw-sync \
    'std::(mutex|recursive_mutex|shared_mutex|condition_variable|lock_guard|unique_lock|scoped_lock|shared_lock)' \
    "${non_util_src[@]}"

  check naked-new '\bnew +[A-Za-z_:][A-Za-z0-9_:<>]*[ ({[]|\bnew +[A-Za-z_:][A-Za-z0-9_:<>]*$' \
    "${all_src[@]}"

  check rand '\b(std::)?s?rand *\(' "${all_src[@]}"

  check cout 'std::(cout|cerr)\b' "${all_src[@]}"

  # raw-eintr needs a two-line window — the wrapper idiom regularly
  # splits `util::retryEintr(` and `[&] { return ::call(...` across
  # adjacent lines — so it gets its own scanner instead of check().
  raw_eintr_pattern='(^|[^A-Za-z0-9_:])::(read|write|fsync|fdatasync|recv|recvmsg|send|sendmsg|accept4?|open|openat|truncate|ftruncate|pread|pwrite|connect|p?poll|epoll_p?wait)\('
  mapfile -t eintr_scope < <(printf '%s\n' "${all_src[@]}" |
    grep -E '^src/(store|net|image)/')
  for f in "${eintr_scope[@]}"; do
    hits=$(awk -v pat="$raw_eintr_pattern" '
      {
        raw = $0
        line = $0
        sub(/\/\/.*$/, "", line)
        if (line ~ pat && line !~ /retryEintr/ && prev !~ /retryEintr/ &&
            raw !~ /lint:allow\(raw-eintr\)/)
          printf "%d:%s\n", NR, line
        prev = line
      }' "$f")
    if [ -n "$hits" ]; then
      echo "lint[raw-eintr]: $f"
      echo "$hits" | sed 's/^/    /'
      fail=1
    fi
  done
fi

if [ "$fail" -ne 0 ]; then
  echo
  echo "lint: violations found. Route locking through util::Mutex,"
  echo "ownership through smart pointers, randomness through util::Rng,"
  echo "and operator output through obs:: — or annotate the line with"
  echo "// lint:allow(<rule>): <reason>."
  exit 1
fi
if [ "$path_rules_only" -eq 1 ]; then
  echo "lint: clean (${#all_src[@]} files, path rules only — AST rules covered by moloc_check)"
else
  echo "lint: clean (${#all_src[@]} files)"
fi
