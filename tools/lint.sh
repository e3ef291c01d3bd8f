#!/usr/bin/env bash
# Source-hygiene gate over src/, run in CI next to the clang
# thread-safety build (see docs/static_analysis.md).
#
# The rules here are textual properties (a macro token, a
# path-scoped method-call policy) where an AST buys nothing.  The
# AST rules (raw-sync, naked-new, rand, cout, raw-eintr,
# untrusted-alloc) live in the moloc_check analyzer (tools/analyze/,
# built under -DMOLOC_ANALYZE=ON, run by CI's `analyze` job).
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
# A genuine exception gets `// lint:allow(<rule>): <why>` on the same
# line; the reason is mandatory (moloc_check reports a reasonless or
# typo'd marker as a `bad-suppression` finding).

set -u
cd "$(dirname "$0")/.."

if [ -n "${1:-}" ]; then
  echo "usage: tools/lint.sh" >&2
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

check tsa-escape 'MOLOC_NO_THREAD_SAFETY_ANALYSIS' "${non_util_src[@]}"

mapfile -t writer_scope < <(printf '%s\n' "${all_src[@]}" |
  grep -E '^src/(core|service)/' |
  grep -vE '^src/(core/online_motion_database|service/intake)\.')

check online-mutation '(\.|->) *(addObservation|applyAccepted) *\(' \
  "${writer_scope[@]}"

if [ "$fail" -ne 0 ]; then
  echo
  echo "lint: violations found. Keep the thread-safety escape hatch in"
  echo "src/util/ and intake mutation on the intake writer — or annotate"
  echo "the line with // lint:allow(<rule>): <reason>."
  exit 1
fi
echo "lint: clean (${#all_src[@]} files)"
