#!/usr/bin/env python3
"""Schema gate for the BENCH_*.json perf-trajectory snapshots.

The bench binaries emit machine-readable sweeps under bench_results/
(schema in docs/performance.md) via bench::JsonWriter, which serializes
non-finite doubles as null so the document always parses.  This checker
is the other half of that contract: a snapshot that *parses* but leaked
a non-finite value into a field the trajectory tooling aggregates
(qps, seconds, speedups, latency summaries) is still a broken data
point — typically a divide-by-zero from a zero-duration smoke run —
and must fail CI instead of silently polluting the trajectory.

Checks, per file:
  1. The raw text contains no bare NaN/Infinity tokens (JsonWriter
     never emits them; their presence means hand-edited or corrupt
     output) and parses as strict JSON.
  2. The required envelope is present: "bench" (string) and
     "schema_version" (finite number).
  3. No *required numeric field*, at any nesting depth, is null or
     non-numeric.  Required numeric fields are the aggregatable
     measurements: seconds, qps, threads, queries, samples,
     schema_version, ops_per_sec, every *_ns latency statistic, every
     *_qps / speedup* / *_speedup* scaling figure, max_speedup*, and —
     for the network-serving snapshot (BENCH_micro_net.json) — the load
     shape (users, connections, requests_per_user) and every *_errors
     counter, whose absence-as-null would hide a failed run.  The
     index-scaling snapshot (BENCH_micro_scale.json) adds the venue
     shape (locations, ap_count, shard_count), the prefilter quality
     figures (recall, every *_mean, index_build_seconds), and the
     *_ratio scaling summary.  The service snapshot's session_create
     section adds every *_us latency statistic (openSession p50/p90
     per venue) and session_create_ratio.  micro_scale's per-shard
     active_aps_mean / varying_columns_mean, speedup_p50 and the
     variants' p90_ns fall under the same patterns.
     (Percentile fields like p50_ms stay optional: a MOLOC_METRICS=OFF
     build reports them as -1, and a missing histogram may null them.)
  4. The host facts cpu_model and build_type (micro_service,
     micro_scale, micro_net), wherever they appear, are non-empty
     strings: a measurement whose host is unrecorded cannot be
     compared.  The network-serving snapshot must carry its host in
     `config` (HOST_REQUIRED) and must not carry the closed-loop
     `latency` section its emitter retired: latency claims cite the
     open-loop servebench only.
  5. No object, at any depth, repeats a key.  json.loads keeps the
     last duplicate silently, so a JsonWriter bug that emits a section
     twice would otherwise *discard* the first measurement and still
     look green.
  6. Every top-level key is one the bench emitters are known to
     write.  A typo'd or renamed section would otherwise pass (its
     correctly-named twin simply absent) while the trajectory tooling
     aggregates nothing; renames must update KNOWN_TOP_LEVEL here in
     the same change.

Usage: check_bench_json.py [FILE...]
Defaults to bench_results/BENCH_*.json; exits non-zero when no
snapshot is found, so a silently-skipped bench cannot look green.
"""

import glob
import json
import math
import re
import sys

REQUIRED_ENVELOPE = ("bench", "schema_version")

# Union of the top-level sections across every BENCH_*.json emitter
# (micro_engine, micro_service, micro_scale, micro_store, loadgen).
KNOWN_TOP_LEVEL = frozenset(
    (
        "bench",
        "schema_version",
        "config",
        "sections",
        "sweep",
        "scaling",
        "determinism_bitwise",
        "latency",
        "observations",
        "server",
        "totals",
        "verification",
        "append",
        "recovery",
        "checkpoint_capture",
        "cold_start",
        "cold_start_summary",
        "session_create",
    )
)

REQUIRED_NUMERIC = [
    re.compile(p)
    for p in (
        r"^(seconds|qps|threads|queries|samples|schema_version)$",
        r"^ops_per_sec$",
        r"_ns$",
        r"_us$",
        r"_qps$",
        r"^speedup",
        r"_speedup",
        r"^max_speedup",
        r"^(users|connections|requests_per_user)$",
        r"_errors$",
        r"^(locations|ap_count|shard_count|recall)$",
        r"^index_build_seconds$",
        r"_mean$",
        r"_ratio$",
    )
]

HOST_STRING_FIELDS = frozenset(("cpu_model", "build_type"))

# Per bench: config fields that record the host, and top-level
# sections the emitter no longer writes.
HOST_REQUIRED = {
    "micro_net": (
        "cpu_model",
        "build_type",
        "hardware_concurrency",
        "simd_compiled",
        "simd_active",
    ),
}
RETIRED_SECTIONS = {"micro_net": ("latency",)}

NONFINITE_TOKEN = re.compile(r"(?<![\w\"])(NaN|-?Infinity)(?![\w\"])")


def is_required_numeric(key):
    return any(p.search(key) for p in REQUIRED_NUMERIC)


def walk(node, path, errors):
    if isinstance(node, dict):
        for key, value in node.items():
            child = f"{path}.{key}" if path else key
            if is_required_numeric(key):
                if value is None:
                    errors.append(
                        f"{child}: null (a non-finite value leaked into a "
                        "required numeric field)"
                    )
                elif isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    errors.append(
                        f"{child}: expected a number, got "
                        f"{type(value).__name__}"
                    )
                elif not math.isfinite(value):
                    errors.append(f"{child}: non-finite value {value!r}")
            if key in HOST_STRING_FIELDS and not (
                isinstance(value, str) and value
            ):
                errors.append(f"{child}: expected a non-empty string")
            walk(value, child, errors)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            walk(value, f"{path}[{index}]", errors)


def check_file(name):
    errors = []
    try:
        with open(name, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return [f"unreadable: {exc}"]

    match = NONFINITE_TOKEN.search(text)
    if match:
        errors.append(f"bare {match.group(0)} token (invalid JSON)")

    def reject_constant(token):
        raise ValueError(f"non-finite constant {token}")

    duplicate_keys = []

    def detect_duplicates(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                duplicate_keys.append(key)
            obj[key] = value
        return obj

    try:
        document = json.loads(
            text,
            parse_constant=reject_constant,
            object_pairs_hook=detect_duplicates,
        )
    except ValueError as exc:
        errors.append(f"parse error: {exc}")
        return errors

    for key in duplicate_keys:
        errors.append(
            f"duplicate key '{key}' (json keeps the last occurrence; the "
            "first measurement would be silently discarded)"
        )

    if not isinstance(document, dict):
        errors.append("top level is not an object")
        return errors
    for key in REQUIRED_ENVELOPE:
        if key not in document:
            errors.append(f"missing required field '{key}'")
    if "bench" in document and not isinstance(document["bench"], str):
        errors.append("'bench' must be a string")
    for key in document:
        if key not in KNOWN_TOP_LEVEL:
            errors.append(
                f"unknown top-level key '{key}' (typo'd or renamed "
                "section? update KNOWN_TOP_LEVEL with the emitter)"
            )

    bench = document.get("bench")
    config = document.get("config")
    for key in HOST_REQUIRED.get(bench, ()):
        if not isinstance(config, dict) or key not in config:
            errors.append(f"config.{key}: missing (the host is unrecorded)")
    for key in RETIRED_SECTIONS.get(bench, ()):
        if key in document:
            errors.append(f"'{key}': retired section in a {bench} snapshot")

    walk(document, "", errors)
    return errors


def main(argv):
    files = argv[1:] or sorted(glob.glob("bench_results/BENCH_*.json"))
    if not files:
        print(
            "check_bench_json: no BENCH_*.json snapshots found "
            "(did the bench binaries run?)",
            file=sys.stderr,
        )
        return 2

    status = 0
    for name in files:
        errors = check_file(name)
        if errors:
            status = 1
            print(f"check_bench_json: FAIL {name}", file=sys.stderr)
            for error in errors:
                print(f"  {error}", file=sys.stderr)
        else:
            print(f"check_bench_json: ok {name}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
