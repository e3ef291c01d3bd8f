#!/usr/bin/env python3
"""Serving benchmark for molocd, the MoLoc network daemon.

Usage (from the repository root):

    python3 servebench/run.py --workload hall-walk --seed 1 --seconds 15 \
        --trace 0

Builds molocd and the load generator from source (CMake package in this
directory, build tree under .bench_build/), starts molocd several times
to time its set-up, keeps the last instance serving, and drives it with
servebench_load: an open-loop load generator that speaks the wire
protocol through the MoLoc library's codec, times each request from
when it was due, and checks every answer bitwise against an in-process
LocalizationService.  molocd is always stopped with SIGTERM and waited
for.

Workloads (see servebench/workload.hpp and BENCHMARK.json): users scan
on arrival at each location of their walk, so a user's request rate is
set by the simulated walking legs; the number of users walking at once
sets the offered load.
  hall-walk        8192 users on long walks in the paper's office hall,
                   16 connections; each scan carries the IMU recording
                   of the leg walked.
  hall-crowd       users arrive, take four scans and leave (4096
                   walking at once), so one scan in four opens a session.
  campus16k-batch  1024 users on the generated campus-16k venue; 8
                   gateways each send LocalizeBatch of 4 scans, and the
                   tiered index serves the candidate stage.

--trace 0 prints the end-to-end metrics; --trace 1 adds the unloaded
round-trip probe and prints the per-layer metrics.  The last stdout line
is the JSON result.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "servebench"
TARGETS = ["molocd", "servebench_load"]

# molocd serves the world servebench_load rebuilds (kWorldSeed in
# workload.hpp).  No intake: the workloads report no observations, and
# the boot world carries the trained motion database.
MOLOCD_ARGS = {
    "hall-walk": [],
    "hall-crowd": [],
    "campus16k-batch": ["--venue", "campus-16k"],
}
BOOT_REPEATS = 15
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "server_cpu_us": "us",
    "setup_s": "s",
}
PER_LAYER = {
    "gen_lag_p99_us": "us",
    "rtt_idle_p50_us": "us",
    "queue_p50_us": "us",
    "wire_request_bytes": "bytes",
    "wire_response_bytes": "bytes",
    "server_requests": "count",
    "mean_error_m": "m",
    "service_scan_p50_us": "us",
    "candidate_p50_us": "us",
    "candidate_rows_mean": "count",
    "stage_fingerprint_us": "us",
    "stage_motion_us": "us",
    "stage_fusion_us": "us",
}


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"MoLoc sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
         "--target", *TARGETS],
        check=True, stdout=sys.stderr)


def stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def boot(workload, attempt):
    """Starts molocd; returns (process, port, seconds until listening)."""
    port_file = BUILD / "run" / f"port-{attempt}"
    port_file.parent.mkdir(parents=True, exist_ok=True)
    port_file.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [str(BUILD / "moloc" / "molocd"), "--port-file", str(port_file),
         "--no-intake", *MOLOCD_ARGS[workload]],
        stdout=subprocess.DEVNULL)
    try:
        while True:
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                return proc, int(text), time.perf_counter() - start
            if proc.poll() is not None:
                raise RuntimeError(f"molocd exited with {proc.returncode}")
            if time.perf_counter() - start > 60:
                raise RuntimeError("molocd did not start listening")
            time.sleep(0.001)
    except BaseException:
        stop(proc)
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=MOLOCD_ARGS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
        # Set-up: molocd boot until listening, repeated; the median is
        # reported and the last instance serves the run.
        boots = []
        server = None
        try:
            for attempt in range(BOOT_REPEATS):
                if server is not None:
                    stop(server)
                server, port, seconds = boot(args.workload, attempt)
                boots.append(seconds)
            load = subprocess.run(
                [str(BUILD / "servebench_load"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--port", str(port),
                 "--server-pid", str(server.pid),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, timeout=150)
        finally:
            if server is not None:
                stop(server)
        if load.returncode != 0:
            raise RuntimeError(
                f"servebench_load exited with {load.returncode}")
        result = json.loads(load.stdout.strip().splitlines()[-1])
        measured = result["metrics"]
        measured["setup_s"] = statistics.median(boots)
        units = PER_LAYER if args.trace else END_TO_END
        result["metrics"] = {
            name: {"value": measured[name], "unit": unit}
            for name, unit in units.items()}
    except (RuntimeError, OSError, subprocess.SubprocessError,
            KeyError, ValueError) as error:
        print(f"servebench: failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
