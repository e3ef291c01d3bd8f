#!/usr/bin/env python3
"""Fails when a --gtest_filter pattern in a CI workflow selects no test.

A filter pattern that names no suite is silent: gtest runs the other
patterns and reports success, so a renamed suite quietly drops out of
the job meant to run it (sanitizers, SIMD builds).  This gate asks the
test binary itself, once per pattern, with --gtest_list_tests, and
fails listing every pattern that matched zero tests.

Each --gtest_filter='...' value is split on ':'; the negative part of a
filter (after a '-') only removes tests, so its patterns are not
checked.

Usage: check_gtest_filters.py WORKFLOW TEST_BINARY
"""

import re
import subprocess
import sys

FILTER = re.compile(r"--gtest_filter=(?:'([^']*)'|\"([^\"]*)\"|(\S+))")


def patterns(workflow_text):
    """Every positive pattern of every --gtest_filter, in order."""
    found = []
    for match in FILTER.finditer(workflow_text):
        value = next(group for group in match.groups() if group is not None)
        positive = value.split("-", 1)[0]
        found.extend(p for p in positive.split(":") if p)
    return found


def matched_tests(binary, pattern):
    listing = subprocess.run(
        [binary, "--gtest_list_tests", f"--gtest_filter={pattern}"],
        check=True, capture_output=True, text=True).stdout
    # Suite lines end with '.'; test lines are indented by two spaces.
    return sum(1 for line in listing.splitlines() if line.startswith("  "))


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    workflow, binary = argv[1], argv[2]
    with open(workflow, encoding="utf-8") as f:
        found = patterns(f.read())
    if not found:
        print(f"{workflow}: no --gtest_filter patterns found",
              file=sys.stderr)
        return 1
    dead = []
    for pattern in dict.fromkeys(found):
        count = matched_tests(binary, pattern)
        print(f"{count:5d}  {pattern}")
        if count == 0:
            dead.append(pattern)
    if dead:
        print(f"{workflow}: {len(dead)} filter pattern(s) match no test: "
              + " ".join(dead), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
