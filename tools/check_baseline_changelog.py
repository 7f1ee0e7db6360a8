#!/usr/bin/env python3
"""Fail when a checked-in bench baseline changes without a CHANGES.md entry.

A refreshed baseline can turn a failing perf gate green without any fix to
the program, so every change to bench/baselines/*.json must be explained in
CHANGES.md in the same diff.

Usage:
  tools/check_baseline_changelog.py [--base REV]   # diff REV...HEAD via git
  tools/check_baseline_changelog.py PATH...        # check a given file list

--base defaults to HEAD~1. An all-zero revision (what a push of a new
branch reports as its previous commit) also means HEAD~1. Exit status 0 on
pass, 1 when a baseline changed without CHANGES.md, 2 when git fails.
"""

import argparse
import subprocess
import sys

BASELINE_DIR = "bench/baselines/"
CHANGELOG = "CHANGES.md"


def changed_paths(base):
    if not base or set(base) == {"0"}:
        base = "HEAD~1"
    out = subprocess.run(
        ["git", "diff", "--name-only", f"{base}...HEAD"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(2)
    return out.stdout.split()


def unexplained_baselines(paths):
    baselines = sorted(p for p in paths
                       if p.startswith(BASELINE_DIR) and p.endswith(".json"))
    return [] if CHANGELOG in paths else baselines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD~1",
                    help="revision to diff against (default HEAD~1)")
    ap.add_argument("paths", nargs="*",
                    help="changed paths to check instead of asking git")
    args = ap.parse_args()
    paths = args.paths or changed_paths(args.base)
    bad = unexplained_baselines(paths)
    for p in bad:
        print(f"FAIL: {p} changed without a {CHANGELOG} entry in the same diff")
    if not bad:
        print(f"ok: {len(paths)} changed path(s), baselines explained")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
