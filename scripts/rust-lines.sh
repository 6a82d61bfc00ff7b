#!/usr/bin/env bash
# Counts the lines of Rust in the workspace: every tracked or untracked
# `.rs` file outside benchmark/, shims/ and target/, tests included.
#
# This is the one counting method behind the net-lines figures in
# CHANGES.md: run it on two commits and subtract.
set -euo pipefail

cd "$(dirname "$0")/.."
mapfile -t files < <(find . \( -path ./benchmark -o -path ./shims -o -path ./target \
    -o -path ./.git \) -prune -o -name '*.rs' -type f -print | LC_ALL=C sort)
cat "${files[@]}" | wc -l | tr -d ' '
