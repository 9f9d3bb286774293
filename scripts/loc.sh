#!/usr/bin/env bash
# The ROADMAP aim-2 size metric: lines of Rust under
# crates/{engine,store,serve}/src, in total and cut at each file's first
# `#[cfg(test)]` (non-test). A PR that collapses a duplicate mechanism
# reports both numbers, before and after, in CHANGES.md.
#
#   scripts/loc.sh          # "total 19003  non-test 14177" at PR 15
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/engine/src crates/store/src crates/serve/src -name '*.rs' -print0 |
    xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        { total++ }
        !in_tests { non_test++ }
        END { printf "total %d  non-test %d\n", total, non_test }
    '
